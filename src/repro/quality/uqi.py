"""Universal image Quality Index (Wang & Bovik, 2002) — the paper's ref. [8].

The paper adopts the UQI as the distortion basis for its distortion
characteristic curve (Sec. 5.1c).  The index factors image quality into three
components measured on a sliding window: loss of correlation, luminance
distortion, and contrast distortion:

    Q = [ sigma_xy / (sigma_x sigma_y) ]
        * [ 2 mean_x mean_y / (mean_x^2 + mean_y^2) ]
        * [ 2 sigma_x sigma_y / (sigma_x^2 + sigma_y^2) ]

which collapses to the single expression

    Q = 4 sigma_xy mean_x mean_y /
        ( (sigma_x^2 + sigma_y^2) (mean_x^2 + mean_y^2) )

Q lies in ``[-1, 1]`` with 1 meaning the images are identical up to the
window statistics.  Following the original paper the global index is the
average of the window indices computed on a sliding window (default 8x8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.imaging.image import Image

__all__ = [
    "universal_quality_index",
    "uqi_map",
    "uqi_components_map",
    "UQIReference",
    "UQIComponents",
    "uqi_reference",
    "uqi_components",
]

#: Numerical guard used when both denominators vanish (flat windows).
_EPSILON = 1e-12


def _sliding_window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum of ``values`` over every ``window x window`` patch (valid mode).

    Implemented with a 2-D summed-area table so the whole UQI map is
    O(H*W) instead of O(H*W*window^2).
    """
    padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=np.float64)
    padded[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
    return (
        padded[window:, window:]
        - padded[:-window, window:]
        - padded[window:, :-window]
        + padded[:-window, :-window]
    )


def uqi_map(original: Image, transformed: Image, window: int = 8) -> np.ndarray:
    """Per-window quality index map (valid windows only).

    Parameters
    ----------
    original, transformed:
        Images of identical shape.  RGB images are converted to grayscale.
    window:
        Side of the square sliding window; the original paper uses 8.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(H - window + 1, W - window + 1)`` with the local
        quality index of every window.
    """
    if original.shape != transformed.shape:
        raise ValueError(
            f"image shapes differ: {original.shape} vs {transformed.shape}"
        )
    reference = original.to_grayscale().as_float()
    candidate = transformed.to_grayscale().as_float()
    if window < 2:
        raise ValueError("window must be at least 2 pixels")
    if window > min(reference.shape):
        raise ValueError(
            f"window ({window}) larger than image ({reference.shape})"
        )

    n = float(window * window)
    sum_x = _sliding_window_sums(reference, window)
    sum_y = _sliding_window_sums(candidate, window)
    sum_xx = _sliding_window_sums(reference * reference, window)
    sum_yy = _sliding_window_sums(candidate * candidate, window)
    sum_xy = _sliding_window_sums(reference * candidate, window)

    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = sum_xx / n - mean_x**2
    var_y = sum_yy / n - mean_y**2
    cov_xy = sum_xy / n - mean_x * mean_y

    numerator = 4.0 * cov_xy * mean_x * mean_y
    denominator = (var_x + var_y) * (mean_x**2 + mean_y**2)

    quality = np.ones_like(numerator)
    # Case 1: both denominater factors are ~0 (flat and dark windows in both
    # images) -> identical statistics -> quality 1 (handled by the init).
    # Case 2: variances vanish but means do not -> only the luminance term
    # survives (the Wang-Bovik convention).
    luminance_only = (var_x + var_y < _EPSILON) & (mean_x**2 + mean_y**2 >= _EPSILON)
    quality[luminance_only] = (
        2.0 * mean_x[luminance_only] * mean_y[luminance_only]
        / (mean_x[luminance_only] ** 2 + mean_y[luminance_only] ** 2)
    )
    # Case 3: the generic expression.
    generic = denominator >= _EPSILON
    quality[generic] = numerator[generic] / denominator[generic]
    return quality


@dataclass(frozen=True)
class UQIReference:
    """The original-side window statistics of the UQI, computed once.

    Everything here depends only on the original image and the window, so a
    caller comparing many candidates against one original (a bisection over
    dynamic ranges, say) builds it once with :func:`uqi_reference` and
    passes it to :func:`uqi_components` for every candidate.  The arrays are
    read-only.

    Attributes
    ----------
    shape:
        Shape of the original image (RGB originals keep their channel axis).
    window:
        Side of the square sliding window.
    values:
        The original's grayscale pixel values in ``[0, 1]``.
    mean, variance:
        Per-window mean and variance (clamped at 0).
    """

    shape: tuple[int, ...]
    window: int
    values: np.ndarray
    mean: np.ndarray
    variance: np.ndarray


class UQIComponents(NamedTuple):
    """Per-window UQI factors plus the candidate's window variance."""

    correlation: np.ndarray
    luminance: np.ndarray
    contrast: np.ndarray
    candidate_variance: np.ndarray


def _window_moments(values: np.ndarray, window: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-window mean and variance (clamped at 0) of ``values``."""
    n = float(window * window)
    mean = _sliding_window_sums(values, window) / n
    variance = np.maximum(
        _sliding_window_sums(values * values, window) / n - mean**2, 0.0)
    return mean, variance


def uqi_reference(original: Image, window: int = 8) -> UQIReference:
    """Window statistics of ``original`` for :func:`uqi_components`."""
    values = original.to_grayscale().as_float()
    if window < 2:
        raise ValueError("window must be at least 2 pixels")
    if window > min(values.shape):
        raise ValueError(
            f"window ({window}) larger than image ({values.shape})"
        )
    mean, variance = _window_moments(values, window)
    for array in (values, mean, variance):
        array.setflags(write=False)
    return UQIReference(original.shape, window, values, mean, variance)


def uqi_components(reference: UQIReference, transformed: Image
                   ) -> UQIComponents:
    """Per-window UQI factors of ``transformed`` against a prepared original.

    Computes only the candidate-side window sums (its mean, variance and
    covariance with the original); the original's come from ``reference``.
    The factors are those of :func:`uqi_components_map`, bit for bit.
    """
    if reference.shape != transformed.shape:
        raise ValueError(
            f"image shapes differ: {reference.shape} vs {transformed.shape}"
        )
    candidate = transformed.to_grayscale().as_float()
    window = reference.window
    mean_x, var_x = reference.mean, reference.variance
    mean_y, var_y = _window_moments(candidate, window)
    cov_xy = (_sliding_window_sums(reference.values * candidate, window)
              / float(window * window) - mean_x * mean_y)
    std_x = np.sqrt(var_x)
    std_y = np.sqrt(var_y)

    flat_x = var_x < _EPSILON
    flat_y = var_y < _EPSILON
    one_flat = flat_x ^ flat_y
    generic = ~(flat_x | flat_y)
    # both flat: correlation and contrast 1; exactly one flat: both 0
    degenerate = np.where(one_flat, 0.0, 1.0)
    mean_sq = mean_x**2 + mean_y**2
    # the quotients are evaluated on every window and kept only where they
    # are defined, which is where the masks select them
    with np.errstate(divide="ignore", invalid="ignore"):
        correlation = np.where(generic, cov_xy / (std_x * std_y), degenerate)
        luminance = np.where(mean_sq >= _EPSILON,
                             2.0 * mean_x * mean_y / mean_sq, 1.0)
        contrast = np.where(generic, 2.0 * std_x * std_y / (var_x + var_y),
                            degenerate)
    correlation = np.clip(correlation, -1.0, 1.0)
    return UQIComponents(correlation, luminance, contrast, var_y)


def uqi_components_map(original: Image, transformed: Image, window: int = 8
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window UQI factors: ``(correlation, luminance, contrast)``.

    The Wang-Bovik index is the product of three factors measured on each
    sliding window:

    * **correlation** ``sigma_xy / (sigma_x sigma_y)`` — structural
      similarity; 1 when the window contents are linearly related,
    * **luminance** ``2 mu_x mu_y / (mu_x^2 + mu_y^2)`` — closeness of the
      mean intensities,
    * **contrast** ``2 sigma_x sigma_y / (sigma_x^2 + sigma_y^2)`` —
      closeness of the local contrasts.

    The decomposition is what the paper's HVS-aware "effective distortion"
    needs: the human eye largely adapts to global luminance and contrast
    changes (that is the very premise of backlight compensation), so those
    two factors are discounted while structural loss is charged in full (see
    :func:`repro.quality.distortion.effective_distortion`).

    Flat windows are handled with the Wang-Bovik conventions: if both
    windows are flat the correlation and contrast are taken as 1; if exactly
    one is flat the correlation and contrast are 0 (all structure lost).

    This is :func:`uqi_reference` followed by :func:`uqi_components`; call
    those two directly to compare many candidates against one original.
    """
    components = uqi_components(uqi_reference(original, window), transformed)
    return components.correlation, components.luminance, components.contrast


def universal_quality_index(original: Image, transformed: Image,
                            window: int = 8) -> float:
    """Global UQI: the mean of the sliding-window quality map.

    Returns a value in ``[-1, 1]``; 1 means the transformed image is
    statistically indistinguishable from the original at the window scale.
    """
    return float(np.mean(uqi_map(original, transformed, window=window)))
