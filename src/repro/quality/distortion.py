"""The paper's *effective distortion* measure and a registry of alternatives.

HEBS claims "a more accurate definition of the image distortion which takes
into account both the pixel value differences and a model of the human visual
system" (Sec. 1).  Concretely the paper adopts the Universal image Quality
Index (ref. [8]) as the quantitative basis (Sec. 5.1c) and weights it by an
HVS model (refs. [6][9]).  The resulting scalar is reported as a percentage
("effective distortion rate of 5%", abstract).

This module defines that measure — :func:`effective_distortion` — and a small
registry of alternative measures (:func:`get_measure`) so the distortion
characteristic curve and the ablation benchmarks can swap the basis without
touching the pipeline.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.imaging.image import Image
from repro.quality.hvs import HVSModel
from repro.quality.metrics import (
    contrast_fidelity,
    histogram_l1_distance,
    rmse,
    saturation_percentage,
)
from repro.quality.ssim import ssim_map
from repro.quality.uqi import (
    _EPSILON,
    UQIReference,
    _sliding_window_sums,
    uqi_components,
    uqi_map,
    uqi_reference,
)

__all__ = [
    "effective_distortion",
    "RangeDistortion",
    "DistortionMeasure",
    "get_measure",
    "available_measures",
    "register_measure",
]

#: A distortion measure maps (original, transformed) to a percentage in
#: ``[0, 100]`` where 0 means "indistinguishable" and larger means worse.
DistortionMeasure = Callable[[Image, Image], float]


@dataclass(frozen=True)
class _PreparedReference:
    """The original-side terms of :func:`effective_distortion`.

    ``pixels`` is a copy of the original's pixels, compared on every cache
    hit; ``uqi`` holds its window statistics; ``weights`` are the HVS weights
    pooled onto the window grid and ``weight_total`` their sum.  All arrays
    are read-only.
    """

    pixels: np.ndarray
    uqi: UQIReference
    weights: np.ndarray
    weight_total: float


#: Prepared originals kept by :func:`effective_distortion`, least recently
#: used first.  A range search probes one original up to ten times and a
#: serving process re-measures a repeated image once per request; eight
#: entries cover two interleaved callers and a small corpus.  At 128x128
#: an entry holds about 0.5 MB.
_PREPARED_CAPACITY = 8
_prepared: OrderedDict[tuple, _PreparedReference] = OrderedDict()
_prepared_lock = threading.Lock()


def _prepare(original: Image, window: int,
             hvs_model: HVSModel) -> _PreparedReference:
    uqi = uqi_reference(original, window)
    # each window is weighted by the per-pixel HVS weights averaged over
    # the window extent (a cheap but adequate pooling)
    weights = (_sliding_window_sums(hvs_model.weights(original), window)
               / float(window * window))
    pixels = np.array(original.pixels)
    for array in (pixels, weights):
        array.setflags(write=False)
    return _PreparedReference(pixels, uqi, weights, np.sum(weights))


def _prepared_reference(original: Image, window: int,
                        hvs_model: HVSModel) -> _PreparedReference:
    """The prepared terms of ``original``, from the cache when it has them."""
    pixels = np.ascontiguousarray(original.pixels)
    key = (hashlib.blake2b(pixels, digest_size=16).digest(), pixels.shape,
           original.bit_depth, window, hvs_model)
    with _prepared_lock:
        entry = _prepared.get(key)
        if entry is not None and np.array_equal(entry.pixels, pixels):
            _prepared.move_to_end(key)
            return entry
    entry = _prepare(original, window, hvs_model)
    with _prepared_lock:
        _prepared[key] = entry
        _prepared.move_to_end(key)
        while len(_prepared) > _PREPARED_CAPACITY:
            _prepared.popitem(last=False)
    return entry


#: Default adaptation exponents of the effective-distortion measure: how much
#: of a *global* luminance / contrast change still registers as distortion
#: after the human visual system has adapted to it.  0 would mean full
#: adaptation (only structural loss counts), 1 would mean no adaptation (the
#: raw Wang-Bovik factor).  The defaults follow the paper's premise that
#: brightness/contrast remapping is largely invisible while detail loss is
#: not, and they place the distortion magnitudes in the range the paper
#: reports (a few percent at dynamic range 220, tens of percent at 50).
LUMINANCE_ADAPTATION_EXPONENT = 0.15
CONTRAST_LOSS_EXPONENT = 0.40


def effective_distortion(original: Image, transformed: Image,
                         window: int = 8,
                         hvs_model: HVSModel | None = None,
                         luminance_exponent: float = LUMINANCE_ADAPTATION_EXPONENT,
                         contrast_loss_exponent: float = CONTRAST_LOSS_EXPONENT,
                         ) -> float:
    """The paper's distortion rate, in percent.

    The measure combines "the mathematical difference between pixel values"
    (the Wang-Bovik UQI factors) with "a model of the human visual system"
    (Sec. 2) in three ways:

    1. **Structure first.**  The UQI of every sliding window is decomposed
       into correlation (structure), luminance and contrast factors.  The
       correlation factor — whether the local detail survives at all — is
       charged in full: grayscale-level collapse, flat-band clipping and
       saturation destroy it.
    2. **Adaptation.**  The eye adapts to smooth global luminance and
       contrast remapping — which is exactly what a monotone
       backlight-compensation transform produces, and what a display's own
       brightness/contrast controls change — so the luminance factor enters
       with a small exponent, and the contrast factor is charged only where
       local contrast is *lost* (``sigma_out < sigma_in``); pure contrast
       *enhancement* (what histogram equalization does in densely populated
       grayscale regions) is treated as visually benign.
    3. **Visibility weighting.**  Every window is weighted by the HVS
       visibility of its neighbourhood in the *original* image (Weber
       luminance adaptation + texture masking): errors in dark, flat regions
       count more than errors in bright or busy regions.

    The weighted mean quality ``Q_w`` is reported as ``100 * (1 - Q_w)``
    percent.

    What depends only on the original — its grayscale values, window means
    and variances, and the pooled HVS weights — is
    computed once per (original pixels, ``window``, ``hvs_model``) and kept
    in a small process-wide LRU (:data:`_PREPARED_CAPACITY` entries, keyed by
    a pixel digest and checked for pixel equality on every hit), so the
    probes of a range search against one original pay for it once.  Each
    call computes the transformed image's window sums, the three factors and
    the weighted mean.  The result does not depend on the cache's state.

    Returns
    -------
    float
        Distortion rate; 0 for identical images, a few percent for mild
        dynamic-range compression, tens of percent when most grayscale
        levels have collapsed.
    """
    if not 0.0 <= luminance_exponent <= 1.0:
        raise ValueError("luminance_exponent must be in [0, 1]")
    if not 0.0 <= contrast_loss_exponent <= 1.0:
        raise ValueError("contrast_loss_exponent must be in [0, 1]")
    prepared = _prepared_reference(original, window, hvs_model or HVSModel())
    components = uqi_components(prepared.uqi, transformed)
    variance = prepared.uqi.variance
    return _pooled_distortion(
        np.clip(components.correlation, 0.0, 1.0), components.luminance,
        components.contrast,
        (variance > 1e-12) & (components.candidate_variance < variance),
        prepared.weights, prepared.weight_total, luminance_exponent,
        contrast_loss_exponent)


def _pooled_distortion(structure: np.ndarray, luminance: np.ndarray,
                       contrast: np.ndarray, lost: np.ndarray,
                       weights: np.ndarray, weight_total: float,
                       luminance_exponent: float,
                       contrast_loss_exponent: float) -> float:
    """Steps 2 and 3 of :func:`effective_distortion`: adapt the per-window
    factors, weight them and pool.  ``structure`` is the correlation factor
    already clipped to ``[0, 1]``; ``lost`` marks the windows whose
    contrast fell."""
    luminance = np.clip(luminance, 0.0, 1.0) ** luminance_exponent
    # Contrast is only charged where it was lost.  The Wang-Bovik contrast
    # factor 2*sx*sy/(sx^2+sy^2) is symmetric in gain and loss, so detect
    # loss separately: wherever the transformed window is at least as
    # contrasty as the original, or the original window is flat (nothing to
    # lose), the factor is forced to 1 (full adaptation).
    contrast = np.clip(contrast, 0.0, 1.0)
    contrast = np.where(lost, contrast, 1.0) ** contrast_loss_exponent

    quality = structure * luminance * contrast
    weighted_quality = float(np.sum(quality * weights) / weight_total)
    return max(0.0, 100.0 * (1.0 - weighted_quality))


def _window_sums_every_other(values: np.ndarray,
                             window: int) -> np.ndarray:
    """The ``[::2, ::2]`` subgrid of :func:`_sliding_window_sums` over the
    last two axes of ``values``, for an even ``window``: sums of 2x2 blocks,
    then of ``window // 2`` consecutive blocks in each axis.  At 128x128
    this is about four times cheaper than the summed-area table's full
    grid (0.15 against 0.6 ms for the three candidate-side planes)."""
    rows, cols = (size // 2 * 2 for size in values.shape[-2:])
    blocks = values[..., 0:rows:2, :] + values[..., 1:rows:2, :]
    blocks = blocks[..., 0:cols:2] + blocks[..., 1:cols:2]
    count_rows, count_cols = ((size - window) // 2 + 1
                              for size in values.shape[-2:])
    total = blocks[..., 0:count_rows, :]
    for offset in range(1, window // 2):
        total = total + blocks[..., offset:offset + count_rows, :]
    sums = total[..., 0:count_cols]
    for offset in range(1, window // 2):
        sums = sums + total[..., offset:offset + count_cols]
    return sums


class RangeDistortion:
    """``D~(R)``: :func:`effective_distortion` (with its default window,
    HVS model and exponents) of a range-affine transform, in closed form in
    the range ``R``.

    The candidate is the original pushed through the per-level map
    ``offset + R * shape[level]`` (normalized values), *without* rounding
    to display levels.  Its window mean is then affine in ``R``, its window
    variance scales by ``R**2`` and its covariance with the original by
    ``R``, so the correlation factor does not depend on ``R`` and the
    luminance and contrast factors follow from three window arrays computed
    once.  The adaptation, weighting and pooling are the measure's own
    (:func:`_pooled_distortion`).

    ``D~`` differs from the measured distortion of the displayed (rounded)
    image by a fraction of a distortion point; it is meant to steer a
    search, not to answer one.  It pools every other window in each axis,
    which makes the set-up and each evaluation several times cheaper than
    the measure's full grid.
    """

    def __init__(self, original: Image, offset: float,
                 shape: np.ndarray) -> None:
        window = 8                       # effective_distortion's default
        original = original.to_grayscale()
        if original.levels != len(shape):
            raise ValueError(
                f"shape has {len(shape)} levels, the image {original.levels}")
        prepared = _prepared_reference(original, window, HVSModel())
        corner = (slice(None, None, 2),) * 2
        mean_x = prepared.uqi.mean[corner]
        var_x = prepared.uqi.variance[corner]
        weights = prepared.weights[corner]

        # the candidate-side sums at R = 1 and offset 0: u, u^2 and x * u
        stack = np.empty((3,) + prepared.uqi.values.shape)
        np.take(np.asarray(shape, dtype=np.float64), original.pixels,
                out=stack[0])
        np.multiply(stack[0], stack[0], out=stack[1])
        np.multiply(prepared.uqi.values, stack[0], out=stack[2])
        sums = _window_sums_every_other(stack, window) / float(window
                                                                 * window)
        mean_u = sums[0]
        var_u = np.maximum(sums[1] - mean_u**2, 0.0)
        cov_u = sums[2] - mean_x * mean_u        # the offset cancels

        # flatness is decided at R = 1; the correlation factor
        # cov / (sx * sy) does not depend on R
        std_x = np.sqrt(var_x)
        std_u = np.sqrt(var_u)
        flat_x = var_x < _EPSILON
        flat_u = var_u < _EPSILON
        generic = ~(flat_x | flat_u)
        with np.errstate(divide="ignore", invalid="ignore"):
            correlation = np.where(generic, cov_u / (std_x * std_u),
                                   np.where(flat_x ^ flat_u, 0.0, 1.0))

        # each evaluation runs in single precision: D~ only steers, and
        # halving the bytes makes it about twice as fast
        def single(array):
            return np.ascontiguousarray(array, dtype=np.float32)

        self._structure = single(np.clip(correlation, 0.0, 1.0))
        self._offset = float(offset)
        self._mean_u = single(mean_u)
        self._var_u = single(var_u)
        self._two_mean_x = single(2.0 * mean_x)
        self._mean_x_sq = single(mean_x**2)
        self._var_x = single(var_x)
        # the contrast factor 2 sx sy / (sx^2 + sy^2), with sy = R * su; a
        # window where exactly one side is flat has factor 0 (the zero
        # numerator), and one with a flat original is never charged (it is
        # not lossable), so no case analysis is left per evaluation
        self._two_std_xu = single(np.where(generic, 2.0 * std_x * std_u, 0.0))
        self._lossable = var_x > 1e-12
        self._weights = single(weights)
        self._weight_total = float(np.sum(weights))

    def __call__(self, target_range: float) -> float:
        """``D~`` at range ``target_range``, in percent."""
        mean_y = self._offset + target_range * self._mean_u
        mean_sq = self._mean_x_sq + mean_y * mean_y
        luminance = np.ones_like(mean_sq)
        np.divide(self._two_mean_x * mean_y, mean_sq, out=luminance,
                  where=mean_sq >= _EPSILON)
        var_y = (target_range * target_range) * self._var_u
        with np.errstate(divide="ignore", invalid="ignore"):
            contrast = target_range * self._two_std_xu / (self._var_x + var_y)
        return _pooled_distortion(
            self._structure, luminance, contrast,
            self._lossable & (var_y < self._var_x), self._weights,
            self._weight_total, LUMINANCE_ADAPTATION_EXPONENT,
            CONTRAST_LOSS_EXPONENT)


def _uqi_distortion(original: Image, transformed: Image) -> float:
    """Unweighted UQI distortion: ``100 * (1 - mean Q)``."""
    return max(0.0, 100.0 * (1.0 - float(np.mean(uqi_map(original, transformed)))))


def _ssim_distortion(original: Image, transformed: Image) -> float:
    """SSIM distortion: ``100 * (1 - mean SSIM)``."""
    return max(0.0, 100.0 * (1.0 - float(np.mean(ssim_map(original, transformed)))))


def _rmse_distortion(original: Image, transformed: Image) -> float:
    """RMSE of normalized pixel values expressed as a percentage."""
    return 100.0 * rmse(original, transformed)


def _saturation_distortion(original: Image, transformed: Image) -> float:
    """Saturated-pixel percentage (the measure of ref. [4])."""
    return saturation_percentage(original, transformed)


def _contrast_distortion(original: Image, transformed: Image) -> float:
    """Contrast-infidelity percentage (the complement of ref. [5]'s measure)."""
    return 100.0 * (1.0 - contrast_fidelity(original, transformed, tolerance=1))


def _histogram_distortion(original: Image, transformed: Image) -> float:
    """Histogram L1 distance expressed as a percentage."""
    return 100.0 * histogram_l1_distance(original, transformed)


_MEASURES: Dict[str, DistortionMeasure] = {
    "effective": effective_distortion,
    "uqi": _uqi_distortion,
    "ssim": _ssim_distortion,
    "rmse": _rmse_distortion,
    "saturation": _saturation_distortion,
    "contrast": _contrast_distortion,
    "histogram": _histogram_distortion,
}


def available_measures() -> list[str]:
    """Names of the registered distortion measures."""
    return sorted(_MEASURES)


def get_measure(name: str) -> DistortionMeasure:
    """Look up a distortion measure by name.

    ``"effective"`` is the paper's measure; the others exist for the
    baseline policies and the ablation benchmarks.
    """
    try:
        return _MEASURES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown distortion measure {name!r}; available: "
            f"{available_measures()}"
        ) from None


def register_measure(name: str, measure: DistortionMeasure) -> None:
    """Register a custom distortion measure under ``name``.

    Allows downstream users to plug their own perceptual metric into the
    distortion characteristic curve and the HEBS pipeline.
    """
    key = name.lower()
    if key in _MEASURES:
        raise ValueError(f"measure {name!r} is already registered")
    _MEASURES[key] = measure
