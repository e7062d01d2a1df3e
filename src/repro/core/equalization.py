"""Global Histogram Equalization (GHE) — paper Sec. 4, Eq. (4)-(7).

The GHE problem: given the cumulative histogram ``H`` of the original image,
find a monotone transformation ``Phi`` that makes the transformed image's
cumulative histogram as close as possible to the *uniform* cumulative
histogram ``U`` over ``[g_min, g_max]`` (objective Eq. 4).  When the target
is uniform, the classical closed form solves it (Eq. 5):

    Phi(x) = U^{-1}(H(x)) = g_min + (g_max - g_min) * H(x) / N

whose discrete, histogram-based form is Eq. (7) — a running sum of the
marginal histogram scaled to the target range.

HEBS uses GHE in "compression" mode: the target range ``[g_min, g_max]`` is
*smaller* than the source range, producing an image whose dynamic range is at
most ``R = g_max - g_min`` while the grayscale levels that matter (the highly
populated ones) keep most of their resolution — the histogram analogue of
"discard the pixels corresponding to the grayscale levels with low
population" (Sec. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.histogram import CumulativeHistogram, Histogram, uniform_cumulative
from repro.core.transforms import LUTTransform
from repro.imaging.image import Image

__all__ = [
    "GHEResult",
    "equalization_transform",
    "equalize_histogram",
    "equalization_objective",
]


@dataclass(frozen=True)
class GHEResult:
    """Outcome of solving the GHE problem for one image/histogram.

    Attributes
    ----------
    transform:
        The monotone transformation ``Phi`` as a per-level LUT (normalized
        outputs), directly applicable to images.
    g_min, g_max:
        Target range limits used for the uniform target histogram.
    objective:
        Value of the (discretized) Eq. (4) objective for the transformed
        histogram: mean absolute difference between the transformed
        cumulative histogram and the uniform target, normalized to ``[0, 1]``.
    source_histogram:
        The histogram the transformation was derived from.
    """

    transform: LUTTransform
    g_min: int
    g_max: int
    objective: float
    source_histogram: Histogram

    @property
    def target_range(self) -> int:
        """The target dynamic range ``R = g_max - g_min``."""
        return self.g_max - self.g_min

    def lut_levels(self) -> np.ndarray:
        """The transformation as integer output levels per input level."""
        levels = self.source_histogram.levels
        return np.rint(np.asarray(self.transform.table) * (levels - 1)).astype(int)

    def apply(self, image: Image) -> Image:
        """Apply ``Phi`` to an image (must share the histogram's bit depth)."""
        if image.levels != self.source_histogram.levels:
            raise ValueError(
                f"image has {image.levels} levels but the transform was built "
                f"for {self.source_histogram.levels}"
            )
        return self.transform.apply(image)


def equalization_transform(histogram: Histogram, g_min: int,
                           g_max: int) -> LUTTransform:
    """The closed-form GHE transformation of Eq. (5)/(7).

    Parameters
    ----------
    histogram:
        Marginal histogram ``h(x)`` of the original image.
    g_min, g_max:
        Limits of the uniform target distribution.  ``g_max - g_min`` is the
        dynamic range ``R`` of the transformed image.

    Returns
    -------
    LUTTransform
        ``Phi`` as a per-level lookup table with normalized outputs.

    Notes
    -----
    The discrete running-sum form (Eq. 7) is evaluated with the convention
    that level ``x`` maps to ``g_min + R * H(x) / N`` where ``H`` is the
    *inclusive* cumulative histogram.  The result is monotone by
    construction because ``H`` is non-decreasing.
    """
    levels = histogram.levels
    if not 0 <= g_min < g_max <= levels - 1:
        raise ValueError(
            f"need 0 <= g_min < g_max <= {levels - 1}, got ({g_min}, {g_max})"
        )
    cumulative = np.cumsum(histogram.counts).astype(np.float64)
    n_pixels = cumulative[-1]
    mapped_levels = g_min + (g_max - g_min) * cumulative / n_pixels
    normalized = np.clip(mapped_levels / (levels - 1), 0.0, 1.0)
    # normalized and non-decreasing by construction
    return LUTTransform._from_valid(normalized)


def equalization_objective(transformed: CumulativeHistogram, g_min: int,
                           g_max: int) -> float:
    """Discretized Eq. (4): distance of a cumulative histogram from uniform.

    Measures ``mean_x |H'(x) - U(x)| / N`` where ``H'`` is the cumulative
    histogram of the transformed image and ``U`` the uniform target over
    ``[g_min, g_max]``.  0 means the transformed image is exactly uniform
    over the target range.
    """
    target = uniform_cumulative(transformed.levels, transformed.n_pixels,
                                g_min, g_max)
    return transformed.l1_distance(target)


def equalize_histogram(source: Image | Histogram, g_min: int,
                       g_max: int) -> GHEResult:
    """Solve the GHE problem for an image (or a bare histogram).

    Returns the transformation plus the achieved objective value.  The
    objective is evaluated on the *transformed histogram*: the source
    histogram pushed through ``Phi`` (integer-rounded), i.e. what the display
    would actually show.
    """
    histogram = source if isinstance(source, Histogram) else Histogram.of_image(source)
    transform = equalization_transform(histogram, g_min, g_max)

    # push the histogram through the integer-rounded transformation
    levels = histogram.levels
    lut = np.rint(np.asarray(transform.table) * (levels - 1)).astype(np.int64)
    transformed_counts = np.zeros(levels, dtype=np.int64)
    np.add.at(transformed_counts, lut, histogram.counts)
    transformed_cumulative = CumulativeHistogram(
        np.cumsum(transformed_counts).astype(np.float64))

    objective = equalization_objective(transformed_cumulative, g_min, g_max)
    return GHEResult(
        transform=transform,
        g_min=int(g_min),
        g_max=int(g_max),
        objective=objective,
        source_histogram=histogram,
    )
