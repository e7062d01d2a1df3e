"""Alternative histogram-equalization methods (the paper's stated future work).

Sec. 6: "In future work alternative distortion measures and histograms
equalization methods will be evaluated."  This module provides the two most
common alternatives to plain global equalization, both constrained to the
same range-compression interface as the GHE solver so the HEBS pipeline can
swap them in:

* **Clipped (contrast-limited) equalization** — the histogram is clipped at a
  multiple of the uniform bin height before the cumulative transform is
  built.  This bounds the slope of the transformation and therefore the
  amount of contrast amplification, trading a slightly less uniform target
  histogram for a gentler transform (the global version of CLAHE's clip
  limit).
* **Bi-histogram equalization (BBHE)** — the histogram is split at the image
  mean and the two halves are equalized independently into the lower and
  upper halves of the target range.  This preserves the mean brightness of
  the image, which plain equalization does not.

Every variant returns the same :class:`~repro.core.equalization.GHEResult`
record, so the PLC step, the driver programming and all experiments work
unchanged.  The ``abl-eq`` ablation benchmark compares them.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core.equalization import GHEResult, equalization_objective, equalize_histogram
from repro.core.histogram import CumulativeHistogram, Histogram
from repro.core.transforms import LUTTransform
from repro.imaging.image import Image

__all__ = [
    "clipped_equalization",
    "bi_histogram_equalization",
    "available_equalizers",
    "get_equalizer",
]

#: An equalizer maps (source, g_min, g_max) to a GHEResult.
Equalizer = Callable[..., GHEResult]


def _as_histogram(source: Image | Histogram) -> Histogram:
    return source if isinstance(source, Histogram) else Histogram.of_image(source)


def _result_from_lut(histogram: Histogram, output_levels: np.ndarray,
                     g_min: int, g_max: int) -> GHEResult:
    """Package a per-level output curve as a GHEResult (shared helper).

    ``output_levels`` holds the (continuous) output grayscale level for every
    input level; the transform keeps the continuous values (display rounding
    happens when the LUT is applied), while the objective is evaluated on the
    integer-rounded pushed-forward histogram, matching the GHE solver.
    """
    levels = histogram.levels
    continuous = np.clip(np.asarray(output_levels, dtype=np.float64),
                         0.0, levels - 1)
    # enforce monotonicity (numerical guard; all variants are monotone by
    # construction)
    continuous = np.maximum.accumulate(continuous)
    transform = LUTTransform._from_valid(continuous / (levels - 1))

    rounded = np.rint(continuous).astype(np.int64)
    transformed_counts = np.zeros(levels, dtype=np.int64)
    np.add.at(transformed_counts, rounded, histogram.counts)
    cumulative = CumulativeHistogram(np.cumsum(transformed_counts).astype(float))
    objective = equalization_objective(cumulative, g_min, g_max)
    return GHEResult(transform=transform, g_min=int(g_min), g_max=int(g_max),
                     objective=objective, source_histogram=histogram)


def _validate_range(levels: int, g_min: int, g_max: int) -> None:
    if not 0 <= g_min < g_max <= levels - 1:
        raise ValueError(
            f"need 0 <= g_min < g_max <= {levels - 1}, got ({g_min}, {g_max})")


# --------------------------------------------------------------------- #
# clipped (contrast-limited) equalization
# --------------------------------------------------------------------- #
def clipped_equalization(source: Image | Histogram, g_min: int, g_max: int,
                         clip_limit: float = 3.0) -> GHEResult:
    """Histogram equalization with a clipped histogram (bounded slope).

    The histogram is clipped at ``clip_limit`` times the mean bin height and
    the excess mass is redistributed uniformly over all bins before the
    cumulative transform of Eq. (5) is built.  ``clip_limit`` of 1.0 yields a
    purely linear compression (every bin equal); very large limits recover
    plain GHE.

    Parameters
    ----------
    source:
        Image or histogram to equalize.
    g_min, g_max:
        Target range limits (as in :func:`repro.core.equalization.equalize_histogram`).
    clip_limit:
        Maximum bin height as a multiple of the uniform bin height.
    """
    if clip_limit < 1.0:
        raise ValueError("clip_limit must be at least 1.0")
    histogram = _as_histogram(source)
    _validate_range(histogram.levels, g_min, g_max)

    counts = histogram.counts.astype(np.float64)
    ceiling = clip_limit * counts.mean()
    clipped = np.minimum(counts, ceiling)
    excess = counts.sum() - clipped.sum()
    # Redistribute the clipped-off mass over the bins that still have
    # headroom, iterating so no bin ends up above the ceiling (the classic
    # contrast-limited redistribution).  Any residual after the iterations is
    # spread uniformly; it is tiny and only occurs for extreme clip limits.
    for _ in range(16):
        if excess <= 1e-9:
            break
        headroom = ceiling - clipped
        open_bins = headroom > 1e-12
        if not np.any(open_bins):
            break
        share = excess / open_bins.sum()
        addition = np.minimum(headroom[open_bins], share)
        clipped[open_bins] += addition
        excess -= addition.sum()
    if excess > 1e-9:
        clipped += excess / counts.size

    cumulative = np.cumsum(clipped)
    normalized = cumulative / cumulative[-1]
    outputs = g_min + (g_max - g_min) * normalized
    return _result_from_lut(histogram, outputs, g_min, g_max)


# --------------------------------------------------------------------- #
# brightness-preserving bi-histogram equalization (BBHE)
# --------------------------------------------------------------------- #
def bi_histogram_equalization(source: Image | Histogram, g_min: int,
                              g_max: int) -> GHEResult:
    """Bi-histogram equalization: equalize below and above the mean separately.

    The input histogram is split at its mean level; the lower part is
    equalized into ``[g_min, g_split]`` and the upper part into
    ``[g_split, g_max]``, where ``g_split`` divides the target range in the
    same proportion as the mean divides the source range.  The transformed
    image therefore keeps (approximately) the source's relative mean
    brightness — the property plain equalization sacrifices.
    """
    histogram = _as_histogram(source)
    _validate_range(histogram.levels, g_min, g_max)

    counts = histogram.counts.astype(np.float64)
    levels = histogram.levels
    mean_level = int(np.clip(round(histogram.mean()), 1, levels - 2))

    lower_counts = counts[:mean_level + 1]
    upper_counts = counts[mean_level + 1:]

    # split the target range proportionally to the source mean position
    split_fraction = mean_level / (levels - 1)
    g_split = int(round(g_min + (g_max - g_min) * split_fraction))
    g_split = int(np.clip(g_split, g_min, g_max - 1))

    outputs = np.empty(levels, dtype=np.float64)
    if lower_counts.sum() > 0:
        lower_cdf = np.cumsum(lower_counts) / lower_counts.sum()
        outputs[:mean_level + 1] = g_min + (g_split - g_min) * lower_cdf
    else:
        outputs[:mean_level + 1] = g_min
    if upper_counts.sum() > 0:
        upper_cdf = np.cumsum(upper_counts) / upper_counts.sum()
        outputs[mean_level + 1:] = g_split + (g_max - g_split) * upper_cdf
    else:
        outputs[mean_level + 1:] = g_split
    return _result_from_lut(histogram, outputs, g_min, g_max)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_EQUALIZERS: Dict[str, Equalizer] = {
    "ghe": equalize_histogram,
    "clipped": clipped_equalization,
    "bbhe": bi_histogram_equalization,
}


def available_equalizers() -> list[str]:
    """Names of the registered equalization methods."""
    return sorted(_EQUALIZERS)


def get_equalizer(name: str) -> Equalizer:
    """Look up an equalization method by name (``ghe``, ``clipped``, ``bbhe``)."""
    try:
        return _EQUALIZERS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown equalization method {name!r}; available: "
            f"{available_equalizers()}") from None
