"""Property-based tests (hypothesis) for the core data structures and invariants.

These tests exercise the algorithmic core on arbitrary (but valid) inputs:
histograms with any shape, images with any content, arbitrary monotone
curves, and arbitrary model parameters.  The invariants they pin down are the
ones the paper's correctness rests on:

* GHE always produces a monotone transformation bounded by ``[g_min, g_max]``.
* PLC keeps the endpoints, picks a subset of the breakpoints and never does
  worse with more segments.
* Every pixel transformation of the Fig. 2 family is monotone and bounded.
* The CCFL model is continuous and non-decreasing; power saving is in [0, 1).
* The effective distortion is zero for identical images and non-negative.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.equalization import equalization_transform, equalize_histogram
from repro.core.histogram import Histogram, uniform_cumulative
from repro.core.pipeline import HEBS, HEBSConfig
from repro.core.plc import (
    PiecewiseLinearCurve,
    chord_error_matrix,
    coarsen_curve,
    coarsen_transform,
    segment_error,
)
from repro.core.transforms import (
    GrayscaleShiftTransform,
    GrayscaleSpreadTransform,
    SingleBandSpreadTransform,
)
from repro.display.ccfl import CCFLModel
from repro.display.driver import HierarchicalDriver
from repro.imaging.image import Image
from repro.quality.distortion import effective_distortion
from repro.quality.uqi import universal_quality_index

# ----------------------------------------------------------------------- #
# strategies
# ----------------------------------------------------------------------- #
histogram_counts = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=8, max_value=256),
    elements=st.integers(min_value=0, max_value=1000),
).filter(lambda counts: counts.sum() > 0)

small_images = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(12, 24), st.integers(12, 24)),
    elements=st.integers(min_value=0, max_value=255),
).map(lambda pixels: Image(pixels))

betas = st.floats(min_value=0.05, max_value=1.0, allow_nan=False,
                  allow_infinity=False)

monotone_curves = st.lists(
    st.tuples(st.floats(0, 255, allow_nan=False),
              st.floats(0, 255, allow_nan=False)),
    min_size=4, max_size=40,
).map(lambda points: (
    np.unique(np.asarray([p[0] for p in points])),
    np.asarray([p[1] for p in points]),
)).filter(lambda xy: xy[0].size >= 4).map(lambda xy: PiecewiseLinearCurve(
    tuple(xy[0]),
    tuple(np.sort(xy[1])[: xy[0].size]),
))


# ----------------------------------------------------------------------- #
# GHE properties
# ----------------------------------------------------------------------- #
@given(counts=histogram_counts,
       limits=st.tuples(st.integers(0, 100), st.integers(101, 255)))
@settings(max_examples=60, deadline=None)
def test_ghe_transform_monotone_and_bounded(counts, limits):
    histogram = Histogram(counts)
    g_min_raw, g_max_raw = limits
    levels = histogram.levels
    g_min = min(g_min_raw, levels - 2)
    g_max = min(g_max_raw, levels - 1)
    assume(g_min < g_max)
    transform = equalization_transform(histogram, g_min, g_max)
    outputs = np.asarray(transform.table) * (levels - 1)
    assert np.all(np.diff(outputs) >= -1e-9)
    assert outputs.min() >= g_min - 0.5
    assert outputs.max() <= g_max + 0.5


@given(image=small_images, target_range=st.integers(16, 255))
@settings(max_examples=40, deadline=None)
def test_ghe_applied_image_respects_range(image, target_range):
    result = equalize_histogram(image, 0, target_range)
    transformed = result.apply(image)
    assert transformed.max() <= target_range
    assert transformed.min() >= 0


@given(counts=histogram_counts)
@settings(max_examples=40, deadline=None)
def test_uniform_target_is_a_valid_cumulative_histogram(counts):
    histogram = Histogram(counts)
    target = uniform_cumulative(histogram.levels, histogram.n_pixels,
                                0, histogram.levels - 1)
    values = target.values
    assert np.all(np.diff(values) >= -1e-9)
    assert values[-1] == histogram.n_pixels


# ----------------------------------------------------------------------- #
# PLC properties
# ----------------------------------------------------------------------- #
@given(curve=monotone_curves, n_segments=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_plc_keeps_endpoints_and_subsets_breakpoints(curve, n_segments):
    coarse = coarsen_curve(curve, n_segments)
    assert coarse.x[0] == curve.x[0]
    assert coarse.x[-1] == curve.x[-1]
    assert coarse.y[0] == curve.y[0]
    assert coarse.y[-1] == curve.y[-1]
    assert set(zip(coarse.x, coarse.y)) <= set(zip(curve.x, curve.y))
    assert coarse.n_segments <= max(n_segments, 1)
    assert coarse.mean_squared_error >= 0.0


@given(curve=monotone_curves)
@settings(max_examples=30, deadline=None)
def test_plc_error_non_increasing_in_segment_count(curve):
    errors = [coarsen_curve(curve, m).mean_squared_error for m in (1, 2, 4, 8)]
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + 1e-9


@given(curve=monotone_curves, n_segments=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_plc_of_monotone_curve_is_monotone(curve, n_segments):
    assert coarsen_curve(curve, n_segments).is_monotone()


#: Monotone curves on non-integer abscissae: x steps in [0.5, 10] and y
#: steps in [0, 10], so chord slopes stay within [0, 20].
fractional_curves = st.tuples(
    st.floats(-50.0, 50.0),
    st.floats(0.0, 50.0),
    st.lists(st.tuples(st.floats(0.5, 10.0), st.floats(0.0, 10.0)),
             min_size=1, max_size=20),
).map(lambda spec: PiecewiseLinearCurve(
    tuple(spec[0] + np.cumsum([0.0] + [step[0] for step in spec[2]])),
    tuple(spec[1] + np.cumsum([0.0] + [step[1] for step in spec[2]])),
))


def _round_off(curve: PiecewiseLinearCurve) -> float:
    """Tolerance for the prefix-sum chord errors against the direct sums:
    they cancel terms as large as ``n * (y^2 + slope^2 x^2)``."""
    x, y = np.abs(curve.x), np.abs(curve.y)
    magnitude = len(x) * (np.max(y) ** 2 + 20.0**2 * np.max(x) ** 2)
    return 64 * np.finfo(np.float64).eps * magnitude


@given(curve=fractional_curves)
@settings(max_examples=60, deadline=None)
def test_chord_error_matrix_matches_segment_error(curve):
    matrix = chord_error_matrix(np.asarray(curve.x), np.asarray(curve.y))
    n = curve.n_points
    tolerance = _round_off(curve)
    for i in range(n):
        for j in range(n):
            if i < j:
                assert abs(matrix[i, j]
                           - segment_error(curve.x, curve.y, i, j)) <= tolerance
            else:
                assert matrix[i, j] == 0.0


@given(curve=fractional_curves, n_segments=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_plc_matches_brute_force_dp_on_segment_error(curve, n_segments):
    """Eq. (9) solved with the direct chord errors of ``segment_error``:
    the best total over at most ``n_segments`` chords."""
    n = curve.n_points
    cost = np.full((n, n_segments + 1), np.inf)
    cost[0, 0] = 0.0
    for s in range(1, n_segments + 1):
        for j in range(1, n):
            cost[j, s] = min(cost[i, s - 1]
                             + segment_error(curve.x, curve.y, i, j)
                             for i in range(j))
    best = float(np.min(cost[n - 1, 1:]))

    coarse = coarsen_curve(curve, n_segments)
    indices = coarse.breakpoint_indices
    tolerance = n_segments * _round_off(curve)
    assert indices[0] == 0 and indices[-1] == n - 1
    assert len(indices) - 1 <= n_segments
    assert abs(coarse.mean_squared_error * n - best) <= tolerance
    achieved = sum(segment_error(curve.x, curve.y, start, end)
                   for start, end in zip(indices, indices[1:]))
    assert abs(achieved - best) <= tolerance


#: 256-level histograms with 2 to 40 occupied levels: their equalization
#: LUTs are staircases with long flat runs, where the PLC faces exact ties.
sparse_histograms = st.integers(2, 40).flatmap(lambda occupied: st.tuples(
    st.lists(st.integers(0, 255), min_size=occupied, max_size=occupied,
             unique=True),
    st.lists(st.integers(1, 1000), min_size=occupied, max_size=occupied),
)).map(lambda spec: Histogram(np.bincount(spec[0], weights=spec[1],
                                          minlength=256).astype(np.int64)))


@given(histogram=sparse_histograms, data=st.data(),
       equalization=st.sampled_from(["ghe", "clipped"]),
       g_min=st.sampled_from([0, 16]), n_segments=st.sampled_from([4, 8]))
@settings(max_examples=60, deadline=None)
def test_reused_breakpoints_are_optimal_at_every_range(
        characteristic_curve, histogram, data, equalization, g_min,
        n_segments):
    """The breakpoints solved on the widest range are optimal at any range.

    At an exact tie the per-range DP may pick another breakpoint list, so
    only the errors are compared.  Every chord error cancels sums as large
    as ``levels * (levels - 1)**2`` (both ``sum a_k^2`` and
    ``slope^2 sum b_k^2``, because a chord rises by at most ``levels - 1``),
    and each of the two totals sums at most ``n_segments`` of them.
    """
    hebs = HEBS(characteristic_curve,
                HEBSConfig(n_segments=n_segments, g_min=g_min,
                           equalization=equalization))
    levels = histogram.levels
    target_range = data.draw(st.integers(1, levels - 1 - g_min))
    solution = hebs.solve_range(histogram, target_range)
    optimum = coarsen_transform(solution.ghe.transform, n_segments)
    tolerance = (2 * n_segments * 64 * np.finfo(np.float64).eps
                 * levels * (levels - 1) ** 2)
    assert abs(solution.coarse_curve.mean_squared_error
               - optimum.mean_squared_error) * levels <= tolerance


# ----------------------------------------------------------------------- #
# pixel-transformation properties (Fig. 2 family)
# ----------------------------------------------------------------------- #
@given(beta=betas)
@settings(max_examples=50, deadline=None)
def test_fig2_transforms_monotone_and_bounded(beta):
    x = np.linspace(0.0, 1.0, 101)
    for transform in (GrayscaleShiftTransform(beta),
                      GrayscaleSpreadTransform(beta),
                      SingleBandSpreadTransform.from_backlight_factor(beta)):
        y = np.asarray(transform(x))
        assert np.all(np.diff(y) >= -1e-12)
        assert y.min() >= 0.0
        assert y.max() <= 1.0


@given(beta=betas, x=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_contrast_enhancement_preserves_luminance_below_beta(beta, x):
    """Eq. 2b compensation: beta * Phi(x) == x for x <= beta."""
    assume(x <= beta)
    transform = GrayscaleSpreadTransform(beta)
    assert beta * float(transform(x)) == np.clip(x, 0, beta) or \
        abs(beta * float(transform(x)) - x) < 1e-9


# ----------------------------------------------------------------------- #
# display-model properties
# ----------------------------------------------------------------------- #
@given(knee=st.floats(0.3, 0.95), lin=st.floats(0.5, 4.0),
       sat=st.floats(4.0, 10.0), intercept=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_ccfl_model_continuous_and_monotone(knee, lin, sat, intercept):
    model = CCFLModel(saturation_knee=knee, linear_slope=lin,
                      linear_intercept=intercept, saturated_slope=sat,
                      min_factor=0.0)
    below = model.power(knee - 1e-9)
    above = model.power(knee + 1e-9)
    assert abs(below - above) < 1e-6
    betas = np.linspace(0.0, 1.0, 64)
    assert np.all(np.diff(model.power(betas)) >= -1e-9)


@given(beta=betas)
@settings(max_examples=50, deadline=None)
def test_ccfl_power_saving_in_unit_interval(beta):
    model = CCFLModel()
    saving = model.power_saving(beta)
    assert 0.0 <= saving < 1.0


@given(beta=betas,
       y_values=st.lists(st.floats(0, 255, allow_nan=False), min_size=2,
                         max_size=9))
@settings(max_examples=60, deadline=None)
def test_driver_program_voltages_bounded_and_monotone(beta, y_values):
    driver = HierarchicalDriver(n_sources=8)
    y = np.sort(np.asarray(y_values))
    x = np.linspace(0, 255, y.size)
    assume(np.all(np.diff(x) > 0))
    program = driver.program(x, y, beta)
    volts = program.reference_voltages
    assert np.all(np.diff(volts) >= -1e-9)
    assert volts.min() >= 0.0
    assert volts.max() <= driver.vdd + 1e-9
    lut = program.lut()
    assert np.all(np.diff(lut) >= -1e-9)


# ----------------------------------------------------------------------- #
# quality-measure properties
# ----------------------------------------------------------------------- #
@given(image=small_images)
@settings(max_examples=30, deadline=None)
def test_identity_is_distortion_free(image):
    assert effective_distortion(image, image, window=4) <= 1e-9
    assert universal_quality_index(image, image, window=4) == 1.0


@given(image=small_images, offset=st.integers(-80, 80))
@settings(max_examples=30, deadline=None)
def test_effective_distortion_nonnegative_and_finite(image, offset):
    shifted = image.with_pixels(np.clip(image.as_array().astype(int) + offset,
                                        0, 255))
    value = effective_distortion(image, shifted, window=4)
    assert np.isfinite(value)
    assert value >= 0.0
