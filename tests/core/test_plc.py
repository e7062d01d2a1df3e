"""Unit tests for Piecewise Linear Coarsening (Eq. 8-9, Fig. 3)."""

import numpy as np
import pytest

from repro.core.equalization import equalize_histogram
from repro.core.plc import (
    PiecewiseLinearCurve,
    chord_error_matrix,
    coarsen_curve,
    coarsen_transform,
    kband_spreading_function,
    segment_error,
)
from repro.core.transforms import LUTTransform


def quadratic_curve(n: int = 65) -> PiecewiseLinearCurve:
    x = np.linspace(0, 255, n)
    y = (x / 255.0) ** 2 * 255.0
    return PiecewiseLinearCurve(tuple(x), tuple(y))


class TestCurve:
    def test_basic_properties(self):
        curve = PiecewiseLinearCurve((0.0, 128.0, 255.0), (0.0, 64.0, 255.0))
        assert curve.n_points == 3
        assert curve.n_segments == 2
        assert curve.is_monotone()
        assert np.allclose(curve.slopes(), [0.5, 191.0 / 127.0])

    def test_evaluation(self):
        curve = PiecewiseLinearCurve((0.0, 100.0), (0.0, 50.0))
        assert curve(50.0) == pytest.approx(25.0)
        assert curve(np.array([0.0, 100.0])).tolist() == [0.0, 50.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinearCurve((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match=">= 2 points"):
            PiecewiseLinearCurve((0.0,), (0.0,))
        with pytest.raises(ValueError, match="negative"):
            PiecewiseLinearCurve((0.0, 1.0), (0.0, 1.0), mean_squared_error=-1.0)

    def test_from_lut(self):
        lut = LUTTransform(tuple(np.linspace(0, 1, 256)))
        curve = PiecewiseLinearCurve.from_lut(lut)
        assert curve.n_points == 256
        assert curve.breakpoint_indices == tuple(range(256))
        assert curve(128.0) == pytest.approx(128.0)


class TestSegmentError:
    def test_zero_for_collinear_points(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [0.0, 2.0, 4.0, 6.0]
        assert segment_error(x, y, 0, 3) == pytest.approx(0.0)

    def test_known_value(self):
        # chord from (0,0) to (2,0); the middle point (1,1) deviates by 1
        assert segment_error([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 0, 2) == \
            pytest.approx(1.0)

    def test_invalid_indices(self):
        with pytest.raises(ValueError, match="chord indices"):
            segment_error([0.0, 1.0], [0.0, 1.0], 1, 1)

    def test_matrix_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.random(12)) * 100
        y = np.cumsum(rng.random(12))
        matrix = chord_error_matrix(x, y)
        for i in range(0, 12, 3):
            for j in range(i + 1, 12, 2):
                assert matrix[i, j] == pytest.approx(
                    segment_error(x, y, i, j), abs=1e-8)


class TestCoarsenCurve:
    def test_keeps_endpoints(self):
        curve = quadratic_curve()
        coarse = coarsen_curve(curve, 4)
        assert coarse.x[0] == curve.x[0]
        assert coarse.x[-1] == curve.x[-1]
        assert coarse.y[0] == curve.y[0]
        assert coarse.y[-1] == curve.y[-1]

    def test_breakpoints_subset_of_original(self):
        curve = quadratic_curve()
        coarse = coarsen_curve(curve, 5)
        original_points = set(zip(curve.x, curve.y))
        assert set(zip(coarse.x, coarse.y)) <= original_points

    def test_requested_segment_count(self):
        curve = quadratic_curve()
        for m in (1, 2, 3, 6, 10):
            assert coarsen_curve(curve, m).n_segments == m

    def test_error_decreases_with_more_segments(self):
        curve = quadratic_curve(n=129)
        errors = [coarsen_curve(curve, m).mean_squared_error
                  for m in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_exact_when_enough_segments(self):
        curve = PiecewiseLinearCurve((0.0, 50.0, 100.0, 255.0),
                                     (0.0, 10.0, 180.0, 255.0))
        coarse = coarsen_curve(curve, 3)
        assert coarse.mean_squared_error == pytest.approx(0.0)
        assert coarse.x == curve.x

    def test_more_segments_than_points_returns_curve(self):
        curve = PiecewiseLinearCurve((0.0, 100.0, 255.0), (0.0, 90.0, 255.0))
        coarse = coarsen_curve(curve, 10)
        assert coarse.x == curve.x
        assert coarse.mean_squared_error == 0.0

    def test_single_segment_is_end_to_end_chord(self):
        curve = quadratic_curve()
        coarse = coarsen_curve(curve, 1)
        assert coarse.n_points == 2
        assert coarse.x == (curve.x[0], curve.x[-1])

    def test_dp_is_optimal_against_brute_force(self):
        """The Eq. (9) dynamic program must match exhaustive search on a
        small instance."""
        from itertools import combinations
        rng = np.random.default_rng(11)
        x = np.arange(10, dtype=float)
        y = np.cumsum(rng.random(10)) * 20
        curve = PiecewiseLinearCurve(tuple(x), tuple(y))
        m = 3
        coarse = coarsen_curve(curve, m)

        best = np.inf
        for interior in combinations(range(1, 9), m - 1):
            indices = [0, *interior, 9]
            total = sum(segment_error(x, y, indices[k], indices[k + 1])
                        for k in range(m))
            best = min(best, total)
        assert coarse.mean_squared_error * 10 == pytest.approx(best, abs=1e-8)

    def test_monotone_input_gives_monotone_output(self, lena):
        ghe = equalize_histogram(lena, 0, 180)
        coarse = coarsen_transform(ghe.transform, 6)
        assert coarse.is_monotone()

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one segment"):
            coarsen_curve(quadratic_curve(), 0)


class TestKBandSpreadingFunction:
    def test_normalized_and_monotone(self, lena):
        ghe = equalize_histogram(lena, 0, 128)
        coarse = coarsen_transform(ghe.transform, 5)
        transform = kband_spreading_function(coarse)
        assert transform.is_monotone()
        assert 0.0 <= min(transform.y_breaks) <= max(transform.y_breaks) <= 1.0

    def test_tracks_the_coarse_curve(self, lena):
        ghe = equalize_histogram(lena, 0, 128)
        coarse = coarsen_transform(ghe.transform, 8)
        transform = kband_spreading_function(coarse)
        grid_levels = np.linspace(0, 255, 32)
        expected = np.asarray(coarse(grid_levels)) / 255.0
        actual = np.asarray(transform(grid_levels / 255.0))
        assert np.allclose(actual, expected, atol=0.02)

    def test_rejects_non_monotone_curve(self):
        curve = PiecewiseLinearCurve((0.0, 100.0, 255.0), (0.0, 200.0, 100.0))
        with pytest.raises(ValueError, match="monotone"):
            kband_spreading_function(curve)

    def test_approximation_error_matches_reported_mse(self, lena):
        """The reported PLC error is the mean squared vertical deviation at
        the original breakpoints."""
        ghe = equalize_histogram(lena, 0, 150)
        exact = PiecewiseLinearCurve.from_lut(ghe.transform)
        coarse = coarsen_curve(exact, 4)
        deviations = np.asarray(exact.y) - np.asarray(coarse(np.asarray(exact.x)))
        assert coarse.mean_squared_error == pytest.approx(
            float(np.mean(deviations**2)), rel=1e-6)


def _reference_chord_error_matrix(x, y):
    """The chord errors with every term, x-only ones included, per call."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    prefix = {name: np.concatenate([[0.0], np.cumsum(values)])
              for name, values in (("y", y), ("yy", y * y), ("x", x),
                                   ("xx", x * x), ("xy", x * y))}
    i_index, j_index = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    valid = j_index > i_index
    i, j = i_index[valid], j_index[valid]

    def window_sum(name):
        return prefix[name][j + 1] - prefix[name][i]

    count = (j - i + 1).astype(np.float64)
    sum_y, sum_yy = window_sum("y"), window_sum("yy")
    sum_x, sum_xx, sum_xy = window_sum("x"), window_sum("xx"), window_sum("xy")
    x_i, y_i, x_j, y_j = x[i], y[i], x[j], y[j]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = (y_j - y_i) / (x_j - x_i)
        sum_a2 = sum_yy - 2.0 * y_i * sum_y + count * y_i * y_i
        sum_b2 = sum_xx - 2.0 * x_i * sum_x + count * x_i * x_i
        sum_ab = sum_xy - x_i * sum_y - y_i * sum_x + count * x_i * y_i
        errors = sum_a2 - 2.0 * slope * sum_ab + slope * slope * sum_b2
    errors = np.where(j == i + 1, 0.0, errors)
    errors = np.where(np.isfinite(errors), errors, np.inf)
    matrix = np.zeros((n, n), dtype=np.float64)
    matrix[valid] = np.maximum(errors, 0.0)
    return matrix


def _reference_coarsening(curve, n_segments):
    """Eq. (9) with the i < j mask rebuilt in every step: returns the
    breakpoint indices and the mean squared error."""
    x, y = np.asarray(curve.x), np.asarray(curve.y)
    n = x.size
    errors = _reference_chord_error_matrix(x, y)
    cost = np.full((n, n_segments + 1), np.inf)
    parent = np.full((n, n_segments + 1), -1, dtype=np.int64)
    cost[0, 0] = 0.0
    for s in range(1, n_segments + 1):
        candidate = cost[:, s - 1][:, None] + errors
        candidate[np.tril_indices(n)] = np.inf
        parent[:, s] = np.argmin(candidate, axis=0)
        cost[:, s] = candidate[parent[:, s], np.arange(n)]
    final_costs = cost[n - 1, 1:]
    segments = int(np.argmin(final_costs)) + 1
    indices = [n - 1]
    for s in range(segments, 0, -1):
        indices.append(int(parent[indices[-1], s]))
    return tuple(reversed(indices)), float(final_costs[segments - 1]) / n


class TestMatchesRecomputingSolver:
    """The cached x-side terms and the once-built masked matrix change no
    bit of the result."""

    def _assert_identical(self, curve, n_segments):
        x, y = np.asarray(curve.x), np.asarray(curve.y)
        assert np.array_equal(chord_error_matrix(x, y),
                              _reference_chord_error_matrix(x, y))
        coarse = coarsen_curve(curve, n_segments)
        indices, mse = _reference_coarsening(curve, n_segments)
        assert coarse.breakpoint_indices == indices
        assert coarse.mean_squared_error == mse
        assert coarse.x == tuple(curve.x[k] for k in indices)
        assert coarse.y == tuple(curve.y[k] for k in indices)

    @pytest.mark.parametrize("target_range", [12, 90, 180, 255])
    def test_suite_luts(self, small_suite, target_range):
        for image in small_suite.values():
            ghe = equalize_histogram(image.to_grayscale(), 0, target_range)
            exact = PiecewiseLinearCurve.from_lut(ghe.transform)
            for n_segments in (1, 4, 8):
                self._assert_identical(exact, n_segments)

    def test_random_curves_with_non_integer_abscissae(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            x = np.cumsum(rng.uniform(0.01, 5.0, n)) - 3.0
            y = np.cumsum(rng.uniform(0.0, 8.0, n))
            curve = PiecewiseLinearCurve(tuple(x), tuple(y))
            for n_segments in (1, 2, 5, 8):
                if n_segments < n - 1:
                    self._assert_identical(curve, n_segments)

    def test_collinear_runs_break_ties_alike(self):
        # runs of collinear points give many zero-error chords, so the DP
        # meets exact ties and must resolve them as the reference does
        y = (0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        curve = PiecewiseLinearCurve(tuple(float(v) for v in range(12)), y)
        for n_segments in (1, 2, 3, 4, 6, 9):
            self._assert_identical(curve, n_segments)
        # two 3-chord subsets, through level 4 or level 5, tie exactly
        tied = PiecewiseLinearCurve(
            tuple(float(v) for v in range(7)),
            (1.0, 3.0, 4.0, 6.0, 6.0, 7.0, 9.0))
        self._assert_identical(tied, 3)
        assert coarsen_curve(tied, 3).breakpoint_indices == (0, 3, 4, 6)

    def test_near_coincident_abscissae(self):
        x = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 2.0, 2.0, 4.0])
        y = np.array([0.0, 0.5, 200.0, 201.0, 202.0, 260.0])
        assert np.array_equal(chord_error_matrix(x, y),
                              _reference_chord_error_matrix(x, y))
