"""One PLC solve per histogram: ``HEBS.solve_range`` reuses the breakpoints.

The equalization LUT of ``ghe`` and ``clipped`` is affine in the target
range, so Eq. (9)'s optimal breakpoints do not depend on it: the pipeline
solves the DP once per histogram, on the widest range, and evaluates that
breakpoint list on each requested range's LUT.  These tests hold the result
to the per-range DP it replaces, with ``==``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import pipeline as pipeline_module
from repro.core.equalization import equalization_transform
from repro.core.histogram import Histogram
from repro.core.pipeline import HEBS, HEBSConfig
from repro.core.plc import (
    coarsen_through,
    coarsen_transform,
    kband_spreading_function,
)
from repro.core.transforms import LUTTransform

LEVELS = 256


def _curve_fields(curve):
    return (curve.x, curve.y, curve.mean_squared_error,
            curve.breakpoint_indices)


@pytest.fixture(scope="module")
def suite_histograms(full_suite) -> dict[str, Histogram]:
    return {name: Histogram.of_image(image.to_grayscale())
            for name, image in full_suite.items()}


@pytest.fixture
def count_plc(monkeypatch):
    """Count the pipeline's calls to its PLC entry point."""
    calls = []

    def counted(transform, n_segments):
        calls.append(n_segments)
        return coarsen_transform(transform, n_segments)

    monkeypatch.setattr(pipeline_module, "coarsen_transform", counted)
    return calls


def _synthetic_histograms(count: int, seed: int = 3) -> list[Histogram]:
    rng = np.random.default_rng(seed)
    return [Histogram(rng.integers(0, 50, size=LEVELS) + 1)
            for _ in range(count)]


class TestMatchesPerRangeDP:
    @pytest.mark.parametrize("n_segments", [4, 8])
    @pytest.mark.parametrize("g_min", [0, 16])
    @pytest.mark.parametrize("equalization", ["ghe", "clipped"])
    def test_every_range_on_the_suite(self, characteristic_curve,
                                      suite_histograms, equalization, g_min,
                                      n_segments):
        hebs = HEBS(characteristic_curve,
                    HEBSConfig(n_segments=n_segments, g_min=g_min,
                               equalization=equalization))
        for histogram in suite_histograms.values():
            for target_range in range(1, LEVELS - g_min):
                solution = hebs.solve_range(histogram, target_range)
                per_range = coarsen_transform(solution.ghe.transform,
                                              n_segments)
                assert _curve_fields(solution.coarse_curve) == \
                    _curve_fields(per_range), target_range

    def test_bbhe_keeps_its_per_range_dp(self, characteristic_curve,
                                         suite_histograms, count_plc):
        hebs = HEBS(characteristic_curve, HEBSConfig(equalization="bbhe"))
        solves = 0
        for histogram in suite_histograms.values():
            for target_range in range(1, LEVELS, 9):
                solution = hebs.solve_range(histogram, target_range)
                per_range = coarsen_transform(solution.ghe.transform, 8)
                assert _curve_fields(solution.coarse_curve) == \
                    _curve_fields(per_range)
                solves += 1
        assert len(count_plc) == solves      # one DP per solve, no reuse

    def test_through_the_dp_breakpoints_is_the_dp(self, suite_histograms):
        """``coarsen_through`` on the DP's own breakpoints reproduces it."""
        for histogram in suite_histograms.values():
            for target_range in (1, 37, 128, 255):
                lut = equalization_transform(histogram, 0, target_range)
                for n_segments in (1, 3, 8, 255):
                    solved = coarsen_transform(lut, n_segments)
                    assert _curve_fields(coarsen_through(
                        lut, solved.breakpoint_indices)) == \
                        _curve_fields(solved)

    def test_through_rejects_bad_breakpoints(self):
        lut = LUTTransform(tuple(np.linspace(0.0, 1.0, 8)))
        for indices in ((0,), (1, 7), (0, 6), (0, 4, 4, 7), (0, 5, 3, 7)):
            with pytest.raises(ValueError, match="breakpoint indices"):
                coarsen_through(lut, indices)


class TestBreakpointMemo:
    def test_one_dp_serves_every_range_of_a_histogram(
            self, characteristic_curve, lena, count_plc):
        hebs = HEBS(characteristic_curve)
        histogram = Histogram.of_image(lena)
        for target_range in (40, 255, 128, 1):
            hebs.solve_range(histogram, target_range)
        assert len(count_plc) == 1
        hebs.solve_range(Histogram.of_image(lena.to_grayscale()), 77)
        assert len(count_plc) == 1           # equal counts, same entry

    def test_a_new_histogram_misses(self, characteristic_curve, lena, pout,
                                    count_plc):
        hebs = HEBS(characteristic_curve)
        hebs.solve_range(lena, 100)
        hebs.solve_range(pout, 100)
        hebs.solve_range(lena, 60)
        assert len(count_plc) == 2

    def test_least_recently_used_is_evicted(self, characteristic_curve,
                                            count_plc):
        capacity = pipeline_module._BREAKPOINT_CAPACITY
        histograms = _synthetic_histograms(capacity + 1)
        hebs = HEBS(characteristic_curve)
        for histogram in histograms[:capacity]:
            hebs.solve_range(histogram, 90)
        assert len(count_plc) == capacity
        hebs.solve_range(histograms[0], 91)  # a hit refreshes the first
        assert len(count_plc) == capacity
        hebs.solve_range(histograms[capacity], 90)   # evicts the second
        assert len(count_plc) == capacity + 1
        hebs.solve_range(histograms[0], 92)
        assert len(count_plc) == capacity + 1
        hebs.solve_range(histograms[1], 92)
        assert len(count_plc) == capacity + 2

    def test_pipelines_do_not_share_entries(self, characteristic_curve, lena,
                                            count_plc):
        HEBS(characteristic_curve).solve_range(lena, 100)
        HEBS(characteristic_curve, HEBSConfig(n_segments=4)).solve_range(
            lena, 100)
        assert count_plc == [8, 4]

    def test_arrival_order_does_not_matter(self, characteristic_curve):
        # two occupied levels: a staircase LUT on which several breakpoint
        # lists are exact, so DPs at different ranges break the tie apart
        counts = np.zeros(LEVELS, dtype=np.int64)
        counts[80], counts[251] = 214, 698
        histogram = Histogram(counts)
        ranges = (255, 17, 128, 64, 200)
        widest = HEBS(characteristic_curve).solve_range(histogram, 255)
        at_17 = HEBS(characteristic_curve).solve_range(histogram, 17)
        assert coarsen_transform(at_17.ghe.transform, 8).breakpoint_indices \
            != widest.coarse_curve.breakpoint_indices
        forward = HEBS(characteristic_curve)
        backward = HEBS(characteristic_curve)
        first = {r: forward.solve_range(histogram, r) for r in ranges}
        second = {r: backward.solve_range(histogram, r)
                  for r in reversed(ranges)}
        for target_range in ranges:
            assert _curve_fields(first[target_range].coarse_curve) == \
                _curve_fields(second[target_range].coarse_curve)
            assert first[target_range].coarse_curve.breakpoint_indices == \
                widest.coarse_curve.breakpoint_indices

    def test_threads_interleaving_histograms_get_the_serial_curves(
            self, characteristic_curve, small_suite):
        histograms = [Histogram.of_image(image.to_grayscale())
                      for image in small_suite.values()]
        histograms += _synthetic_histograms(4, seed=5)
        jobs = [(index, target_range)
                for index in range(len(histograms))
                for target_range in (255, 200, 150, 100, 60, 20)]
        serial = HEBS(characteristic_curve)
        expected = {job: _curve_fields(serial.solve_range(
            histograms[job[0]], job[1]).coarse_curve) for job in jobs}

        shared = HEBS(characteristic_curve)
        results: dict[int, list] = {}
        errors = []
        barrier = threading.Barrier(4)

        def worker(offset: int) -> None:
            try:
                barrier.wait(timeout=30.0)
                # every thread solves every job, each in its own order
                shuffle = np.random.default_rng(offset).permutation(len(jobs))
                order = [jobs[index] for index in shuffle]
                results[offset] = [
                    (job, _curve_fields(shared.solve_range(
                        histograms[job[0]], job[1]).coarse_curve))
                    for job in order]
            except Exception as error:       # surfaced by the assertion
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(results) == [0, 1, 2, 3]
        for outcome in results.values():
            for job, fields in outcome:
                assert fields == expected[job]
        assert dict(shared._breakpoints) == dict(serial._breakpoints)


def _adaptive_search_before_reuse(hebs: HEBS, image, max_distortion: float,
                                  range_tolerance: int = 2) -> int:
    """The range ``process_adaptive`` selected when every probe ran its own
    PLC dynamic program (a test-local copy of the search as it was)."""

    def probe(target_range: int) -> float:
        grayscale = image.to_grayscale()
        histogram = Histogram.of_image(grayscale)
        ghe = hebs._equalizer(histogram, hebs.config.g_min,
                              hebs.config.g_min + target_range)
        coarse = coarsen_transform(ghe.transform, hebs.config.n_segments)
        transform = kband_spreading_function(coarse, levels=grayscale.levels)
        return float(hebs._measure(grayscale, transform.apply(grayscale)))

    full_range = hebs.curve.levels - 1 - hebs.config.g_min
    if probe(full_range) > max_distortion:
        return full_range
    low, high = 1, full_range
    while high - low > range_tolerance:
        middle = (low + high) // 2
        if probe(middle) <= max_distortion:
            high = middle
        else:
            low = middle
    return high


class TestAdaptiveSearch:
    @pytest.mark.parametrize("budget", [5.0, 10.0, 20.0])
    def test_keeps_the_bracket_near_the_old_range(self, characteristic_curve,
                                                  full_suite, budget):
        """The steered search probes elsewhere than the bisection, so it can
        land on another range.  It keeps the budget and the bracket, and on
        the suite it lands at most one level from the bisection's range
        (33 of the 57 (image, budget) pairs move, each by one level)."""
        hebs = HEBS(characteristic_curve)
        for name, image in full_suite.items():
            result = hebs.process_adaptive(image, budget)
            selected = result.target_range
            assert result.distortion <= budget, name
            assert selected <= 3 or any(
                hebs.process_with_range(image, below).distortion > budget
                for below in (selected - 1, selected - 2)), name
            assert abs(selected - _adaptive_search_before_reuse(
                hebs, image, budget)) <= 1, name
