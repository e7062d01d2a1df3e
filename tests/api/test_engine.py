"""Tests for the Engine facade: process, process_batch and the invariants."""

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm, available_algorithms
from repro.core.histogram import Histogram

SWEEP_BUDGETS = (2.0, 5.0, 10.0, 20.0, 30.0)


class TestProcess:
    def test_default_algorithm_is_hebs(self, lena):
        result = Engine().process(lena, 10.0)
        assert result.algorithm == "hebs"

    def test_per_call_algorithm_override(self, lena):
        engine = Engine()
        assert engine.process(lena, 10.0, algorithm="cbcs").algorithm == "cbcs"

    def test_engine_accepts_algorithm_instance(self, pipeline, lena):
        engine = Engine(HEBSAlgorithm(pipeline, adaptive=True))
        assert engine.process(lena, 10.0).algorithm == "hebs-adaptive"

    def test_negative_budget_rejected(self, lena):
        with pytest.raises(ValueError, match="non-negative"):
            Engine().process(lena, -1.0)

    def test_rgb_input_collapsed_to_grayscale(self, rgb_image):
        result = Engine().process(rgb_image, 10.0)
        assert result.output.is_grayscale

    def test_processed_counter(self, pipeline, lena, pout):
        engine = Engine(HEBSAlgorithm(pipeline))
        engine.process(lena, 10.0)
        engine.process_batch([lena, pout], 10.0)
        assert engine.processed == 3


class TestProcessBatch:
    def test_batch_equals_n_times_process(self, pipeline, small_suite):
        """The batched path must be indistinguishable from the loop."""
        images = list(small_suite.values())
        loop_engine = Engine(HEBSAlgorithm(pipeline))
        singles = [loop_engine.process(image, 10.0) for image in images]

        batch_engine = Engine(HEBSAlgorithm(pipeline))
        batched = batch_engine.process_batch(images, 10.0)

        assert len(batched) == len(singles)
        for single, member in zip(singles, batched):
            assert np.array_equal(single.output.pixels, member.output.pixels)
            assert member.backlight_factor == single.backlight_factor
            assert member.distortion == single.distortion
            assert member == single

    def test_batch_preserves_input_order(self, pipeline, small_suite):
        images = list(small_suite.values())
        results = Engine(HEBSAlgorithm(pipeline)).process_batch(images, 10.0)
        for image, result in zip(images, results):
            assert result.original == image.to_grayscale()

    def test_repeated_histograms_solved_once(self, pipeline, lena, pout):
        engine = Engine(HEBSAlgorithm(pipeline))
        results = engine.process_batch([lena, pout, lena, pout, lena], 10.0)
        # 2 distinct histograms -> 2 probes (both misses); the other 3
        # images replay the shared group solve without touching the cache
        stats = engine.cache_stats
        assert stats.misses == 2
        assert stats.hits == 0
        assert stats.replays == 3
        assert stats.lookups == 2
        assert sum(result.replayed for result in results) == 3
        assert not any(result.from_cache for result in results)

    def test_replays_do_not_skew_hit_rate(self, pipeline, lena, pout):
        """Regression: replay members used to issue synthetic cache probes,
        double-counting lookups and inflating hit_rate."""
        engine = Engine(HEBSAlgorithm(pipeline))
        engine.process_batch([lena, lena, lena, lena, pout], 10.0)
        stats = engine.cache_stats
        # a cold batch answered nothing from the cache: honest rate is 0
        assert stats.hit_rate == 0.0
        assert stats.reuse_rate == pytest.approx(3 / 5)
        # a second identical batch hits once per group, replays the rest
        engine.process_batch([lena, lena, lena, lena, pout], 10.0)
        stats = engine.cache_stats
        assert (stats.hits, stats.misses, stats.replays) == (2, 2, 6)

    def test_distinct_budgets_never_alias(self, pipeline, lena):
        """Regression: budgets were rounded to 6 decimals in the cache key,
        collapsing distinct budgets onto one cached solution."""
        engine = Engine(HEBSAlgorithm(pipeline))
        engine.process(lena, 10.0)
        close = engine.process(lena, 10.0 + 1e-9)
        assert not close.from_cache
        assert engine.cache_stats.misses == 2
        # the exact same budget still hits
        assert engine.process(lena, 10.0).from_cache

    def test_reconfigured_instance_invalidates_stale_solutions(self, lena):
        """Regression: the cache keys on the algorithm *name*, so adopting a
        differently configured instance under an existing name used to
        replay the previous configuration's cached solutions."""
        from repro.bench.suite import default_pipeline
        from repro.core.pipeline import HEBSConfig

        first = HEBSAlgorithm(default_pipeline())
        second = HEBSAlgorithm(default_pipeline(config=HEBSConfig(g_min=32)))
        assert first.name == second.name == "hebs"
        engine = Engine(first)
        baseline = engine.process(lena, 10.0)
        reconfigured = engine.process(lena, 10.0, algorithm=second)
        assert not reconfigured.from_cache
        expected = second.compensate(lena, 10.0)
        assert reconfigured.backlight_factor == expected.backlight_factor
        assert np.array_equal(reconfigured.output.pixels,
                              expected.output.pixels)
        assert baseline.backlight_factor != reconfigured.backlight_factor

    def test_cache_disabled_batch_still_groups(self, pipeline, lena, pout):
        """Regression: with cache_size=0 the batch path skipped histogram
        grouping entirely and re-solved every duplicate."""
        solves = []
        algo = HEBSAlgorithm(pipeline)
        original_solve = algo.solve

        def counting_solve(image, max_distortion):
            solves.append(image)
            return original_solve(image, max_distortion)

        algo.solve = counting_solve
        engine = Engine(algo, cache_size=0)
        results = engine.process_batch([lena, pout, lena, lena, pout], 10.0)
        assert len(solves) == 2                  # one solve per histogram
        assert engine.cache_stats.lookups == 0   # nothing probed a cache
        assert not any(result.from_cache for result in results)
        assert sum(result.replayed for result in results) == 3

    def test_cache_disabled_grouping_is_exact(self, pipeline):
        """With caching disabled, grouping keys on the exact histogram, not
        the quantized signature: two images whose histograms differ below
        the signature's fixed-point resolution must be solved separately
        (the signature tolerance is the caching approximation, which a
        cache-disabled engine opted out of)."""
        from repro.api.cache import histogram_signature
        from repro.core.histogram import Histogram
        from repro.imaging.image import Image

        flat = np.full((128, 64), 10, dtype=np.uint8)
        tweaked = flat.copy()
        tweaked[0, 0] = 200                      # 1 of 8192 pixels moved
        a, b = Image(flat, name="a"), Image(tweaked, name="b")
        assert histogram_signature(Histogram.of_image(a)) \
            == histogram_signature(Histogram.of_image(b))

        solves = []
        algo = HEBSAlgorithm(pipeline)
        original_solve = algo.solve

        def counting_solve(image, max_distortion):
            solves.append(image)
            return original_solve(image, max_distortion)

        algo.solve = counting_solve
        engine = Engine(algo, cache_size=0)
        results = engine.process_batch([a, b], 10.0)
        assert len(solves) == 2
        assert not any(result.replayed for result in results)

    def test_empty_batch(self, pipeline):
        assert Engine(HEBSAlgorithm(pipeline)).process_batch([], 10.0) == []


class TestCachedSolution:
    def test_returns_the_cached_solution_and_counts_only_hits(self, pipeline,
                                                              lena):
        engine = Engine(HEBSAlgorithm(pipeline))
        histogram = Histogram.of_image(lena.to_grayscale())
        assert engine.cached_solution(histogram, 10.0) is None
        assert engine.cache_stats.lookups == 0      # a miss counts nothing
        solution = engine.solve(histogram, 10.0)
        assert engine.cached_solution(histogram, 10.0) is solution
        assert engine.cached_solution(histogram, 10.0,
                                      algorithm="hebs") is solution
        assert engine.cached_solution(histogram, 20.0) is None
        stats = engine.cache_stats
        assert (stats.hits, stats.misses) == (2, 1)

    def test_never_instantiates_an_algorithm_or_solves(self, pipeline, lena,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cached_solution instantiated an algorithm")

        monkeypatch.setattr("repro.api.engine.create", refuse)
        histogram = Histogram.of_image(lena.to_grayscale())
        engine = Engine(HEBSAlgorithm(pipeline))
        assert engine.cached_solution(histogram, 10.0,
                                      algorithm="cbcs") is None
        assert engine.cached_solution(histogram, -1.0) is None
        uncached = Engine(HEBSAlgorithm(pipeline), cache_size=0)
        uncached.solve(histogram, 10.0)
        assert uncached.cached_solution(histogram, 10.0) is None
        assert engine.cache_stats.lookups == 0


def _count_measure(pipeline):
    """Wrap the pipeline's distortion measure; returns the call log."""
    measure, calls = pipeline._measure, []

    def counted(original, candidate):
        calls.append(1)
        return measure(original, candidate)

    pipeline._measure = counted
    return calls


class TestAdaptiveHandoff:
    """A cold ``hebs-adaptive`` solve ends on an exact probe of the request's
    pixels; the engine takes that result instead of re-applying and
    re-measuring the chosen LUT."""

    @pytest.mark.parametrize("budget", [0.0, 5.0, 10.0, 20.0])
    def test_cold_process_measures_once_less(self, pipeline, small_suite,
                                             budget):
        for image in small_suite.values():
            solver = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
            calls = _count_measure(solver.pipeline)
            solution = solver.solve(image, budget)
            searched = len(calls)
            expected = solver.apply_solution(solution, image, budget)
            assert len(calls) == searched + 1

            algorithm = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
            calls = _count_measure(algorithm.pipeline)
            served = Engine(algorithm).process(image, budget)
            assert len(calls) == searched
            assert served == expected
            assert np.array_equal(served.output.pixels,
                                  expected.output.pixels)
            assert served.distortion == expected.distortion

    def test_batch_hands_off_to_the_first_group_member_only(self, pipeline,
                                                            lena, pout):
        searched = 0
        for image in (lena, pout):
            solver = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
            calls = _count_measure(solver.pipeline)
            solver.solve(image, 10.0)
            searched += len(calls)

        algorithm = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
        calls = _count_measure(algorithm.pipeline)
        images = [lena, pout, lena, lena]
        batch = Engine(algorithm, cache_size=0).process_batch(images, 10.0)
        # the first member of each group takes its search's last probe;
        # the two later lena members re-apply and re-measure
        assert len(calls) == searched + 2
        assert [result.replayed for result in batch] == [False, False,
                                                         True, True]
        for handed_off, replayed in ((batch[0], batch[2]),
                                     (batch[0], batch[3])):
            assert handed_off == replayed
            assert np.array_equal(handed_off.output.pixels,
                                  replayed.output.pixels)
            assert handed_off.distortion == replayed.distortion

    def test_takes_only_the_solved_pair_once(self, pipeline, lena, pout):
        algorithm = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
        solution = algorithm.solve(lena, 10.0)
        assert algorithm.take_solved_result(solution, pout) is None
        # spent by the miss above
        assert algorithm.take_solved_result(solution, lena) is None
        solution = algorithm.solve(lena, 10.0)
        taken = algorithm.take_solved_result(solution, lena)
        assert taken == algorithm.apply_solution(solution, lena, 10.0)
        assert algorithm.take_solved_result(solution, lena) is None

    def test_solve_without_apply_keeps_nothing(self, pipeline, lena):
        """``Engine.solve`` and ``prime`` never apply; the solve's measured
        result must not outlive them on the solving thread."""
        algorithm = HEBSAlgorithm(pipeline.with_config(), adaptive=True)
        engine = Engine(algorithm)
        engine.solve(Histogram.of_image(lena.to_grayscale()), 10.0)
        assert getattr(algorithm._solved, "last", None) is None
        assert engine.prime(lena, 5.0)
        assert getattr(algorithm._solved, "last", None) is None


class TestSolveBatch:
    def test_applying_the_frames_is_process_batch(self, pipeline, lena,
                                                  pout):
        images = [lena, pout, lena]
        expected = Engine(HEBSAlgorithm(pipeline)).process_batch(images,
                                                                 10.0)
        engine = Engine(HEBSAlgorithm(pipeline))
        algorithm = engine.algorithm()
        applied = []
        apply_solution = algorithm.apply_solution
        algorithm.apply_solution = lambda *args, **kwargs: applied.append(
            1) or apply_solution(*args, **kwargs)
        frames = engine.solve_batch(images, 10.0)
        assert not applied and engine.processed == 0
        assert [frame.replayed for frame in frames] == [False, False, True]
        assert frames[2].solution is frames[0].solution
        results = [frame.apply(algorithm, 10.0) for frame in frames]
        assert results == expected
        assert [result.replayed for result in results] == [
            result.replayed for result in expected]
        assert engine.solve_batch([lena], 10.0)[0].from_cache
        with pytest.raises(ValueError):
            engine.solve_batch([lena], -1.0)


class TestInvariantSweep:
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_invariants_hold_across_budgets(self, name, small_suite):
        """0 < beta <= 1 and distortion >= 0 for every (algorithm, budget,
        image) operating point reachable through the engine."""
        engine = Engine(algorithm=name)
        for budget in SWEEP_BUDGETS:
            for image in small_suite.values():
                result = engine.process(image, budget)
                assert 0.0 < result.backlight_factor <= 1.0, (name, budget)
                assert result.distortion >= 0.0, (name, budget)
                assert result.power.total >= 0.0, (name, budget)
                assert result.max_distortion == budget

    def test_saving_monotone_in_budget_for_hebs(self, pipeline, lena):
        engine = Engine(HEBSAlgorithm(pipeline))
        savings = [engine.process(lena, budget).power_saving_percent
                   for budget in SWEEP_BUDGETS]
        assert savings == sorted(savings)
