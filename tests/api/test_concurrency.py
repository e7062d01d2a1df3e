"""Thread-safety hammer tests: one engine, many threads, serial-equal results.

The serving layer (:mod:`repro.serve`) rests on the engine being safely
shareable.  These tests hammer a single :class:`~repro.api.engine.Engine`
(and a single :class:`~repro.api.cache.SolutionCache`) from many threads
and assert the three contracts the docs promise: no lost updates in the
counters, internally consistent statistics, and bitwise-identical results
versus a serial run.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.api.cache import SolutionCache
from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm

BUDGETS = (5.0, 10.0, 20.0)
THREADS = 8
ROUNDS = 3


class TestEngineHammer:
    @pytest.fixture(scope="class")
    def serial_reference(self, pipeline, small_suite):
        """Expected output pixels/operating point per (image, budget)."""
        engine = Engine(HEBSAlgorithm(pipeline))
        return {
            (name, budget): engine.process(image, budget)
            for name, image in small_suite.items()
            for budget in BUDGETS
        }

    def test_hammer_shared_engine(self, pipeline, small_suite,
                                  serial_reference):
        engine = Engine(HEBSAlgorithm(pipeline))
        workload = [(name, image, budget)
                    for name, image in small_suite.items()
                    for budget in BUDGETS]
        barrier = threading.Barrier(THREADS)
        failures: list[str] = []
        lock = threading.Lock()

        def worker(offset: int) -> None:
            barrier.wait()
            # each thread walks the whole workload from its own offset so
            # every (image, budget) pair races across threads
            for round_index in range(ROUNDS):
                for step in range(len(workload)):
                    name, image, budget = workload[
                        (offset + step) % len(workload)]
                    result = engine.process(image, budget)
                    expected = serial_reference[(name, budget)]
                    if not np.array_equal(expected.output.pixels,
                                          result.output.pixels) \
                            or result.backlight_factor \
                            != expected.backlight_factor \
                            or result.distortion != expected.distortion:
                        with lock:
                            failures.append(f"{name}@{budget}")

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, f"results diverged from serial: {failures[:5]}"
        total = THREADS * ROUNDS * len(workload)
        # no lost updates in the processed counter
        assert engine.processed == total
        stats = engine.cache_stats
        # consistent stats: every process probed the cache exactly once
        # (a loser of a cold-solve race counts the winner's entry as its
        # hit), and only the one solve per key counted a miss
        assert stats.lookups == stats.hits + stats.misses
        assert stats.lookups == total
        assert stats.misses == len(workload)        # every key missed once
        assert stats.size == len(workload)          # one entry per key
        assert stats.evictions == 0
        assert stats.hits == stats.lookups - stats.misses

    def test_hammer_process_batch(self, pipeline, small_suite):
        """Concurrent batches over shared content: counters stay exact."""
        engine = Engine(HEBSAlgorithm(pipeline))
        images = list(small_suite.values()) * 2     # 8 images, 4 distinct
        outputs: list[list] = [None] * THREADS

        def worker(index: int) -> None:
            outputs[index] = engine.process_batch(images, 10.0)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        reference = outputs[0]
        for batch in outputs[1:]:
            for expected, actual in zip(reference, batch):
                assert np.array_equal(expected.output.pixels,
                                      actual.output.pixels)
        assert engine.processed == THREADS * len(images)
        stats = engine.cache_stats
        # every batch replays half its images (duplicates within the batch)
        assert stats.replays == THREADS * len(small_suite)
        assert stats.lookups == stats.hits + stats.misses

    def test_hammer_adaptive_handoff(self, pipeline, small_suite):
        """Cacheless ``hebs-adaptive``: every request solves on its own
        thread and takes its own search's last probe, never another
        thread's, under a one-microsecond switch interval."""
        algorithm = HEBSAlgorithm(pipeline, adaptive=True)
        images = list(small_suite.values())
        serial = Engine(HEBSAlgorithm(pipeline, adaptive=True), cache_size=0)
        expected = [serial.process(image, 10.0) for image in images]
        engine = Engine(algorithm, cache_size=0)
        outputs: dict[int, list] = {}

        def worker(offset: int) -> None:
            order = [(offset + step) % len(images)
                     for step in range(len(images))]
            outputs[offset] = [(k, engine.process(images[k], 10.0))
                               for k in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outputs) == list(range(6))
        for outcome in outputs.values():
            for k, result in outcome:
                assert result == expected[k]
                assert result.original is images[k].to_grayscale()
                assert np.array_equal(result.output.pixels,
                                      expected[k].output.pixels)

    def test_cold_solve_race_coalesces(self, pipeline, lena):
        """Threads racing on one cold histogram must share a single solve."""
        solves = []
        solve_lock = threading.Lock()
        algo = HEBSAlgorithm(pipeline)
        original_solve = algo.solve

        def counting_solve(image, max_distortion):
            with solve_lock:
                solves.append(max_distortion)
            return original_solve(image, max_distortion)

        algo.solve = counting_solve
        engine = Engine(algo)
        barrier = threading.Barrier(THREADS)

        def worker() -> None:
            barrier.wait()
            engine.process(lena, 10.0)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(solves) == 1
        stats = engine.cache_stats
        # the race losers re-probed under the solve lock and found the
        # winner's entry: one probe per thread, and only the winner missed
        assert stats.lookups == stats.hits + stats.misses
        assert stats.misses == 1
        assert stats.hits == THREADS - 1

    def test_race_loser_counts_a_hit_not_a_miss(self, pipeline, lena):
        """A thread that waits out another thread's solve of the same
        histogram reuses the solution: it counts one hit, so the misses
        count the solves whichever thread probes first."""
        gate, entered = threading.Event(), threading.Event()
        algo = HEBSAlgorithm(pipeline)
        original_solve = algo.solve

        def gated_solve(image, max_distortion):
            entered.set()
            assert gate.wait(timeout=30.0), "gate never released"
            return original_solve(image, max_distortion)

        algo.solve = gated_solve
        engine = Engine(algo)
        winner = threading.Thread(target=engine.process, args=(lena, 10.0))
        winner.start()
        assert entered.wait(timeout=30.0)       # the winner holds the lock
        loser = threading.Thread(target=engine.process, args=(lena, 10.0))
        loser.start()
        time.sleep(0.1)     # let the loser reach the solve lock (either way
        gate.set()          # the books below must balance the same)
        winner.join(timeout=30.0)
        loser.join(timeout=30.0)
        stats = engine.cache_stats
        assert (stats.misses, stats.hits, stats.lookups) == (1, 1, 2)


class TestSolutionCacheHammer:
    def test_counters_and_size_stay_consistent(self):
        cache = SolutionCache(max_size=64)
        per_thread = 400

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(per_thread):
                key = int(rng.integers(0, 128))
                if cache.get(key) is None:
                    cache.put(key, key * 2)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats
        assert stats.lookups == THREADS * per_thread
        assert stats.hits + stats.misses == stats.lookups
        assert len(cache) <= 64
        assert stats.size == len(cache)

    def test_concurrent_clear_never_corrupts(self):
        cache = SolutionCache(max_size=32)
        stop = threading.Event()

        def churner(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                key = int(rng.integers(0, 64))
                cache.put(key, key)
                cache.get(int(rng.integers(0, 64)))

        def clearer() -> None:
            for _ in range(50):
                cache.clear()

        threads = [threading.Thread(target=churner, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        clearer()
        stop.set()
        for thread in threads:
            thread.join()
        stats = cache.stats
        assert 0 <= stats.size <= 32
        assert stats.hits >= 0 and stats.misses >= 0


class TestAdoptionRace:
    def test_in_flight_solve_cannot_repopulate_replaced_instance(self, lena):
        """Regression: cache keys led with the registry *name*, so a solve
        still in flight on a replaced instance could re-insert its solution
        after the adoption's invalidation sweep — and the newly adopted
        instance would replay it."""
        from repro.bench.suite import default_pipeline
        from repro.core.pipeline import HEBSConfig

        first = HEBSAlgorithm(default_pipeline())
        second = HEBSAlgorithm(default_pipeline(config=HEBSConfig(g_min=32)))
        assert first.name == second.name == "hebs"
        engine = Engine(first)

        solving = threading.Event()
        release = threading.Event()
        original_solve = first.solve

        def blocking_solve(image, max_distortion):
            solving.set()
            assert release.wait(30)
            return original_solve(image, max_distortion)

        first.solve = blocking_solve
        stale: dict[str, object] = {}
        thread = threading.Thread(
            target=lambda: stale.update(
                result=engine.process(lena, 10.0, algorithm=first)))
        thread.start()
        assert solving.wait(30)
        # the adoption lands while first's solve is still in flight: its
        # invalidation sweep finds nothing to drop yet
        engine.algorithm(second)
        release.set()
        thread.join(30)
        assert not thread.is_alive()

        # first's late put must be invisible to the adopted instance
        result = engine.process(lena, 10.0, algorithm=second)
        assert not result.from_cache
        expected = second.compensate(lena, 10.0)
        assert result.backlight_factor == expected.backlight_factor
        assert np.array_equal(result.output.pixels, expected.output.pixels)
