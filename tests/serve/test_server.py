"""Tests for the worker-pool Server: end-to-end over the real engine."""

import threading

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.bench.throughput import repeated_workload
from repro.core.histogram import Histogram
from repro.serve import Server, ServerClosedError


@pytest.fixture
def server(pipeline):
    with Server(engine=Engine(HEBSAlgorithm(pipeline)),
                workers=2) as instance:
        yield instance


class TestRequestPaths:
    def test_submit_returns_future_with_compensation_result(self, server,
                                                            lena):
        result = server.submit(lena, 10.0).result(timeout=30.0)
        assert result.algorithm == "hebs"
        assert 0.0 < result.backlight_factor <= 1.0

    def test_process_is_synchronous_submit(self, server, lena):
        result = server.process(lena, 10.0)
        assert result.algorithm == "hebs"

    def test_served_result_identical_to_direct_engine(self, pipeline, server,
                                                      lena):
        expected = Engine(HEBSAlgorithm(pipeline)).process(lena, 10.0)
        actual = server.process(lena, 10.0)
        assert np.array_equal(expected.output.pixels, actual.output.pixels)
        assert actual.backlight_factor == expected.backlight_factor
        assert actual.distortion == expected.distortion

    def test_process_many_preserves_order(self, server, small_suite):
        images = list(small_suite.values())
        results = server.process_many(images, 10.0)
        for image, result in zip(images, results):
            assert result.original == image.to_grayscale()

    def test_per_request_algorithm_override(self, server, lena):
        assert server.process(lena, 10.0,
                              algorithm="cbcs").algorithm == "cbcs"


class TestDuplicateHeavyTraffic:
    CLIENTS = 4

    def test_concurrent_duplicates_pay_one_solve_per_histogram(self,
                                                               pipeline):
        """Duplicates that reach different workers at once share one solve
        through the engine's solve lock: the cache misses once per distinct
        histogram, and every result equals the serial engine's."""
        workload = repeated_workload()
        distinct = {Histogram.of_image(image.to_grayscale()).counts.tobytes()
                    for image in workload}
        algorithm = HEBSAlgorithm(pipeline)
        solves = []
        solve = algorithm.solve

        def counting_solve(image, max_distortion):
            solves.append(max_distortion)
            return solve(image, max_distortion)

        algorithm.solve = counting_solve
        engine = Engine(algorithm)
        barrier = threading.Barrier(self.CLIENTS)
        futures = [None] * len(workload)

        def client(offset: int) -> None:
            barrier.wait()
            for index in range(offset, len(workload), self.CLIENTS):
                futures[index] = server.submit(workload[index], 10.0)

        with Server(engine=engine, workers=4) as server:
            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            served = [future.result(timeout=60.0) for future in futures]

        assert engine.cache_stats.misses == len(distinct)
        assert len(solves) == len(distinct)
        reference = Engine(HEBSAlgorithm(pipeline))
        for image, got in zip(workload, served):
            want = reference.process(image, 10.0)
            assert np.array_equal(want.output.pixels, got.output.pixels)
            assert got.backlight_factor == want.backlight_factor
            assert got.distortion == want.distortion


class TestWarmup:
    def test_warmup_counts_fresh_solves(self, pipeline, small_suite):
        with Server(engine=Engine(HEBSAlgorithm(pipeline)),
                    workers=2) as server:
            primed = server.warmup(small_suite, budgets=(10.0, 20.0))
            assert primed == 2 * len(small_suite)
            # a second warm-up finds everything cached
            assert server.warmup(small_suite, budgets=(10.0, 20.0)) == 0

    def test_warmup_makes_first_requests_cache_hits(self, pipeline,
                                                    small_suite):
        with Server(engine=Engine(HEBSAlgorithm(pipeline)),
                    workers=2) as server:
            server.warmup(small_suite, budgets=(10.0,))
            results = server.process_many(list(small_suite.values()), 10.0)
            assert all(result.from_cache for result in results)

    def test_warmup_accepts_sequences(self, pipeline, lena, pout):
        with Server(engine=Engine(HEBSAlgorithm(pipeline)),
                    workers=1) as server:
            assert server.warmup([lena, pout], budgets=(10.0,)) == 2


class TestStatsAndLifecycle:
    def test_stats_snapshot_reflects_traffic(self, server, small_suite):
        images = list(small_suite.values()) * 3
        server.process_many(images, 10.0)
        stats = server.stats()
        assert stats.submitted == len(images)
        assert stats.completed == len(images)
        assert stats.failed == 0
        assert stats.throughput > 0.0
        assert stats.latency_p99 >= stats.latency_p50 > 0.0
        # 12 requests over 4 distinct histograms: solves were shared
        assert stats.cache.reuse_rate > 0.0

    def test_queue_drains_to_zero(self, server, lena):
        server.process(lena, 10.0)
        assert server.queue_depth == 0

    def test_closed_server_rejects_submissions(self, pipeline, lena):
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1)
        server.close()
        assert server.closed
        with pytest.raises(ServerClosedError):
            server.submit(lena, 10.0)

    def test_context_manager_resolves_inflight_futures(self, pipeline,
                                                       small_suite):
        with Server(engine=Engine(HEBSAlgorithm(pipeline)),
                    workers=2) as server:
            futures = [server.submit(image, 10.0)
                       for image in small_suite.values()]
        # the with-exit drained the queue before returning
        assert all(future.done() for future in futures)

    def test_engine_is_shared_surface(self, server, lena):
        """The server serves from its engine: direct engine traffic and
        served traffic share one cache."""
        server.engine.process(lena, 10.0)
        assert server.process(lena, 10.0).from_cache
