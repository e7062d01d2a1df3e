"""Benchmark: the micro-batching coalescer versus N independent processes.

The serving claim of :mod:`repro.serve`: N concurrent clients requesting
compensation for duplicate-heavy content must cost one solve per distinct
histogram, not N solves.  The benchmark times the serial baseline
(N independent :meth:`~repro.api.engine.Engine.process` calls with no cache
and no coalescing — the pre-serving calling convention) against the same
workload submitted concurrently to a :class:`~repro.serve.Server`, asserts
the coalesced path is at least 2x faster with bitwise-identical outputs,
and emits the measured throughput / p99 latency as ``BENCH_serving.json``
so CI accumulates a perf trajectory (override the location with the
``BENCH_SERVING_JSON`` environment variable).

``hebs-adaptive`` is used for the timed run: its per-image bisection makes
the solve strongly dominate the LUT apply, which is the regime the serving
layer exists for (and where a regression in the coalescer is most visible).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.bench.throughput import repeated_workload
from repro.serve import Server, time_serial_baseline

#: Duplicate-heavy workload shape: 4 distinct histograms, 8 repeats each.
WORKLOAD_REPEATS = 8
BUDGET = 10.0


@pytest.mark.paper_experiment("serving")
def test_coalescer_beats_serial_process_calls(pipeline):
    workload = repeated_workload(repeats=WORKLOAD_REPEATS)

    # serial baseline: N independent process calls, nothing shared
    serial_engine = Engine(HEBSAlgorithm(pipeline, adaptive=True),
                           cache_size=0)
    serial_seconds, serial = time_serial_baseline(serial_engine, workload,
                                                  BUDGET)

    # served path: concurrent submits, micro-batched, cache-accelerated
    server = Server(engine=Engine(HEBSAlgorithm(pipeline, adaptive=True)),
                    workers=4, max_batch=32)
    with server:
        start = time.perf_counter()
        futures = [server.submit(image, BUDGET) for image in workload]
        served = [future.result(timeout=120.0) for future in futures]
        served_seconds = time.perf_counter() - start
        stats = server.stats()

    speedup = serial_seconds / served_seconds
    # write the perf artifact before any assertion: the run that fails
    # the gate is exactly the run whose numbers need diagnosing
    payload = {
        "benchmark": "serving",
        "workload": {
            "requests": len(workload),
            "distinct_histograms": len(workload) // WORKLOAD_REPEATS,
            "budget_percent": BUDGET,
            "algorithm": "hebs-adaptive",
        },
        "serial_seconds": round(serial_seconds, 6),
        "served_seconds": round(served_seconds, 6),
        "speedup": round(speedup, 3),
        "throughput_rps": round(len(workload) / served_seconds, 3),
        "latency_p50_ms": round(1e3 * stats.latency_p50, 3),
        "latency_p99_ms": round(1e3 * stats.latency_p99, 3),
        "mean_batch_size": round(stats.mean_batch_size, 3),
        "cache_hit_rate": round(stats.cache.hit_rate, 4),
        "cache_reuse_rate": round(stats.cache.reuse_rate, 4),
    }
    destination = Path(os.environ.get("BENCH_SERVING_JSON",
                                      "BENCH_serving.json"))
    destination.write_text(json.dumps(payload, indent=2) + "\n")

    # bitwise-identical outputs, request by request
    for expected, actual in zip(serial, served):
        assert np.array_equal(expected.output.pixels, actual.output.pixels)
        assert actual.backlight_factor == expected.backlight_factor
        assert actual.distortion == expected.distortion

    assert speedup >= 2.0, (
        f"coalesced serving must be at least 2x the serial baseline, "
        f"got {speedup:.2f}x ({serial_seconds:.3f}s vs {served_seconds:.3f}s)")

    # every request was answered and the duplicates actually coalesced
    assert stats.completed == len(workload)
    assert stats.failed == 0
    assert stats.mean_batch_size > 1.0
    assert stats.cache.reuse_rate > 0.5


@pytest.mark.paper_experiment("serving")
def test_served_results_match_engine_for_default_hebs(pipeline, suite):
    """Concurrency-free correctness guard on the default algorithm: the
    served result for every suite image equals the direct engine result."""
    images = list(suite.values())[:6]
    reference_engine = Engine(HEBSAlgorithm(pipeline))
    expected = [reference_engine.process(image, BUDGET) for image in images]

    with Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2) as server:
        served = server.process_many(images, BUDGET)

    for want, got in zip(expected, served):
        assert np.array_equal(want.output.pixels, got.output.pixels)
        assert got.backlight_factor == want.backlight_factor
        assert got.distortion == want.distortion
