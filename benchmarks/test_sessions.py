"""Benchmark: N concurrent stream sessions versus the same sessions serially.

The multi-stream serving claim of :mod:`repro.serve`: when N video clients
each push frames through their own :class:`~repro.api.session.StreamSession`
on one server, frames from different sessions share its worker pool (and,
under load, ``process_batch`` calls) and similar content across sessions
shares one solve through the engine cache — so the wall time beats running
the same sessions one after another (the pre-session calling convention:
one engine stream at a time, nothing shared).  The benchmark asserts the served path is at least
2x faster with every session's applied backlight honoring its smoother's
``max_step`` on every frame, and emits the measured multi-stream throughput
and per-session p95 frame latency as ``BENCH_sessions.json`` so CI
accumulates a perf trajectory (override the location with the
``BENCH_SESSIONS_JSON`` environment variable).

``hebs-adaptive`` is used for the timed run: its per-image bisection makes
the solve strongly dominate the LUT apply, which is the regime the serving
layer exists for.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.core.temporal import BacklightSmoother
from repro.serve import Server, run_stream_load, time_serial_stream_baseline

SESSIONS = 8
FRAMES_PER_SESSION = 5
BUDGET = 10.0
MAX_STEP = 0.05


def _session_clips(suite) -> list[list]:
    """One clip per session: every session walks the same 5 distinct scenes
    (consecutive frames repeat content, sessions overlap heavily — the
    multi-stream sweet spot the coalescer exists for)."""
    scenes = list(suite.values())[:FRAMES_PER_SESSION]
    return [list(scenes) for _ in range(SESSIONS)]


@pytest.mark.paper_experiment("sessions")
def test_concurrent_sessions_beat_serial_sessions(pipeline, suite):
    clips = _session_clips(suite)
    fresh_smoother = lambda index: {                     # noqa: E731
        "smoother": BacklightSmoother(max_step=MAX_STEP)}

    # serial baseline: one session at a time on a cache-disabled engine —
    # every frame of every session pays its own full adaptive solve
    serial_engine = Engine(HEBSAlgorithm(pipeline, adaptive=True),
                           cache_size=0)
    serial_seconds, serial_outcomes = time_serial_stream_baseline(
        serial_engine, clips, BUDGET, session_options=fresh_smoother)

    # served path: 8 concurrent sessions through one server, frames
    # interleaved into shared micro-batches over one cached engine
    server = Server(engine=Engine(HEBSAlgorithm(pipeline, adaptive=True)),
                    workers=4, max_batch=32)
    with server:
        report = run_stream_load(server, clips, BUDGET,
                                 result_timeout=120.0,
                                 session_options=fresh_smoother)
        stats = report.stats
    served_seconds = report.elapsed_seconds
    speedup = serial_seconds / served_seconds
    session_p95 = [1e3 * latency for latency in report.session_p95().values()]

    # write the perf artifact before any assertion: the run that fails
    # the gate is exactly the run whose numbers need diagnosing
    payload = {
        "benchmark": "sessions",
        "workload": {
            "sessions": SESSIONS,
            "frames_per_session": FRAMES_PER_SESSION,
            "budget_percent": BUDGET,
            "max_step": MAX_STEP,
            "algorithm": "hebs-adaptive",
        },
        "errors": report.errors,
        "serial_seconds": round(serial_seconds, 6),
        "served_seconds": round(served_seconds, 6),
        "speedup": round(speedup, 3),
        "throughput_fps": round(report.throughput, 3),
        "session_p95_latency_ms_max": round(max(session_p95, default=0.0), 3),
        "session_p95_latency_ms_mean": round(
            sum(session_p95) / len(session_p95) if session_p95 else 0.0, 3),
        "mean_batch_size": round(stats.mean_batch_size, 3),
        "cache_hit_rate": round(stats.cache.hit_rate, 4),
        "cache_reuse_rate": round(stats.cache.reuse_rate, 4),
        "session_frames": stats.session_frames,
    }
    destination = Path(os.environ.get("BENCH_SESSIONS_JSON",
                                      "BENCH_sessions.json"))
    destination.write_text(json.dumps(payload, indent=2) + "\n")

    assert report.errors == 0
    assert len(report.traces) == SESSIONS
    assert len(session_p95) == SESSIONS

    # every session's applied backlight honors its smoother's max_step on
    # every frame, including the step off the initial full backlight
    for trace in report.traces.values():
        steps = np.abs(np.diff(np.array([1.0] + list(trace))))
        assert steps.max() <= MAX_STEP + 1e-9, steps

    # the temporal outcome matches the serial reference (all clips are the
    # same workload, so every session must reproduce the cache-less serial
    # session's trace exactly — no cross-session state leakage)
    reference = [frame.applied_backlight for frame in serial_outcomes[0]]
    for trace in report.traces.values():
        assert list(trace) == reference

    assert stats.session_frames == SESSIONS * FRAMES_PER_SESSION
    assert stats.failed == 0

    assert speedup >= 2.0, (
        f"concurrent sessions must be at least 2x the serial session "
        f"baseline, got {speedup:.2f}x "
        f"({serial_seconds:.3f}s vs {served_seconds:.3f}s)")
