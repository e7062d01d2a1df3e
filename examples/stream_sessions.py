#!/usr/bin/env python3
"""Multi-stream serving: N video clients on one compensation server.

``examples/video_playback.py`` compensates *one* clip through the pull-style
``Engine.process_stream``.  This example shows the push-based session API
that serves *many* concurrent streams — the shape of a fleet of devices (or
one device with picture-in-picture) sharing a compensation service:

1. every client opens a long-lived stream session on a shared
   :class:`repro.serve.Server` (``server.open_session``) with its own
   smoother, and pushes frames one at a time the way a decoder paces a
   display;
2. the server runs frames from all sessions (plus any one-shot traffic)
   on one worker pool, batching what queues while every worker is busy,
   so similar content across streams pays one solve through the engine's
   histogram-keyed cache;
3. each session's temporal state stays private: the per-stream backlight
   traces are verified against the flicker bound at the end, and the
   per-session latency stats come out of ``server.stats()``.

It also demonstrates the engine-level fast path (``scene_gated_solve``):
a session that skips the per-frame solve entirely while the scene is
steady, re-deriving only on cuts and rolling-histogram drift.

Usage::

    python examples/stream_sessions.py [N_SESSIONS] [N_FRAMES]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.bench.suite import benchmark_images, default_engine
from repro.core.temporal import BacklightSmoother
from repro.serve import Server, run_stream_load

MAX_STEP = 0.05
BUDGET = 10.0


def synthesize_clips(n_sessions: int, n_frames: int, hold: int = 3) -> list:
    """One clip per session: each walks the benchmark suite with its own
    phase offset, holding every scene for ``hold`` frames (video is mostly
    static — the regime the rolling cache exploits)."""
    suite = list(benchmark_images().values())
    return [[suite[(offset + index // hold) % len(suite)]
             for index in range(n_frames)]
            for offset in range(n_sessions)]


def main(argv: list[str]) -> None:
    n_sessions = int(argv[1]) if len(argv) > 1 else 6
    n_frames = int(argv[2]) if len(argv) > 2 else 18
    clips = synthesize_clips(n_sessions, n_frames)

    print(f"{n_sessions} concurrent video sessions x {n_frames} frames, "
          f"budget {BUDGET:.0f}%, flicker limit {MAX_STEP}")
    print()

    # --- the server: shared engine, shared cache, shared micro-batches ----
    engine = default_engine(algorithm="hebs-adaptive", signature_bins=8)
    with Server(engine=engine, workers=4) as server:
        started = time.perf_counter()
        report = run_stream_load(
            server, clips, BUDGET,
            session_options=lambda index: {
                "smoother": BacklightSmoother(max_step=MAX_STEP)})
        elapsed = time.perf_counter() - started

        print(f"served {report.frames} frames in {elapsed:.2f}s "
              f"({report.throughput:.1f} frames/s across all streams)")
        print(f"frame latency p50/p95: {1e3 * report.latency_p50:.1f} / "
              f"{1e3 * report.latency_p95:.1f} ms")

        stats = report.stats
        print(f"engine batches: {stats.batches} "
              f"(mean {stats.mean_batch_size:.2f} frames/batch — "
              f"different sessions share batches under load)")
        print(f"cache: {100 * stats.cache.hit_rate:.0f}% hit rate, "
              f"{100 * stats.cache.reuse_rate:.0f}% of frames reused a "
              f"solution")
        print()

        print("per-session p95 frame latency (server-side):")
        for sid, entry in sorted(stats.sessions.items()):
            print(f"  {sid}: {1e3 * entry.latency_p95:6.1f} ms "
                  f"over {entry.frames} frames")
        print()

        worst = report.worst_step()
        print(f"worst frame-to-frame backlight step of any session: "
              f"{worst:.3f}")
        if worst <= MAX_STEP + 1e-9:
            print("flicker constraint met on every stream")
        print()

    # --- the engine-level fast path: steady scenes skip the solve ---------
    print("steady-scene fast path (scene_gated_solve=True):")
    fast_engine = default_engine(algorithm="hebs-adaptive")
    scenes = list(benchmark_images(names=("lena", "pout")).values())
    clip = [frame for frame in scenes for _ in range(6)]     # 2 steady scenes
    with fast_engine.open_session(BUDGET, scene_gated_solve=True,
                                  smoother=BacklightSmoother(
                                      max_step=MAX_STEP)) as session:
        trace = [session.submit(frame).applied_backlight for frame in clip]
        counters = session.stats()
    print(f"  {counters.frames} frames -> {counters.solved} solves, "
          f"{counters.reused} replayed the held solution "
          f"({counters.scene_changes} scene changes)")
    steps = np.abs(np.diff(np.array([1.0] + trace)))
    print(f"  worst backlight step: {steps.max():.3f} "
          f"(limit {MAX_STEP}) — the fast path keeps the flicker bound")


if __name__ == "__main__":
    main(sys.argv)
