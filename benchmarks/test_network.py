"""Benchmark: histogram-only solve RPCs versus full-image process RPCs.

The bandwidth argument of the remote serving API, measured: a client that
ships a 256-bin histogram and applies the returned LUT locally
(``Client.compensate`` — the paper's Fig. 4 decomposition across a socket)
must beat the same client shipping whole images both ways
(``Client.process``) by at least 2x on the same duplicate-heavy corpus,
with **bit-identical** outputs.  The solve path moves O(histogram) bytes
and replays a cached solution; the process path moves O(pixels) each way
and pays the server-side apply plus distortion/power accounting.

Measured throughput and latency are emitted as ``BENCH_network.json``
(override the location with the ``BENCH_NETWORK_JSON`` environment
variable) so CI accumulates a perf trajectory next to
``BENCH_serving.json`` and ``BENCH_sessions.json``.
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
from repro.client import Client
from repro.serve import NetworkServer, Server

#: Duplicate-heavy workload shape: 4 distinct histograms, 8 repeats each.
WORKLOAD_REPEATS = 8
BUDGET = 10.0

#: Feed-lane benchmark shape: one scene repeated (replay path), so codec
#: cost — not solver work — dominates the measured latency.
FEED_FRAMES = 150
FEED_ROUNDS = 2


def _merge_bench(section: dict) -> None:
    """Merge ``section`` into BENCH_network.json, preserving the other
    benchmark's keys whichever test runs (or fails) first."""
    destination = Path(os.environ.get("BENCH_NETWORK_JSON",
                                      "BENCH_network.json"))
    payload = {}
    if destination.exists():
        try:
            payload = json.loads(destination.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload.update(section)
    destination.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.paper_experiment("network")
def test_solve_rpc_at_least_2x_process_rpc(pipeline):
    workload = repeated_workload(repeats=WORKLOAD_REPEATS)

    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=4,
                    max_batch=32)
    network = NetworkServer(server)
    host, port = network.start()
    try:
        server.warmup(workload, budgets=(BUDGET,))
        with Client(host=host, port=port, timeout=120.0) as client:
            # one warm round trip per path: connection setup, first-touch
            # codec/JIT costs must not bias either side
            client.process(workload[0], BUDGET)
            client.compensate(workload[0], BUDGET)

            start = time.perf_counter()
            processed = [client.process(image, BUDGET)
                         for image in workload]
            process_seconds = time.perf_counter() - start

            start = time.perf_counter()
            compensated = [client.compensate(image, BUDGET)
                           for image in workload]
            solve_seconds = time.perf_counter() - start
    finally:
        network.close()

    speedup = process_seconds / solve_seconds
    solve_rps = len(workload) / solve_seconds
    process_rps = len(workload) / process_seconds

    # write the perf artifact before any assertion: the run that fails
    # the gate is exactly the run whose numbers need diagnosing
    payload = {
        "benchmark": "network",
        "workload": {
            "requests": len(workload),
            "distinct_histograms": len(workload) // WORKLOAD_REPEATS,
            "budget_percent": BUDGET,
            "algorithm": "hebs",
        },
        "process_rpc_seconds": round(process_seconds, 6),
        "solve_rpc_seconds": round(solve_seconds, 6),
        "speedup_solve_vs_process": round(speedup, 3),
        "solve_rpc_throughput_rps": round(solve_rps, 3),
        "process_rpc_throughput_rps": round(process_rps, 3),
        "solve_rpc_mean_latency_ms": round(
            1e3 * solve_seconds / len(workload), 3),
        "process_rpc_mean_latency_ms": round(
            1e3 * process_seconds / len(workload), 3),
    }
    _merge_bench(payload)

    # the histogram-only path must reproduce the full-image path bitwise:
    # same output pixels, same programmed backlight, request by request
    for local, remote in zip(compensated, processed):
        assert np.array_equal(local.output.pixels, remote.output.pixels)
        assert local.backlight_factor == remote.backlight_factor

    assert speedup >= 2.0, (
        f"solve RPCs must be at least 2x full-image process RPCs, got "
        f"{speedup:.2f}x ({process_seconds:.3f}s vs {solve_seconds:.3f}s)")


@pytest.mark.paper_experiment("network")
def test_protocol_v2_shrinks_the_wire_without_costing_latency(pipeline,
                                                              suite):
    """The protocol v2 acceptance gates, measured per lane on one server:

    * ``process`` and ``feed`` bytes-on-wire at least 3x smaller on v2
      than on v1 (binary zero-copy segments + u8 packing + the omitted
      ``original`` downlink image vs base64-in-JSON both ways);
    * v2 p99 feed latency no worse than v1 (best of ``FEED_ROUNDS``
      sessions per lane, so a stray scheduler hiccup does not decide a
      perf gate);
    * outputs bit-identical across the v1, v2 and (when negotiated)
      shared-memory lanes.
    """
    from repro.serve.shm import shm_available

    image = suite["baboon"]
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=4,
                    max_batch=32)
    network = NetworkServer(server)
    host, port = network.start()

    def lane(**options) -> dict:
        with Client(host=host, port=port, timeout=120.0,
                    **options) as client:
            client.process(image, BUDGET)        # warm the connection
            base = client.bytes_sent + client.bytes_received
            result = client.process(image, BUDGET)
            process_bytes = (client.bytes_sent + client.bytes_received
                             - base)
            p99s, feed_bytes, outcomes = [], 0, []
            for _ in range(FEED_ROUNDS):
                with client.open_session(BUDGET) as session:
                    session.submit(image)        # warm the stream state
                    base = client.bytes_sent + client.bytes_received
                    latencies = []
                    outcomes = []
                    for _ in range(FEED_FRAMES):
                        started = time.perf_counter()
                        outcomes.append(session.submit(image))
                        latencies.append(time.perf_counter() - started)
                    feed_bytes = ((client.bytes_sent +
                                   client.bytes_received - base)
                                  / FEED_FRAMES)
                p99s.append(float(np.percentile(latencies, 99)))
            return {"shm": client._shm is not None and client._shm.active,
                    "process_bytes": int(process_bytes),
                    "feed_bytes_per_frame": round(feed_bytes, 1),
                    "feed_p99_ms": round(1e3 * min(p99s), 3),
                    "result": result, "outcomes": outcomes}

    try:
        server.warmup({"baboon": image}, budgets=(BUDGET,))
        lanes = {"v1": lane(max_version=1), "v2": lane()}
        if shm_available():
            lanes["shm"] = lane(shm=True)
    finally:
        network.close()

    section = {"protocol_v2": {
        "feed_frames": FEED_FRAMES,
        "feed_rounds": FEED_ROUNDS,
        "process_wire_shrink_v1_over_v2": round(
            lanes["v1"]["process_bytes"] / lanes["v2"]["process_bytes"], 2),
        "feed_wire_shrink_v1_over_v2": round(
            lanes["v1"]["feed_bytes_per_frame"]
            / lanes["v2"]["feed_bytes_per_frame"], 2),
        "lanes": {name: {key: value for key, value in metrics.items()
                         if key not in ("result", "outcomes")}
                  for name, metrics in lanes.items()},
    }}
    _merge_bench(section)

    if "shm" in lanes:
        assert lanes["shm"]["shm"], "same-host shm lane failed to negotiate"

    # bit-identical outputs across every lane, frame by frame
    for name, metrics in lanes.items():
        assert metrics["result"] == lanes["v1"]["result"], name
        for got, want in zip(metrics["outcomes"], lanes["v1"]["outcomes"]):
            assert got.result == want.result, name
            assert got.applied_backlight == want.applied_backlight, name

    gates = section["protocol_v2"]
    assert gates["process_wire_shrink_v1_over_v2"] >= 3.0, (
        f"v2 process traffic must be at least 3x smaller on the wire, "
        f"got {gates['process_wire_shrink_v1_over_v2']}x")
    assert gates["feed_wire_shrink_v1_over_v2"] >= 3.0, (
        f"v2 feed traffic must be at least 3x smaller on the wire, "
        f"got {gates['feed_wire_shrink_v1_over_v2']}x")
    assert lanes["v2"]["feed_p99_ms"] <= lanes["v1"]["feed_p99_ms"], (
        f"v2 p99 feed latency regressed: {lanes['v2']['feed_p99_ms']}ms "
        f"vs v1 {lanes['v1']['feed_p99_ms']}ms")
