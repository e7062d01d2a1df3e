"""Benchmark: cache-affinity sharded serving through the cluster router.

Three claims of the ``repro.cluster`` layer, measured on one box:

1. **Shard scaling** — on a duplicate-heavy corpus, 4 shards behind the
   router must deliver at least 3x the throughput of 1 shard.  Two
   sources of noise are controlled so the scale points measure the
   routing layer itself:

   * the algorithm is *paced* (a fixed sleep inside ``apply_solution``,
     the hook the engine runs on every request, cache hit or not), so
     each shard models a capacity-bound server whose work is a blocking
     wait — waits overlap across shards even though every shard lives
     in this one test process, and the pause is sized to dominate the
     fixed per-request wire/codec cost (~3-5ms) that does not shrink
     with shard count;
   * the corpus is *key-balanced*: distinct frames are rejection-
     sampled until the hash ring assigns an equal share to every shard.
     Consistent hashing with a handful of keys is binomially lumpy (the
     busiest of 4 shards can easily own 10 of 24 keys, capping any
     4-shard run near 2.4x no matter how good the router is); balancing
     the corpus removes hash variance from the capacity question, while
     the ring's statistical properties are pinned separately in
     ``tests/cluster/test_ring.py``.
2. **Affinity** — routing by the quantized histogram signature (the
   engine's own cache key) must send every duplicate to the shard that
   already solved it: after a warm pass, the hammered cluster takes
   **zero** further cache misses, and the distinct keys miss exactly
   once cluster-wide at every scale.
3. **Consistent-hash failover** — killing one of 4 shards must remap
   only that shard's keys (expected 1/N of the key space): re-driving
   the corpus re-misses exactly the dead shard's keys on the survivors,
   and the remap fraction stays within the consistent-hash bound.

Outputs through the router are checked **bit-identical** against a
direct shard connection and the in-process engine.  Measurements are
emitted as ``BENCH_cluster.json`` (override with the
``BENCH_CLUSTER_JSON`` environment variable) alongside the serving,
sessions, and network artifacts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import CompensationAlgorithm, HEBSAlgorithm
from repro.client import Client, RemoteServerAdapter
from repro.cluster import ClusterRouter
from repro.core.histogram import Histogram
from repro.imaging.image import Image
from repro.serve import NetworkServer, Server, protocol
from repro.serve.loadgen import run_load

BUDGET = 10.0
DISTINCT = 24          # distinct frames in the corpus
REPEATS = 4            # duplicates per frame: the cache-affinity payoff
#: Per-request pacing inside ``apply_solution``.  The fixed per-request
#: wire/codec CPU cost is ~3-5ms and does not shrink with shard count;
#: for a 4-shard run to show its real capacity the paced service time
#: must dwarf it (speedup -> 1 / (1/4 + 2*overhead/pause)).
PAUSE_SECONDS = 0.24
SHARD_WORKERS = 2      # concurrent paced applies per shard
CLIENTS = 24           # concurrent load threads at every scale point
SCALE_SHARDS = 4       # the scaled point of the 4-vs-1 gate


class _PacedAlgorithm(CompensationAlgorithm):
    """HEBS with a fixed sleep in ``apply_solution``.

    The engine runs ``apply_solution`` on every request — cache hits
    included — so the sleep turns each shard into a capacity-bound
    server (~``SHARD_WORKERS / PAUSE_SECONDS`` rps) whose "work" is a
    blocking wait that overlaps across shards even on a 1-core machine.
    Solutions and outputs are untouched HEBS; histogram-only ``solve``
    requests stay fast (the engine applies nothing for them), which the
    warm passes below exploit.
    """

    name = "hebs-paced"
    description = "HEBS with fixed per-request pacing (benchmark only)"

    def __init__(self, pipeline) -> None:
        self._inner = HEBSAlgorithm(pipeline)

    def solve(self, image, max_distortion):
        return self._inner.solve(image, max_distortion)

    def apply_solution(self, solution, image, max_distortion=None):
        time.sleep(PAUSE_SECONDS)
        return self._inner.apply_solution(solution, image,
                                          max_distortion=max_distortion)


def start_cluster(pipeline, count: int, *, paced: bool):
    """``count`` shards (fresh engines, fresh caches) behind a fresh
    router."""
    algorithm = _PacedAlgorithm if paced else HEBSAlgorithm
    shards = []
    for _ in range(count):
        server = Server(engine=Engine(algorithm(pipeline)),
                        workers=SHARD_WORKERS, max_batch=8)
        network = NetworkServer(server)
        network.start()
        shards.append(network)
    addresses = [f"{host}:{port}"
                 for host, port in (shard.address for shard in shards)]
    router = ClusterRouter(addresses, health_interval=30.0,
                           request_timeout=120.0)
    router.start()
    return shards, router


def balanced_corpus(router: ClusterRouter) -> list[Image]:
    """``DISTINCT`` random frames whose routing keys spread *evenly*
    over ``router``'s ring — an equal per-shard share, found by
    rejection sampling (see the module docstring for why)."""
    rng = np.random.default_rng(20050307)    # the paper's DATE'05 date
    per_shard = DISTINCT // len(router.shards)
    buckets: dict[str, list[Image]] = {address: []
                                       for address in router.shards}
    accepted = 0
    while accepted < DISTINCT:
        pixels = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        frame = Image(pixels, name=f"frame-{accepted:02d}")
        owner = router.ring.node_for(protocol.routing_key(frame))
        if len(buckets[owner]) < per_shard:
            buckets[owner].append(frame)
            accepted += 1
    # interleave shards so round-robin load dealing stays balanced too
    return [bucket[index] for index in range(per_shard)
            for bucket in buckets.values()]


def drive_scale_point(router: ClusterRouter, frames: list[Image],
                      count: int) -> dict:
    """Warm the cluster by histogram-only ``solve`` (unpaced, but hits
    the same engine cache under the same routing key), then hammer with
    paced full-image ``process`` requests."""
    workload = [frame for _ in range(REPEATS) for frame in frames]
    host, port = router.address
    with Client(host=host, port=port, timeout=120.0) as warm:
        for frame in frames:
            warm.solve(Histogram.of_image(frame), BUDGET)
        warmed = warm.stats_dict()
    with RemoteServerAdapter(f"{host}:{port}", timeout=120.0) as remote:
        report = run_load(remote, workload, BUDGET, clients=CLIENTS)
    with Client(host=host, port=port, timeout=120.0) as after:
        hammered = after.stats_dict()
    assert report.errors == 0
    return {
        "shards": count,
        "requests": len(workload),
        "elapsed_seconds": round(report.elapsed_seconds, 6),
        "throughput_rps": round(len(workload) / report.elapsed_seconds, 3),
        "latency_p50_ms": round(1e3 * report.latency_p50, 3),
        "misses_after_warm": int(warmed["cache_misses"]),
        "misses_after_hammer": int(hammered["cache_misses"]),
        "routed_shards": len(hammered["cluster"]["routed"]),
    }


@pytest.mark.paper_experiment("cluster")
def test_cluster_scaling_affinity_failover_and_parity(pipeline):
    # ---------------------------------------------------------------- #
    # scaling: the balanced corpus is sampled against the 4-shard ring,
    # then the same frames drive the 4-shard and 1-shard points
    # ---------------------------------------------------------------- #
    shards, router = start_cluster(pipeline, SCALE_SHARDS, paced=True)
    try:
        frames = balanced_corpus(router)
        scaled_point = drive_scale_point(router, frames, SCALE_SHARDS)
    finally:
        router.close()
        for shard in shards:
            shard.close()

    shards, router = start_cluster(pipeline, 1, paced=True)
    try:
        single_point = drive_scale_point(router, frames, 1)
    finally:
        router.close()
        for shard in shards:
            shard.close()

    speedup = (scaled_point["throughput_rps"]
               / single_point["throughput_rps"])
    scale_points = [single_point, scaled_point]

    # ---------------------------------------------------------------- #
    # parity: router vs direct shard vs in-process engine, bit-identical
    # (unpaced shards: parity is about routing, not capacity)
    # ---------------------------------------------------------------- #
    shards, router = start_cluster(pipeline, 2, paced=False)
    try:
        host, port = router.address
        direct_host, direct_port = shards[0].address
        engine = Engine(HEBSAlgorithm(pipeline))
        with Client(host=host, port=port, timeout=120.0) as routed, \
                Client(host=direct_host, port=direct_port,
                       timeout=120.0) as direct:
            for frame in frames[:6]:
                through_router = routed.process(frame, BUDGET)
                through_shard = direct.process(frame, BUDGET)
                reference = engine.process(frame, BUDGET)
                assert np.array_equal(through_router.output.pixels,
                                      through_shard.output.pixels)
                assert np.array_equal(through_router.output.pixels,
                                      reference.output.pixels)
                assert through_router.backlight_factor == \
                    reference.backlight_factor
                routed_solution = routed.solve(Histogram.of_image(frame),
                                               BUDGET)
                direct_solution = direct.solve(Histogram.of_image(frame),
                                               BUDGET)
                assert routed_solution.transform == \
                    direct_solution.transform
    finally:
        router.close()
        for shard in shards:
            shard.close()

    # ---------------------------------------------------------------- #
    # failover: kill 1 of 4 shards, re-drive, count remapped keys on a
    # FRESH ring (new ports, new arcs — no balance assumed or needed)
    # ---------------------------------------------------------------- #
    shards, router = start_cluster(pipeline, 4, paced=False)
    try:
        host, port = router.address
        with Client(host=host, port=port, timeout=120.0) as client:
            for frame in frames:
                client.solve(Histogram.of_image(frame), BUDGET)
            before = client.stats_dict()

            owners = {frame.name: router.ring.node_for(
                protocol.routing_key(frame)) for frame in frames}
            victim = max(set(owners.values()),
                         key=list(owners.values()).count)
            victim_index = router.shards.index(victim)
            expected_remapped = sum(owner == victim
                                    for owner in owners.values())
            survivors = [address for address in router.shards
                         if address != victim]
            survivor_misses_before = sum(
                int(before["shards"][address]["cache_misses"])
                for address in survivors)

            shards[victim_index].close()
            for frame in frames:
                client.solve(Histogram.of_image(frame), BUDGET)
            after = client.stats_dict()
            survivor_misses_after = sum(
                int(after["shards"][address]["cache_misses"])
                for address in survivors)

        remapped = survivor_misses_after - survivor_misses_before
        remap_fraction = expected_remapped / DISTINCT
    finally:
        router.close()
        for shard in shards:
            shard.close()

    # write the perf artifact before any assertion: the run that fails
    # the gate is exactly the run whose numbers need diagnosing
    payload = {
        "benchmark": "cluster",
        "workload": {
            "distinct_frames": DISTINCT,
            "repeats": REPEATS,
            "requests": DISTINCT * REPEATS,
            "budget_percent": BUDGET,
            "algorithm": "hebs (paced: "
                         f"{1e3 * PAUSE_SECONDS:.0f}ms/request, "
                         f"{SHARD_WORKERS} workers/shard)",
            "clients": CLIENTS,
            "key_balanced_for_shards": SCALE_SHARDS,
        },
        "scale_points": scale_points,
        "speedup_4_shards_vs_1": round(speedup, 3),
        "failover": {
            "shards": 4,
            "victim_owned_keys": expected_remapped,
            "remapped_keys_observed": remapped,
            "remap_fraction": round(remap_fraction, 4),
            "consistent_hash_expected_fraction": 0.25,
        },
    }
    destination = Path(os.environ.get("BENCH_CLUSTER_JSON",
                                      "BENCH_cluster.json"))
    destination.write_text(json.dumps(payload, indent=2) + "\n")

    # gate 1 — shard scaling through the router
    assert speedup >= 3.0, (
        f"4 shards must be at least 3x 1 shard on the duplicate-heavy "
        f"corpus, got {speedup:.2f}x "
        f"({single_point['throughput_rps']:.1f} -> "
        f"{scaled_point['throughput_rps']:.1f} rps)")

    # gate 2 — affinity: the warm pass misses once per distinct key
    # cluster-wide, and the hammer adds zero misses at every scale
    for point in scale_points:
        assert point["misses_after_warm"] == DISTINCT, point
        assert point["misses_after_hammer"] == DISTINCT, (
            f"duplicates leaked to cold shards at "
            f"{point['shards']} shards: {point}")
    assert scaled_point["routed_shards"] == SCALE_SHARDS

    # gate 3 — failover within the consistent-hash bound: exactly the
    # dead shard's keys re-missed, and only ~1/N of the key space moved
    assert remapped == expected_remapped, (
        f"expected exactly the victim's {expected_remapped} keys to "
        f"remap, observed {remapped}")
    assert remap_fraction <= 0.5, (
        f"remap fraction {remap_fraction:.2f} breaks the consistent-"
        f"hash bound (expected ~0.25 for 4 shards)")
