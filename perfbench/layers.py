"""Per-layer probes: wrappers installed around the program's layer entry
points, and the per-layer metrics derived from what they record.

The wrappers live here, in the benchmark, not in the program: each one
replaces a function at the place its callers look it up (a module global,
a class attribute or a registry entry) for the life of the process.  They
must be installed before engines are built, because pipelines capture
their distortion measure and equalizer at construction.  Installation is
strict: a probe target that no longer exists raises instead of silently
reporting zeros.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from perfbench.measure import percentile, summarize
from perfbench.tracing import Tracer, children_per_parent, layer_totals

#: Every per-layer metric as ``(name, unit, better)``, in report order.
PER_LAYER = (
    ("quality.distortion.calls_per_request", "calls/req", "lower"),
    ("quality.distortion.ms_per_call", "ms", "lower"),
    ("quality.distortion.share", "ratio", "lower"),
    ("core.plc.calls_per_request", "calls/req", "lower"),
    ("core.plc.ms_per_call", "ms", "lower"),
    ("core.plc.share", "ratio", "lower"),
    ("core.pipeline.probes_per_solve", "count", "lower"),
    ("core.darken.probes_per_solve", "count", "lower"),
    ("core.equalization.ms_per_call", "ms", "lower"),
    ("display.power.ms_per_call", "ms", "lower"),
    ("display.driver.ms_per_call", "ms", "lower"),
    ("api.cache.hit_rate", "ratio", "higher"),
    ("api.cache.reuse_rate", "ratio", "higher"),
    ("api.cache.misses", "count", "lower"),
    ("api.cache.evictions", "count", "lower"),
    ("api.engine.solve_ms", "ms", "lower"),
    ("api.engine.apply_ms", "ms", "lower"),
    ("api.session.reuse_share", "ratio", "higher"),
    ("api.session.rederive_share", "ratio", "lower"),
    ("api.session.scene_changes", "count", "lower"),
    ("serve.coalescer.queue_wait_ms_p50", "ms", "lower"),
    ("serve.coalescer.queue_wait_ms_tail", "ms", "lower"),
    ("serve.coalescer.batch_size_mean", "count", "higher"),
    ("serve.coalescer.rejected", "count", "lower"),
    ("serve.wire2.encode_us", "us", "lower"),
    ("serve.wire2.decode_us", "us", "lower"),
    ("serve.wire2.calls_per_request", "calls/req", "lower"),
    ("client.bytes_up_per_request", "B", "lower"),
    ("client.bytes_down_per_request", "B", "lower"),
    ("client.compensate_ms_p50", "ms", "lower"),
    ("client.compensate_ms_tail", "ms", "lower"),
    ("cluster.router.forward_ms_p50", "ms", "lower"),
    ("cluster.router.overhead_ms_p50", "ms", "lower"),
    ("cluster.router.fast_path_share", "ratio", "higher"),
    ("cluster.router.failovers", "count", "lower"),
    ("process.cpu_util", "ratio", "lower"),
    ("video.generator_lag_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class _Patches:
    """Replacements made by :func:`install`, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def attr(self, owner, name: str, make: Callable) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append(lambda: setattr(owner, name, original))

    def item(self, mapping: dict, key: str, make: Callable) -> None:
        original = mapping[key]
        mapping[key] = make(original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points; returns the function that unwraps them."""
    from repro.api.engine import Engine
    from repro.api.registry import HEBSAlgorithm, OLEDDarkenAlgorithm
    from repro.api.session import StreamSession
    from repro.cluster.router import ShardLink
    from repro.core import darken, equalization_variants, pipeline
    from repro.display.driver import HierarchicalDriver
    from repro.display.oled import OLEDModel
    from repro.display.power import DisplayPowerModel
    from repro.quality import distortion
    from repro.serve import wire2
    from repro.serve.coalescer import RequestCoalescer
    from repro.serve.server import ServerSession

    patches = _Patches()

    def span(name: str) -> Callable:
        return lambda original: tracer.wrap(name, original)

    # the distortion measure: one registry entry serves pipelines, the
    # darkener and the curve builder alike
    patches.item(distortion._MEASURES, "effective", span("quality.distortion"))
    patches.attr(pipeline, "coarsen_transform", span("core.plc"))
    patches.attr(pipeline, "equalize_histogram", span("core.equalization"))
    patches.item(equalization_variants._EQUALIZERS, "ghe",
                 span("core.equalization"))
    patches.attr(pipeline.HEBS, "process_adaptive",
                 span("core.pipeline.process_adaptive"))
    patches.attr(pipeline.HEBS, "process_with_range",
                 span("core.pipeline.process_with_range"))
    patches.attr(darken.ContentDarkener, "solve", span("core.darken.solve"))
    patches.attr(DisplayPowerModel, "breakdown", span("display.power"))
    patches.attr(OLEDModel, "breakdown", span("display.power"))
    patches.attr(HierarchicalDriver, "program", span("display.driver"))
    for algorithm in (HEBSAlgorithm, OLEDDarkenAlgorithm):
        patches.attr(algorithm, "solve", span("api.engine.solve"))
        patches.attr(algorithm, "apply_solution", span("api.engine.apply"))
        patches.attr(algorithm, "at_backlight", span("api.session.rederive"))
    patches.attr(StreamSession, "complete", span("api.session.complete"))
    patches.attr(wire2, "encode_frame", span("serve.wire2.encode"))
    patches.attr(wire2, "decode_message", span("serve.wire2.decode"))

    # queue wait: from admission (the request's enqueue stamp) to the start
    # of the engine batch -- or, for a stream session's fast-path frame,
    # the session compute -- that carries the request
    claimed = threading.local()

    def execute(original):
        def traced(self, batch):
            if not tracer.enabled:
                return original(self, batch)
            tracer.sample("serve.coalescer.batch_size", len(batch))
            claimed.batch = batch
            try:
                return original(self, batch)
            finally:
                claimed.batch = None
        return traced

    def process_batch(original):
        def traced(self, images, *args, **kwargs):
            batch = getattr(claimed, "batch", None)
            if batch is not None:
                images = list(images)
                now = time.perf_counter()
                carried = {id(image) for image in images}
                for request in batch:
                    image = (request.image if request.plan is None
                             else request.plan.grayscale)
                    if id(image) in carried:
                        tracer.sample("serve.coalescer.queue_wait",
                                      now - request.enqueued_at)
            return original(self, images, *args, **kwargs)
        return traced

    def session_compute(original):
        def traced(self, plan):
            batch = getattr(claimed, "batch", None)
            if batch is not None:
                now = time.perf_counter()
                for request in batch:
                    if request.plan is plan:
                        tracer.sample("serve.coalescer.queue_wait",
                                      now - request.enqueued_at)
                        break
            return original(self, plan)
        return traced

    patches.attr(RequestCoalescer, "_execute", execute)
    patches.attr(Engine, "process_batch", process_batch)
    patches.attr(ServerSession, "compute", session_compute)

    # the router hop, per request type, timed inside ShardLink.forward
    peek = wire2.peek

    def forward(original):
        async def traced(self, payload, **kwargs):
            if not tracer.enabled:
                return await original(self, payload, **kwargs)
            kind = peek(payload).get("type")
            start = time.perf_counter()
            try:
                return await original(self, payload, **kwargs)
            finally:
                tracer.sample(f"cluster.router.forward.{kind}",
                              time.perf_counter() - start)
        return traced

    patches.attr(ShardLink, "forward", forward)
    return patches.undo


@dataclass
class LayerInputs:
    """What one traced window observed outside the spans.

    Counter fields are deltas over the window.  ``request_s`` holds the
    client-side duration of every completed request of the window.
    """

    request_s: list[float]
    wall_s: float
    cpu_s: float
    throughput_untraced: float
    throughput_traced: float
    cache_hits: int = 0
    cache_misses: int = 0
    cache_replays: int = 0
    cache_evictions: int = 0
    rejected: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    process_rpc_s: list[float] = field(default_factory=list)
    compensate_s: list[float] = field(default_factory=list)
    routed: int = 0
    fast_path: int = 0
    failovers: int = 0
    frames: int = 0
    frames_reused: int = 0
    scene_changes: int = 0
    generator_lag_s: list[float] = field(default_factory=list)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, inputs: LayerInputs) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced window.

    A metric of a layer the window never called reads 0.
    """
    spans = tracer.spans
    requests = len(inputs.request_s)
    request_time = sum(inputs.request_s)
    metrics: dict[str, float] = {}

    for layer in ("quality.distortion", "core.plc"):
        totals = layer_totals(spans, layer)
        metrics[f"{layer}.calls_per_request"] = _ratio(totals.calls, requests)
        metrics[f"{layer}.ms_per_call"] = 1e3 * _ratio(totals.total_s,
                                                       totals.calls)
        metrics[f"{layer}.share"] = _ratio(totals.self_s, request_time)

    solves, probes = children_per_parent(
        spans, "core.pipeline.process_adaptive",
        "core.pipeline.process_with_range")
    metrics["core.pipeline.probes_per_solve"] = _ratio(probes, solves)
    solves, probes = children_per_parent(spans, "core.darken.solve",
                                         "quality.distortion")
    metrics["core.darken.probes_per_solve"] = _ratio(probes, solves)

    for metric, name in (("core.equalization.ms_per_call", "core.equalization"),
                         ("display.power.ms_per_call", "display.power"),
                         ("display.driver.ms_per_call", "display.driver"),
                         ("api.engine.solve_ms", "api.engine.solve"),
                         ("api.engine.apply_ms", "api.engine.apply")):
        totals = layer_totals(spans, name)
        metrics[metric] = 1e3 * _ratio(totals.total_s, totals.calls)

    lookups = inputs.cache_hits + inputs.cache_misses
    metrics["api.cache.hit_rate"] = _ratio(inputs.cache_hits, lookups)
    metrics["api.cache.reuse_rate"] = _ratio(
        inputs.cache_hits + inputs.cache_replays,
        lookups + inputs.cache_replays)
    metrics["api.cache.misses"] = float(inputs.cache_misses)
    metrics["api.cache.evictions"] = float(inputs.cache_evictions)

    completes, rederives = children_per_parent(
        spans, "api.session.complete", "api.session.rederive")
    metrics["api.session.reuse_share"] = _ratio(inputs.frames_reused,
                                                inputs.frames)
    metrics["api.session.rederive_share"] = _ratio(rederives, completes)
    metrics["api.session.scene_changes"] = float(inputs.scene_changes)

    waits = summarize(tracer.samples("serve.coalescer.queue_wait"))
    metrics["serve.coalescer.queue_wait_ms_p50"] = waits.p50_ms
    metrics["serve.coalescer.queue_wait_ms_tail"] = waits.tail_ms
    batches = tracer.samples("serve.coalescer.batch_size")
    metrics["serve.coalescer.batch_size_mean"] = _ratio(sum(batches),
                                                        len(batches))
    metrics["serve.coalescer.rejected"] = float(inputs.rejected)

    encode = layer_totals(spans, "serve.wire2.encode")
    decode = layer_totals(spans, "serve.wire2.decode")
    metrics["serve.wire2.encode_us"] = 1e6 * _ratio(encode.total_s,
                                                    encode.calls)
    metrics["serve.wire2.decode_us"] = 1e6 * _ratio(decode.total_s,
                                                    decode.calls)
    metrics["serve.wire2.calls_per_request"] = _ratio(
        encode.calls + decode.calls, requests)
    metrics["client.bytes_up_per_request"] = _ratio(inputs.bytes_up, requests)
    metrics["client.bytes_down_per_request"] = _ratio(inputs.bytes_down,
                                                      requests)
    compensate = summarize(inputs.compensate_s)
    metrics["client.compensate_ms_p50"] = compensate.p50_ms
    metrics["client.compensate_ms_tail"] = compensate.tail_ms

    forwards = tracer.samples("cluster.router.forward.process")
    forward_p50 = 1e3 * percentile(forwards, 50.0)
    metrics["cluster.router.forward_ms_p50"] = forward_p50
    metrics["cluster.router.overhead_ms_p50"] = (
        1e3 * percentile(inputs.process_rpc_s, 50.0) - forward_p50
        if forwards and inputs.process_rpc_s else 0.0)
    metrics["cluster.router.fast_path_share"] = _ratio(inputs.fast_path,
                                                       inputs.routed)
    metrics["cluster.router.failovers"] = float(inputs.failovers)

    metrics["process.cpu_util"] = _ratio(inputs.cpu_s, inputs.wall_s)
    metrics["video.generator_lag_ms"] = 1e3 * _ratio(
        sum(inputs.generator_lag_s), len(inputs.generator_lag_s))
    metrics["trace.overhead_pct"] = 100.0 * _ratio(
        inputs.throughput_untraced - inputs.throughput_traced,
        inputs.throughput_untraced)
    return {name: metrics[name] for name, _, _ in PER_LAYER}
