"""Tests of the benchmark's own helpers: the tail rule, span self time,
open-loop accounting, output digests, the probes and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.layers import PER_LAYER, LayerInputs, layer_metrics
from perfbench.measure import (
    OutputDigest,
    Request,
    combine_digests,
    generator_lag,
    late_count,
    summarize,
    tail_percentile,
)
from perfbench.tracing import (
    Tracer,
    children_per_parent,
    layer_totals,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("count, expected", [
    (100_000, 99.9), (10_000, 99.9), (9_999, 99.0), (1_000, 99.0),
    (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 50.0),
    (20, 50.0), (19, None), (0, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count,
                                                                expected):
    assert tail_percentile(count) == expected


def test_summary_names_its_tail_and_falls_back_to_the_maximum():
    latencies = [0.001 * (index + 1) for index in range(200)]
    summary = summarize(latencies)
    assert summary.tail_q == 95.0
    assert summary.p50_ms == pytest.approx(100.5)
    assert summary.tail_ms == pytest.approx(190.05)
    assert "p95" in summary.describe() and "n=200" in summary.describe()
    few = summarize([0.002, 0.001, 0.005])
    assert few.tail_q is None and few.tail_ms == pytest.approx(5.0)
    assert summarize([]).count == 0


class _Clock:
    """A clock that advances by one unit per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=_Clock())
    tracer.enabled = True
    leaf = tracer.wrap("leaf", lambda: None)
    empty_inner = tracer.wrap("inner", lambda: None)
    busy_inner = tracer.wrap("inner", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (empty_inner(), busy_inner()))
    # clock readings: outer 1..10, inner 2..3, inner 4..9, leaves 5..6, 7..8
    outer()
    spans = {(span.name, span.start): span for span in tracer.spans}
    own = self_times(tracer.spans)
    assert own[spans[("outer", 1.0)].id] == 9 - 1 - 5
    assert own[spans[("inner", 2.0)].id] == 1
    assert own[spans[("inner", 4.0)].id] == 5 - 1 - 1
    assert own[spans[("leaf", 5.0)].id] == 1
    assert layer_totals(tracer.spans, "inner") == (2, 6.0, 4.0)
    assert layer_totals(tracer.spans, "leaf") == (2, 2.0, 2.0)
    assert children_per_parent(tracer.spans, "inner", "leaf") == (2, 2)
    assert children_per_parent(tracer.spans, "outer", "leaf") == (1, 0)


def test_wrappers_record_only_while_enabled_and_nest_through_calls():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda value: value + 1)
    outer = tracer.wrap("outer", lambda value: leaf(value) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    assert outer(1) == 4
    names = {span.name: span for span in tracer.spans}
    assert names["leaf"].parent == names["outer"].id
    assert names["outer"].parent == 0


def test_spans_never_adopt_another_threads_span():
    tracer = Tracer()
    tracer.enabled = True
    worker = tracer.wrap("worker", lambda: None)

    def main() -> None:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap("main", main)()
    parents = {span.name: span.parent for span in tracer.spans}
    assert parents == {"worker": 0, "main": 0}


def test_frames_count_latency_from_their_due_time():
    period = 1.0 / 15.0
    frames = [
        # on time: answered 20 ms after due
        Request("frame", due=0.0, done=0.020, ok=True),
        # late: answered 80 ms after due, past one period
        Request("frame", due=0.1, done=0.180, ok=True),
        # held back by its late predecessor until 0.180, yet on time
        Request("frame", due=0.15, done=0.200, ok=True),
        # failed: late whatever its timing
        Request("frame", due=0.2, done=0.204, ok=False),
    ]
    assert [frame.latency for frame in frames] == pytest.approx(
        [0.020, 0.080, 0.050, 0.004])
    assert late_count(frames, period) == 2
    assert late_count(frames[:1] + frames[2:3], period) == 0


def test_generator_lag_excludes_waiting_on_the_predecessor():
    # sent 1 ms after due, nothing in the way
    assert generator_lag(due=0.0, free=0.0, sent=0.001) == pytest.approx(
        0.001)
    # the predecessor answered at 0.180, 30 ms after due: only the 0.5 ms
    # between that answer and the send is the generator's own lateness
    assert generator_lag(due=0.15, free=0.180, sent=0.1805) == \
        pytest.approx(0.0005)
    assert generator_lag(due=0.2, free=0.1, sent=0.2) == 0.0


def _digest(outputs) -> OutputDigest:
    digest = OutputDigest()
    for pixels, backlight, lut in outputs:
        digest.add(pixels, backlight, lut)
    return digest


def test_digest_is_stable_and_sensitive_to_every_field_and_order():
    ramp = np.arange(256, dtype=np.int64)
    first = (np.full((4, 4), 7, dtype=np.uint16), 0.5, ramp)
    second = (np.eye(4, dtype=np.uint16) * 200, 0.75, ramp // 2)
    digest = _digest([first, second])
    # pinned: the digest must not depend on platform or numpy version
    assert digest.hexdigest() == "b7409737400dfc93"
    assert _digest([first, second]).hexdigest() == digest.hexdigest()
    # the same pixel values in another dtype hash the same
    widened = (first[0].astype(np.int64), first[1], first[2])
    assert _digest([widened, second]).hexdigest() == digest.hexdigest()
    assert _digest([second, first]).hexdigest() != digest.hexdigest()
    assert _digest([(first[0], 0.5000001, ramp), second]).hexdigest() != \
        digest.hexdigest()
    assert _digest([(first[0], 0.5, ramp[::-1]), second]).hexdigest() != \
        digest.hexdigest()
    assert combine_digests([digest, _digest([first])]) != combine_digests(
        [_digest([first]), digest])


def test_every_per_layer_metric_is_derived_even_from_an_empty_window():
    metrics = layer_metrics(Tracer(), LayerInputs(
        request_s=[], wall_s=1.0, cpu_s=0.5, throughput_untraced=10.0,
        throughput_traced=9.0))
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["trace.overhead_pct"] == pytest.approx(10.0)
    assert metrics["process.cpu_util"] == pytest.approx(0.5)


def test_probes_install_and_restore_the_program():
    from perfbench.layers import install
    from repro.core import pipeline
    from repro.quality import distortion

    measure = distortion.get_measure("effective")
    coarsen = pipeline.coarsen_transform
    undo = install(Tracer())
    try:
        assert distortion.get_measure("effective") is not measure
        assert pipeline.coarsen_transform is not coarsen
    finally:
        undo()
    assert distortion.get_measure("effective") is measure
    assert pipeline.coarsen_transform is coarsen


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(entry["name"], entry["unit"]) for entry in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in spec["per_layer"]] == list(PER_LAYER)
