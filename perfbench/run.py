"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve|slideshow|video \\
        [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines above it are a readable report.  A traced run drives the
workload twice over the same inputs, first with the probes switched off
and then on, and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 20050307
WORKLOAD_NAMES = ("cold-solve", "slideshow", "video")
#: Times the serving stack is built; set-up reports the median build.
SETUP_BUILDS = 3

#: Every end-to-end metric as ``(name, unit)``, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("success_rate", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("on_time_rate", "ratio"),
    ("power_saving_pct", "%"),
    ("budget_met_rate", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def build_stack(workload):
    """Build the serving stack ``SETUP_BUILDS`` times from cold caches; keep
    the last.  Returns ``(stack, build seconds)``."""
    from repro.bench.suite import clear_caches

    builds = []
    stack = None
    for _ in range(SETUP_BUILDS):
        if stack is not None:
            workload.close(stack)
        clear_caches()
        started = time.perf_counter()
        stack = workload.start()
        builds.append(time.perf_counter() - started)
    return stack, builds


def end_to_end(workload, window, verdict, setup_s, failed):
    from perfbench.measure import late_count, summarize

    calls = window.calls
    primary = summarize([call.latency for call in calls
                         if call.kind == workload.primary and call.ok])
    on_time = len(calls) - late_count(calls, workload.limit_s)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_rps": window.completed / window.seconds,
        "success_rate": 1.0 - min(failed, len(calls)) / len(calls),
        "latency_p50_ms": primary.p50_ms,
        "latency_tail_ms": primary.tail_ms,
        "on_time_rate": on_time / len(calls),
        "power_saving_pct": verdict.power_saving_pct,
        "budget_met_rate": verdict.budget_met_rate,
    }
    report = [f"{workload.primary} latency: {primary.describe()}",
              f"on time within {1e3 * workload.limit_s:.1f} ms: "
              f"{on_time}/{len(calls)}"]
    secondary = [call.latency for call in calls
                 if call.kind != workload.primary and call.ok]
    if secondary:
        report.append(f"compensate latency: {summarize(secondary).describe()}")
    return metrics, report


def traced_window(workload, stack, seconds, tracer):
    """An untraced pass, a rewind, then the same work traced; returns both
    windows and the per-layer metrics."""
    from perfbench.layers import LayerInputs, layer_metrics

    untraced = workload.drive(stack, seconds)
    workload.rewind(stack)
    before = workload.counters(stack)
    cpu_before = time.process_time()
    tracer.enabled = True
    traced = workload.drive(stack, seconds)
    tracer.enabled = False
    cpu_s = time.process_time() - cpu_before
    after = workload.counters(stack)
    delta = {key: after[key] - before[key] for key in after}
    ok = [call for call in traced.calls if call.ok]
    inputs = LayerInputs(
        request_s=[call.latency for call in ok],
        wall_s=traced.seconds, cpu_s=cpu_s,
        throughput_untraced=untraced.completed / untraced.seconds,
        throughput_traced=traced.completed / traced.seconds,
        process_rpc_s=[call.latency for call in ok
                       if call.kind == "process"],
        compensate_s=[call.latency for call in ok
                      if call.kind == "compensate"],
        frames=sum(call.kind == "frame" for call in ok),
        frames_reused=traced.frames_reused,
        scene_changes=traced.scene_changes,
        generator_lag_s=traced.generator_lag_s, **delta)
    return untraced, traced, layer_metrics(tracer, inputs)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Every thread of the run on one CPU.  The stack runs in one process
    # under one interpreter lock; across two virtual CPUs its thread
    # hand-offs cost more than they overlap, and their wake-ups wait on
    # the host's scheduler, which moved slideshow throughput and video
    # latency by 15-20 % between runs minutes apart.  Threads started
    # later inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from perfbench.tracing import Tracer

    tracer = Tracer()
    if args.trace:
        # before any engine exists: pipelines capture their callables
        from perfbench.layers import install
        install(tracer)
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    stack, builds = build_stack(workload)
    setup_s = import_s + statistics.median(builds)
    try:
        workload.prepare(stack)
        if args.trace:
            untraced, window, per_layer = traced_window(
                workload, stack, args.seconds, tracer)
            calls = untraced.calls + window.calls
        else:
            window = workload.drive(stack, args.seconds)
            calls = window.calls
        verdict = workload.finish(stack)
    finally:
        workload.close(stack)

    lines = [f"workload {workload.name}, seed {args.seed}, "
             f"{args.seconds:g} s window, trace {args.trace}",
             f"set-up: imports {import_s:.3f} s + median of stack builds "
             f"{', '.join(f'{build:.3f}' for build in builds)} s"]
    failed = sum(not call.ok for call in calls) + verdict.check_failures
    if args.trace:
        metrics = per_layer
        from perfbench.layers import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
        OUTPUT_DIR.mkdir(exist_ok=True)
        spans_path = OUTPUT_DIR / f"spans-{workload.name}-{args.seed}.json"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to "
                     f"{spans_path.relative_to(ROOT)}")
    else:
        metrics, report = end_to_end(workload, window, verdict, setup_s,
                                     failed)
        units = dict(END_TO_END)
        lines.extend(report)
    lines.extend(verdict.notes)
    lines.append(f"quality over {verdict.quality_results} results; "
                 f"output digest {verdict.digest}")
    lines.extend(f"{name} = {value:.6g} {units[name]}"
                 for name, value in metrics.items())
    correct = verdict.check_failures == 0
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
