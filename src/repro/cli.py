"""Command-line interface for the HEBS reproduction.

Installed as ``repro`` (console script) and ``python -m repro``; the
subcommands cover the common workflows:

``process``
    Run any registered algorithm on one image (a built-in benchmark name or
    a PGM/PPM/CSV file) through the unified :mod:`repro.api` engine, print
    the backlight factor / distortion / power saving, and optionally write
    the compensated image.

``batch``
    Run a whole set of images through :meth:`Engine.process_batch` and print
    per-image results plus the solution-cache statistics.

``algorithms``
    List the algorithms registered with :mod:`repro.api.registry`.

``characterize``
    Build the distortion characteristic curve for a directory of images (or
    the built-in suite) and print the Fig. 7 style table plus the budget →
    range mapping.

``experiment``
    Re-run one of the paper experiments (``table1``, ``fig2`` ... ``fig8``,
    ``comparison``, ``abl-m``, ``abl-dist``, ``throughput``) and print the
    reproduced rows.

``serve``
    Start the concurrent serving layer (:mod:`repro.serve`): warm up the
    solution cache on the benchmark corpus, run a request workload through
    the micro-batching worker pool, and print the live statistics snapshot.
    With ``--port`` (and optionally ``--host``) it serves over TCP instead:
    the asyncio :class:`~repro.serve.net.NetworkServer` speaks the wire
    protocol of :mod:`repro.serve.protocol` until interrupted, and
    :mod:`repro.client` (or ``repro loadtest --connect``) drives it from
    another process.

``loadtest``
    Hammer a server with N concurrent clients on a duplicate-heavy
    workload; print throughput / latency percentiles / cache efficiency,
    optionally against the serial per-request baseline, and optionally emit
    the report as JSON (the CI perf artifact).  ``--streams N`` switches to
    the video-client mode: N concurrent stream sessions each push a
    ``--frames``-frame clip through the server's session layer.
    ``--connect HOST:PORT`` drives a *remote* ``repro serve --port`` server
    instead of an in-process one: every client thread gets its own TCP
    connection through :class:`repro.client.RemoteServerAdapter`.

``benchmarks``
    List the built-in synthetic benchmark images with their statistics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.reporting import Table
from repro.api.registry import (
    algorithm_descriptions,
    algorithm_display_classes,
    available_algorithms,
)
from repro.bench import experiments as paper_experiments
from repro.bench.suite import benchmark_images, default_engine
from repro.bench.throughput import throughput_benchmark
from repro.core.darken import DarkenResult
from repro.core.distortion_curve import build_distortion_curve
from repro.core.pipeline import HEBSResult
from repro.imaging.io import read_image, write_image
from repro.imaging.synthetic import benchmark_names
from repro.quality.distortion import available_measures

__all__ = ["main", "build_parser"]

#: Experiment ids accepted by ``repro experiment`` mapped to their callables.
_EXPERIMENTS = {
    "table1": paper_experiments.table1_power_saving,
    "fig2": paper_experiments.figure2_transform_functions,
    "fig3": paper_experiments.figure3_kband_function,
    "fig6a": paper_experiments.figure6a_ccfl_characterization,
    "fig6b": paper_experiments.figure6b_panel_characterization,
    "fig7": paper_experiments.figure7_distortion_curve,
    "fig8": paper_experiments.figure8_sample_transforms,
    "comparison": paper_experiments.comparison_vs_baselines,
    "abl-m": paper_experiments.ablation_plc_segments,
    "abl-dist": paper_experiments.ablation_distortion_measures,
    "abl-eq": paper_experiments.ablation_equalization_methods,
    "interface": paper_experiments.interface_encoding_study,
    "throughput": throughput_benchmark,
}


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _load_image(source: str):
    if source.lower() in benchmark_names():
        return benchmark_images(names=(source,))[source.lower()]
    path = Path(source)
    if not path.exists():
        raise SystemExit(
            f"error: {source!r} is neither a benchmark name nor an existing file")
    return read_image(path)


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def _resolve_algorithm(args: argparse.Namespace) -> str:
    """The registry name implied by ``--algorithm`` / legacy ``--adaptive``."""
    algorithm = args.algorithm
    if getattr(args, "adaptive", False):
        if algorithm not in ("hebs", "hebs-adaptive"):
            raise SystemExit(
                f"error: --adaptive is HEBS-specific and cannot be combined "
                f"with --algorithm {algorithm}")
        algorithm = "hebs-adaptive"
    return algorithm


def _parse_algorithms(value, *, allow_multiple: bool = False) -> list[str]:
    """Validate an ``--algorithm`` value against the registry.

    The serving commands share one flag; ``loadtest`` additionally accepts
    a comma-separated list (the mixed display-class workload), which the
    single-algorithm commands reject with a clean error.
    """
    names = [name.strip() for name in str(value).split(",") if name.strip()]
    if not names:
        raise SystemExit("error: --algorithm must name an algorithm")
    available = available_algorithms()
    for name in names:
        if name not in available:
            raise SystemExit(
                f"error: unknown algorithm {name!r}; available: "
                f"{', '.join(available)}")
    if len(names) > 1 and not allow_multiple:
        raise SystemExit(
            "error: this command takes a single algorithm "
            "(a comma-separated mix is a loadtest feature)")
    return names


def _policy_budget(args: argparse.Namespace) -> float | None:
    """The budget derived from operating-condition flags, or ``None`` when
    no sensor flag was given (the explicit ``--budget`` stands)."""
    if (args.ambient_lux is None and args.battery is None
            and not args.charging):
        return None
    # deferred import: the policy layer is only needed when flags are used
    from repro.api.budget import BudgetPolicy, OperatingConditions

    conditions = OperatingConditions(
        ambient_lux=250.0 if args.ambient_lux is None else args.ambient_lux,
        battery_level=1.0 if args.battery is None else args.battery,
        charging=bool(args.charging))
    budget = BudgetPolicy().budget_for(conditions)
    _print(f"budget policy: {conditions.ambient_lux:g} lux, "
           f"battery {100.0 * conditions.battery_level:g}%"
           f"{' (charging)' if conditions.charging else ''} "
           f"-> {budget:g}% distortion budget")
    return budget


def _cmd_process(args: argparse.Namespace) -> int:
    image = _load_image(args.image).to_grayscale()
    algorithm = _resolve_algorithm(args)
    engine = default_engine(algorithm=algorithm)
    budget = args.budget
    policy_budget = _policy_budget(args)
    if policy_budget is not None:
        budget = policy_budget
    result = engine.process(image, budget)

    rows = [
        {"quantity": "algorithm", "value": result.algorithm},
        {"quantity": "backlight factor", "value": result.backlight_factor},
        {"quantity": "achieved distortion %", "value": result.distortion},
        {"quantity": "power saving %", "value": result.power_saving_percent},
    ]
    if isinstance(result.details, HEBSResult):
        rows[1:1] = [{"quantity": "dynamic range",
                      "value": result.details.target_range}]
        rows.extend([
            {"quantity": "PLC segments",
             "value": result.details.coarse_curve.n_segments},
            {"quantity": "PLC mse",
             "value": result.details.coarse_curve.mean_squared_error},
        ])
    elif isinstance(result.details, DarkenResult):
        rows[1:1] = [{"quantity": "darkening range",
                      "value": result.details.target_range}]
        rows.extend([
            {"quantity": "emissive power",
             "value": result.details.power.emissive},
            {"quantity": "driver overhead",
             "value": result.details.power.overhead},
        ])
    table = Table(
        title=f"{result.algorithm} on {args.image} (budget {budget:g}%)",
        columns=("quantity", "value"),
        precision=3,
    ).with_rows(rows)
    _print(table.render())
    if result.driver_program is not None:
        _print("reference voltages (V): "
               + ", ".join(f"{float(v):.3f}"
                           for v in result.driver_program.reference_voltages))
    if args.output:
        write_image(result.output, args.output)
        _print(f"transformed image written to {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.images:
        images = [_load_image(source).to_grayscale()
                  for source in args.images]
        labels = list(args.images)
    else:
        suite = benchmark_images()
        images = list(suite.values())
        labels = list(suite)
    images = images * max(args.repeat, 1)
    labels = labels * max(args.repeat, 1)

    engine = default_engine(algorithm=args.algorithm)
    results = engine.process_batch(images, args.budget,
                                   algorithm=args.algorithm)

    table = Table(
        title=(f"{args.algorithm} batch: {len(images)} images at a "
               f"{args.budget:g}% budget"),
        columns=("image", "backlight", "distortion%", "saving%", "cached"),
        precision=3,
    ).with_rows(
        {
            "image": label,
            "backlight": result.backlight_factor,
            "distortion%": result.distortion,
            "saving%": result.power_saving_percent,
            "cached": ("replay" if result.replayed
                       else "yes" if result.from_cache else "no"),
        }
        for label, result in zip(labels, results)
    )
    _print(table.render())
    stats = engine.cache_stats
    _print(f"solution cache: {stats.hits} hits / {stats.misses} misses / "
           f"{stats.replays} replays (hit rate {100.0 * stats.hit_rate:.1f}%, "
           f"reuse rate {100.0 * stats.reuse_rate:.1f}%, size {stats.size})")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    del args
    display_classes = algorithm_display_classes()
    table = Table(
        title="Registered compensation algorithms (repro.api.registry)",
        columns=("name", "display", "description"),
    ).with_rows(
        {"name": name, "display": display_classes[name],
         "description": description}
        for name, description in algorithm_descriptions().items()
    )
    _print(table.render())
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    if args.directory:
        root = Path(args.directory)
        paths = sorted(p for p in root.iterdir()
                       if p.suffix.lower() in (".pgm", ".ppm", ".pnm", ".csv"))
        if not paths:
            raise SystemExit(f"error: no supported images in {root}")
        images = {path.stem: read_image(path) for path in paths}
    else:
        images = benchmark_images()
    curve = build_distortion_curve(images, measure=args.measure)

    ranges = sorted({sample.target_range for sample in curve.samples})
    table = Table(
        title=f"Distortion characteristic curve ({args.measure})",
        columns=("dynamic range", "dataset fit %", "worst-case fit %"),
    ).with_rows(
        {
            "dynamic range": target,
            "dataset fit %": float(curve.predict(target)),
            "worst-case fit %": float(curve.predict(target, worst_case=True)),
        }
        for target in ranges
    )
    _print(table.render())

    budget_table = Table(
        title="Budget -> minimum admissible dynamic range",
        columns=("budget %", "range (dataset)", "range (worst case)"),
    ).with_rows(
        {
            "budget %": budget,
            "range (dataset)": curve.min_range_for_distortion(budget,
                                                              worst_case=False),
            "range (worst case)": curve.min_range_for_distortion(budget,
                                                                 worst_case=True),
        }
        for budget in (2.0, 5.0, 10.0, 20.0, 30.0)
    )
    _print("")
    _print(budget_table.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = _EXPERIMENTS[args.id]
    outcome = runner()
    if isinstance(outcome, Table):
        _print(outcome.render())
    elif isinstance(outcome, dict):
        for key, value in outcome.items():
            if hasattr(value, "shape"):
                _print(f"{key}: array{tuple(value.shape)}")
            elif isinstance(value, dict):
                _print(f"{key}: " + ", ".join(
                    f"{inner}={float(v):.4f}" for inner, v in value.items()))
            else:
                _print(f"{key}: {value}")
    else:   # pragma: no cover - defensive, all experiments return Table/dict
        _print(repr(outcome))
    return 0


def _serving_workload(count: int) -> list:
    """``count`` images cycling through the benchmark suite (duplicate-heavy
    once ``count`` exceeds the suite size — the serving sweet spot)."""
    suite = list(benchmark_images().values())
    return [suite[index % len(suite)] for index in range(count)]


def _build_server(args: argparse.Namespace, algorithm: str | None = None):
    # deferred import: keep `repro --help` fast and serve-free paths lean
    from repro.serve import Server

    engine = default_engine(algorithm=algorithm or args.algorithm)
    return Server(engine=engine, workers=args.workers,
                  max_batch=args.max_batch, max_pending=args.max_pending,
                  max_sessions=args.max_sessions,
                  session_ttl=args.session_ttl)


def _print_server_stats(stats) -> None:
    table = Table(
        title="Server statistics snapshot",
        columns=("quantity", "value"),
        precision=3,
    ).with_rows(
        {"quantity": key, "value": value}
        for key, value in stats.as_dict().items()
    )
    _print(table.render())


def _cmd_serve(args: argparse.Namespace) -> int:
    algorithm = _parse_algorithms(args.algorithm)[0]
    if args.port is not None:
        return _cmd_serve_network(args)
    server = _build_server(args, algorithm)
    with server:
        if args.warmup:
            primed = server.warmup(budgets=(args.budget,),
                                   algorithm=algorithm)
            _print(f"warm-up: {primed} solutions pre-solved into the cache")
        workload = _serving_workload(args.requests)
        results = server.process_many(workload, args.budget,
                                      algorithm=algorithm)
        reused = sum(result.from_cache or result.replayed
                     for result in results)
        _print(f"served {len(results)} requests "
               f"({reused} reused a cached/shared solution)")
        _print_server_stats(server.stats())
    return 0


def _cmd_serve_network(args: argparse.Namespace) -> int:
    """The ``repro serve --port`` mode: serve the wire protocol over TCP
    until interrupted, then print the statistics snapshot."""
    # deferred import: keep `repro --help` fast and serve-free paths lean
    from repro.serve.net import NetworkServer

    algorithm = _parse_algorithms(args.algorithm)[0]
    server = _build_server(args, algorithm)
    if args.warmup:
        primed = server.warmup(budgets=(args.budget,),
                               algorithm=algorithm)
        _print(f"warm-up: {primed} solutions pre-solved into the cache")
    net = NetworkServer(server, host=args.host, port=args.port)

    def ready() -> None:
        host, port = net.address
        # a parseable, flushed readiness line: scripts (and the CI smoke
        # test) wait for it before connecting
        _print(f"serving on {host}:{port} (protocol v1+v2); Ctrl-C to stop")
        sys.stdout.flush()

    try:
        net.run(ready=ready)
    except KeyboardInterrupt:
        _print("interrupted; draining and shutting down")
    finally:
        net.close(wait=True)
    _print_server_stats(server.stats())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """The ``repro cluster`` mode: route the wire protocol across running
    ``repro serve --port`` shards until interrupted."""
    # deferred import: the cluster layer is only needed here
    from repro.cluster import ClusterRouter

    shards = [address.strip()
              for address in str(args.shards).split(",") if address.strip()]
    router = ClusterRouter(shards, host=args.host, port=args.port,
                           replicas=args.replicas,
                           health_interval=args.health_interval,
                           markdown_after=args.markdown_after)

    def ready() -> None:
        host, port = router.address
        # same parseable, flushed readiness contract as `repro serve --port`
        _print(f"cluster serving on {host}:{port} over {len(shards)} "
               f"shard{'s' if len(shards) != 1 else ''} (protocol v1+v2); "
               f"Ctrl-C to stop")
        sys.stdout.flush()

    try:
        router.run(ready=ready)
    except KeyboardInterrupt:
        _print("interrupted; shutting down")
    finally:
        router.close(wait=True)
    table = Table(
        title="Cluster routing snapshot",
        columns=("quantity", "value"),
        precision=3,
    ).with_rows(
        {"quantity": key, "value": value}
        for key, value in router.cluster_info().items()
    )
    _print(table.render())
    return 0


def _stream_workload(streams: int, frames: int) -> list:
    """``streams`` clips of ``frames`` frames each, cycling the benchmark
    suite with a per-stream phase offset — consecutive frames repeat
    content (the video sweet spot) while different streams still overlap
    enough for cross-session coalescing."""
    suite = list(benchmark_images().values())
    return [[suite[(offset + index // 3) % len(suite)]
             for index in range(frames)]
            for offset in range(streams)]


def _cmd_loadtest(args: argparse.Namespace) -> int:
    # deferred import: keep `repro --help` fast and serve-free paths lean
    from repro.serve import (
        report_table,
        run_load,
        run_stream_load,
        stream_report_table,
        time_serial_baseline,
        time_serial_stream_baseline,
    )

    names = _parse_algorithms(args.algorithm, allow_multiple=True)
    # a single algorithm stays a scalar (shared by every request); a list
    # is cycled by workload index — the mixed display-class scenario
    algorithm = names[0] if len(names) == 1 else names
    stream_mode = args.streams > 0
    serial_seconds = None
    if stream_mode:
        workload = _stream_workload(args.streams, args.frames)
    else:
        workload = _serving_workload(args.requests)
    if args.baseline:
        baseline_engine = default_engine(algorithm=names[0],
                                         cache_size=0)
        time_baseline = (time_serial_stream_baseline if stream_mode
                         else time_serial_baseline)
        serial_seconds, _ = time_baseline(baseline_engine, workload,
                                          args.budget,
                                          algorithm=algorithm)
    def hammer(server_like):
        if stream_mode:
            report = run_stream_load(server_like, workload, args.budget,
                                     algorithm=algorithm)
            return report, stream_report_table(report,
                                               serial_seconds=serial_seconds)
        report = run_load(server_like, workload, args.budget,
                          clients=args.clients, algorithm=algorithm)
        return report, report_table(report, serial_seconds=serial_seconds)

    if args.connect:
        # deferred import: the client SDK is only needed for remote runs
        from repro.client import RemoteServerAdapter

        if args.warmup:
            _print("note: --connect targets a remote server; warm-up is the "
                   "server's own (see `repro serve --port`)")
        with RemoteServerAdapter(args.connect) as remote:
            report, table = hammer(remote)
    else:
        server = _build_server(args, names[0])
        with server:
            if args.warmup:
                for name in names:
                    server.warmup(budgets=(args.budget,), algorithm=name)
            report, table = hammer(server)
    _print(table.render())
    if args.json:
        import json

        payload = dict(report.as_dict())
        if serial_seconds is not None:
            payload["serial_seconds"] = round(serial_seconds, 6)
            payload["speedup_vs_serial"] = round(
                serial_seconds / report.elapsed_seconds, 3)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        _print(f"report written to {args.json}")
    return 0


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    del args
    table = Table(
        title="Built-in synthetic benchmark images (USC-SIPI stand-ins)",
        columns=("name", "size", "mean", "std", "dynamic range"),
        precision=1,
    ).with_rows(
        {
            "name": name,
            "size": f"{image.width}x{image.height}",
            "mean": image.mean(),
            "std": image.std(),
            "dynamic range": image.dynamic_range(),
        }
        for name, image in benchmark_images().items()
    )
    _print(table.render())
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HEBS: Histogram Equalization for Backlight Scaling "
                    "(DATE 2005) - reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    process = subparsers.add_parser(
        "process", help="run a compensation algorithm on one image")
    process.add_argument("image", help="benchmark name or image file path")
    process.add_argument("--budget", type=float, default=10.0,
                         help="maximum tolerable distortion in percent")
    process.add_argument("--algorithm", default="hebs",
                         choices=available_algorithms(),
                         help="registered algorithm to run (default: hebs)")
    process.add_argument("--adaptive", action="store_true",
                         help="shorthand for --algorithm hebs-adaptive "
                              "(per-image range search)")
    process.add_argument("--ambient-lux", type=float, default=None,
                         help="ambient illuminance (lux): derive the budget "
                              "from the dynamic-budget policy instead of "
                              "--budget")
    process.add_argument("--battery", type=float, default=None,
                         help="remaining battery fraction in [0, 1] for the "
                              "dynamic-budget policy")
    process.add_argument("--charging", action="store_true",
                         help="device is on external power (disables the "
                              "policy's battery term)")
    process.add_argument("--output", help="write the transformed image here")
    process.set_defaults(func=_cmd_process)

    batch = subparsers.add_parser(
        "batch", help="run a batch of images through the engine")
    batch.add_argument("images", nargs="*",
                       help="benchmark names or image file paths "
                            "(default: the whole built-in suite)")
    batch.add_argument("--budget", type=float, default=10.0,
                       help="maximum tolerable distortion in percent")
    batch.add_argument("--algorithm", default="hebs",
                       choices=available_algorithms(),
                       help="registered algorithm to run (default: hebs)")
    batch.add_argument("--repeat", type=int, default=1,
                       help="process the set this many times (exercises the "
                            "solution cache)")
    batch.set_defaults(func=_cmd_batch)

    algorithms = subparsers.add_parser(
        "algorithms", help="list the registered compensation algorithms")
    algorithms.set_defaults(func=_cmd_algorithms)

    characterize = subparsers.add_parser(
        "characterize", help="build a distortion characteristic curve")
    characterize.add_argument("--directory",
                              help="directory of .pgm/.ppm/.csv images "
                                   "(default: the built-in suite)")
    characterize.add_argument("--measure", default="effective",
                              choices=available_measures(),
                              help="distortion measure to characterize with")
    characterize.set_defaults(func=_cmd_characterize)

    experiment = subparsers.add_parser(
        "experiment", help="re-run one of the paper experiments")
    experiment.add_argument("id", choices=sorted(_EXPERIMENTS),
                            help="experiment identifier (see DESIGN.md §4)")
    experiment.set_defaults(func=_cmd_experiment)

    serving_options = argparse.ArgumentParser(add_help=False)
    serving_options.add_argument("--budget", type=float, default=10.0,
                                 help="maximum tolerable distortion in percent")
    serving_options.add_argument("--algorithm", default="hebs",
                                 help="registered algorithm to serve "
                                      "(default: hebs); loadtest also "
                                      "accepts a comma-separated list for "
                                      "a mixed display-class workload, "
                                      "e.g. hebs,oled-darken")
    serving_options.add_argument("--workers", type=int, default=4,
                                 help="worker threads; an idle worker takes "
                                      "a request at once")
    serving_options.add_argument("--max-batch", type=int, default=32,
                                 help="largest micro-batch, formed from "
                                      "requests that queue while every "
                                      "worker is busy")
    serving_options.add_argument("--max-pending", type=int, default=1024,
                                 help="request queue bound (backpressure past "
                                      "it)")
    serving_options.add_argument("--requests", type=int, default=64,
                                 help="number of requests to serve (cycling "
                                      "the benchmark suite)")
    serving_options.add_argument("--no-warmup", dest="warmup",
                                 action="store_false",
                                 help="skip pre-solving the corpus into the "
                                      "cache")
    serving_options.add_argument("--max-sessions", type=int, default=64,
                                 help="cap on concurrently open stream "
                                      "sessions")
    serving_options.add_argument("--session-ttl", type=float, default=300.0,
                                 help="seconds of inactivity before an idle "
                                      "stream session is evicted")

    serve = subparsers.add_parser(
        "serve", parents=[serving_options],
        help="run the concurrent serving layer over a request workload, "
             "or over TCP with --port")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port mode "
                            "(default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="serve the wire protocol on this TCP port "
                            "(0 picks a free one) until interrupted, "
                            "instead of running the in-process demo "
                            "workload")
    serve.set_defaults(func=_cmd_serve)

    cluster = subparsers.add_parser(
        "cluster",
        help="route the wire protocol across running `repro serve --port` "
             "shards by content (consistent-hash cache affinity)")
    cluster.add_argument("--shards", required=True, metavar="HOST:PORT,...",
                         help="comma-separated backend shard addresses")
    cluster.add_argument("--host", default="127.0.0.1",
                         help="bind address of the router "
                              "(default: 127.0.0.1)")
    cluster.add_argument("--port", type=int, default=0,
                         help="router TCP port (default: 0 picks a free one; "
                              "the conventional port is 7096)")
    cluster.add_argument("--replicas", type=int, default=64,
                         help="virtual nodes per shard on the hash ring")
    cluster.add_argument("--health-interval", type=float, default=1.0,
                         help="seconds between shard health probes")
    cluster.add_argument("--markdown-after", type=int, default=2,
                         help="consecutive probe failures before a shard is "
                              "marked down")
    cluster.set_defaults(func=_cmd_cluster)

    loadtest = subparsers.add_parser(
        "loadtest", parents=[serving_options],
        help="hammer the server with concurrent clients and report "
             "throughput/latency")
    loadtest.add_argument("--clients", type=int, default=8,
                          help="concurrent client threads (one-shot mode)")
    loadtest.add_argument("--streams", type=int, default=0,
                          help="video-client mode: this many concurrent "
                               "stream sessions instead of one-shot clients")
    loadtest.add_argument("--frames", type=int, default=24,
                          help="frames per stream in --streams mode")
    loadtest.add_argument("--baseline", action="store_true",
                          help="also time the serial baseline (per-request "
                               "loop, or session-per-clip in --streams "
                               "mode) and report the speedup")
    loadtest.add_argument("--json",
                          help="write the report to this JSON file (the CI "
                               "perf artifact format)")
    loadtest.add_argument("--connect", metavar="HOST:PORT",
                          help="drive a remote `repro serve --port` server "
                               "over TCP instead of an in-process one "
                               "(one connection per client thread)")
    loadtest.set_defaults(func=_cmd_loadtest)

    benchmarks = subparsers.add_parser(
        "benchmarks", help="list the built-in benchmark images")
    benchmarks.set_defaults(func=_cmd_benchmarks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ValueError as exc:
        # invalid operating points (negative budget, out-of-range factors)
        # become a clean error instead of a traceback
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
