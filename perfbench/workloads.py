"""The benchmark's workloads: ``cold-solve``, ``slideshow`` and ``video``.

Each workload makes its inputs from the seed alone, builds the serving
stack it loads (the part timed as set-up), drives it for a window, checks
every output it can afford to and keeps a fixed, seed-determined prefix of
results for the quality figures and the output digest, so those repeat
exactly across runs of one seed whatever the throughput.  ``rewind`` puts
a workload back to its first request with the caches as set-up left
them, so a traced pass repeats the untraced pass's work exactly; only the
first pass feeds the quality figures and the digest.

* ``cold-solve`` -- one in-process caller of ``Engine.process`` in a
  closed loop over content no cache has seen: the solver layers
  (``core.pipeline`` bisection, ``core.plc``, ``core.darken``) and
  ``quality.distortion`` do nearly all the work; serving, client and
  cluster are bypassed and the cache only takes writes (and evicts).
* ``slideshow`` -- two protocol-v2 clients in a closed loop through a
  ``ClusterRouter`` over two in-process shards, on a pre-warmed corpus:
  every request is a cache hit, so the wire codec, router hop, coalescer,
  hit path and per-request distortion re-measure do the work.
* ``video`` -- two stream sessions sending feed RPCs straight to one
  ``NetworkServer`` in an open loop at 15 fps with staggered phases:
  the per-frame session path under an arrival schedule, timed from each
  frame's due time against the frame deadline; no router.

Every thread pool the stacks start is at most two wide and load comes from
at most two threads, matching a two-core machine (``run.py`` pins the whole
run to one of its CPUs).
"""

from __future__ import annotations

import math
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.bench.suite import benchmark_images, benchmark_names, default_engine
from repro.client import Client
from repro.cluster import ClusterRouter
from repro.core.histogram import Histogram
from repro.core.temporal import BacklightSmoother
from repro.imaging.image import Image
from repro.imaging.synthetic import SyntheticImageSpec, generate
from repro.serve import NetworkServer, Server

from perfbench.measure import (
    OutputDigest,
    Request,
    combine_digests,
    generator_lag,
)

#: One frame period of the 15 fps video workload.
FRAME_PERIOD_S = 1.0 / 15.0
#: Worker threads of every coalescer, solve pool and router key pool.
POOL_WIDTH = 2
#: Seconds any one thread join may take before the run is declared hung.
JOIN_TIMEOUT_S = 120.0


@dataclass
class Window:
    """The requests of one timed window and its wall-clock extent."""

    calls: list[Request]
    start: float
    end: float
    generator_lag_s: list[float] = field(default_factory=list)
    frames_reused: int = 0
    scene_changes: int = 0

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 1e-9)

    @property
    def completed(self) -> int:
        return sum(call.ok for call in self.calls)


@dataclass
class Verdict:
    """Output checks and the deterministic quality figures of a run."""

    check_failures: int
    power_saving_pct: float
    budget_met_rate: float
    quality_results: int
    digest: str
    notes: list[str] = field(default_factory=list)


class _Errors:
    """First few request errors, echoed to stderr so a failing run says
    why."""

    def __init__(self, limit: int = 3) -> None:
        self._limit = limit
        self._lock = threading.Lock()
        self.count = 0

    def note(self, context: str) -> None:
        with self._lock:
            self.count += 1
            if self.count <= self._limit:
                print(f"request failed ({context}):\n{traceback.format_exc()}",
                      file=sys.stderr)


def _run_threads(targets) -> None:
    """Run each callable on its own thread and wait for all of them."""
    failures: list[BaseException] = []

    def guard(target):
        def run():
            try:
                target()
            except BaseException as exc:   # re-raised on the caller below
                failures.append(exc)
        return run

    threads = [threading.Thread(target=guard(target), daemon=True,
                                name=f"perfbench-load-{index}")
               for index, target in enumerate(targets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load thread did not finish in time")
    if failures:
        raise failures[0]


def _cache_totals(engines) -> dict[str, int]:
    totals = {"cache_hits": 0, "cache_misses": 0, "cache_replays": 0,
              "cache_evictions": 0}
    for engine in engines:
        stats = engine.cache_stats
        totals["cache_hits"] += stats.hits
        totals["cache_misses"] += stats.misses
        totals["cache_replays"] += stats.replays
        totals["cache_evictions"] += stats.evictions
    return totals


def _quality(power: list[float], within: list[bool]) -> tuple[float, float]:
    return (float(np.mean(power)) if power else 0.0,
            float(np.mean(within)) if within else 0.0)


# --------------------------------------------------------------------- #
# cold-solve
# --------------------------------------------------------------------- #
#: Scene builders of ``imaging.synthetic`` with seed-dependent content (the
#: test chart ignores its random stream, so it would repeat across seeds).
COLD_SCENES = ("portrait", "landscape", "still_life", "texture", "low_key",
               "architecture")
#: Steps of the R2 low-discrepancy sequence over (key, contrast).
_R2_STEPS = np.array([0.7548776662466927, 0.5698402909980532])


def cold_images(seed: int, count: int, block: int) -> list[Image]:
    """``count`` unseen 128x128 images from ``imaging.synthetic`` specs.

    Names derive from the seed, so none is a suite image and every seed
    draws new noise fields.  Key and contrast follow a low-discrepancy
    sequence from a seeded start, so every seed covers their ranges evenly
    (the content mix, and with it the cost mix, barely moves between
    seeds).  The scene rotates every ``block`` images, so with ``block``
    equal to the number of (algorithm, budget) combinations every scene
    meets every combination equally often.
    """
    start = np.random.default_rng([seed, 0xC01D]).random(2)
    images = []
    for index in range(count):
        key, contrast = (start + (index + 1) * _R2_STEPS) % 1.0
        spec = SyntheticImageSpec(
            name=f"cold-{seed}-{index}",
            scene=COLD_SCENES[(index // block) % len(COLD_SCENES)],
            key=0.30 + 0.30 * float(key),
            contrast=0.60 + 0.70 * float(contrast))
        images.append(generate(spec))
    return images


class ColdSolve:
    """Closed loop, one caller of ``Engine.process`` on unseen content."""

    name = "cold-solve"
    primary = "process"
    #: On-time limit of one request: a cold solve may take several frames,
    #: but not a quarter second.
    limit_s = 0.25
    ALGORITHMS = ("hebs", "hebs-adaptive", "oled-darken")
    BUDGETS = (5.0, 10.0, 20.0)
    #: More distinct images than the engine's 256-entry cache holds.
    IMAGES = 320
    #: Requests whose results feed the quality figures, the digest and the
    #: per-result checks; a run lasts until this many completed.
    QUALITY_PREFIX = 270

    def __init__(self, seed: int, seconds: float) -> None:
        self.combos = [(algorithm, budget) for algorithm in self.ALGORITHMS
                       for budget in self.BUDGETS]
        self.images = cold_images(seed, self.IMAGES, len(self.combos))
        self._next = 0
        self._recording = True
        self._kept: list[tuple] = []
        self._errors = _Errors()

    def start(self):
        engine = default_engine()
        for algorithm in self.ALGORITHMS:
            engine.algorithm(algorithm)
        return engine

    def close(self, engine) -> None:
        pass

    def prepare(self, engine) -> None:
        pass

    def counters(self, engine) -> dict[str, int]:
        return _cache_totals([engine])

    def rewind(self, engine) -> None:
        self._next = 0
        self._recording = False
        engine.clear_cache()

    def drive(self, engine, seconds: float) -> Window:
        calls = []
        start = time.perf_counter()
        deadline = start + seconds
        while (time.perf_counter() < deadline
               or len(calls) < self.QUALITY_PREFIX):
            index = self._next
            self._next += 1
            image = self.images[index % len(self.images)]
            algorithm, budget = self.combos[index % len(self.combos)]
            sent = time.perf_counter()
            try:
                result = engine.process(image, budget, algorithm=algorithm)
            except Exception:   # counted as a failed request
                result = None
                self._errors.note(f"{algorithm} at {budget}%")
            done = time.perf_counter()
            calls.append(Request("process", sent, done, result is not None))
            if self._recording and index < self.QUALITY_PREFIX:
                self._kept.append((image, algorithm, budget, result))
        return Window(calls, start, calls[-1].done if calls else start)

    def finish(self, engine) -> Verdict:
        """Check the kept results, then re-derive one per (algorithm,
        budget) on a fresh cacheless engine: cache writes and evictions
        must not change what a request returns."""
        failures = 0
        power, within = [], []
        digest = OutputDigest()
        first: dict[tuple, tuple] = {}
        per_algorithm = {name: [0, 0] for name in self.ALGORITHMS}
        for image, algorithm, budget, result in self._kept:
            if result is None:
                continue
            original = result.original
            expected = result.transform.apply(original)
            valid = (np.array_equal(result.output.pixels, expected.pixels)
                     and 0.0 < result.backlight_factor <= 1.0
                     and result.transform.is_monotone())
            if algorithm == "oled-darken":
                valid = valid and bool(np.all(
                    result.output.pixels <= original.pixels))
            failures += not valid
            power.append(result.power_saving_percent)
            within.append(result.distortion <= budget)
            per_algorithm[algorithm][0] += 1
            per_algorithm[algorithm][1] += result.distortion > budget
            digest.add(result.output.pixels, result.backlight_factor,
                       result.transform.lut())
            first.setdefault((algorithm, budget), (image, result))

        fresh = default_engine(cache_size=0)
        for (algorithm, budget), (image, result) in first.items():
            again = fresh.process(image, budget, algorithm=algorithm)
            if not (np.array_equal(again.output.pixels, result.output.pixels)
                    and again.backlight_factor == result.backlight_factor
                    and again.distortion == result.distortion):
                failures += 1
        saving, met = _quality(power, within)
        notes = [f"over budget: " + ", ".join(
            f"{name} {over}/{total}"
            for name, (total, over) in per_algorithm.items())]
        contract = [name for name in self.ALGORITHMS if name != "hebs"]
        total = sum(per_algorithm[name][0] for name in contract)
        over = sum(per_algorithm[name][1] for name in contract)
        notes.append(f"budget_violation_rate ({'/'.join(contract)}): "
                     f"{over}/{total}")
        return Verdict(check_failures=failures,
                       power_saving_pct=saving, budget_met_rate=met,
                       quality_results=len(power), digest=digest.hexdigest(),
                       notes=notes)


# --------------------------------------------------------------------- #
# slideshow
# --------------------------------------------------------------------- #
class _SlideshowStack:
    def __init__(self, shards, router) -> None:
        self.shards = shards
        self.router = router
        self.clients: list[Client] = []
        self.stats_client: Client | None = None

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.stats_client is not None:
            self.stats_client.close()
        self.router.close()
        for shard in self.shards:
            shard.close()


class Slideshow:
    """Closed loop, two v2 clients through a router over two shards."""

    name = "slideshow"
    primary = "process"
    #: On-time limit: a slide lands within one 15 fps frame period.
    limit_s = FRAME_PERIOD_S
    CORPUS = ("lena", "autumn", "football", "peppers", "greens", "pears",
              "onion", "trees")
    BUDGETS = (5.0, 10.0, 20.0)
    ALGORITHM = "hebs"
    CLIENTS = 2
    #: Fixed shard ports: the router's hash ring places keys by shard
    #: address, so kernel-chosen ports would deal the corpus differently
    #: to the shards on every run (a run-to-run swing of several percent).
    SHARD_PORTS = (29401, 29402)
    #: Whole shuffled rounds of the corpus, per client, whose results feed
    #: the quality figures and the digest.
    QUALITY_ROUNDS = 2

    def __init__(self, seed: int, seconds: float) -> None:
        self.images = benchmark_images(names=self.CORPUS)
        self.pairs = [(name, budget) for name in self.CORPUS
                      for budget in self.BUDGETS]
        self._seed = seed
        self._recording = True
        self._restart_order()
        self._reference: dict[tuple, tuple] = {}
        self._digests = [OutputDigest() for _ in range(self.CLIENTS)]
        self._power: list[list[float]] = [[] for _ in range(self.CLIENTS)]
        self._within: list[list[bool]] = [[] for _ in range(self.CLIENTS)]
        self._mismatches = [0] * self.CLIENTS
        self._errors = _Errors()

    def start(self) -> _SlideshowStack:
        shards = []
        for port in self.SHARD_PORTS:
            server = Server(engine=default_engine(), workers=POOL_WIDTH)
            network = NetworkServer(server, solve_workers=POOL_WIDTH,
                                    port=port)
            try:
                network.start()
            except OSError as exc:
                print(f"shard port {port} unavailable ({exc}); using a free "
                      f"port, so the corpus may split differently",
                      file=sys.stderr)
                network = NetworkServer(server, solve_workers=POOL_WIDTH)
                network.start()
            shards.append(network)
        router = ClusterRouter(
            [f"{host}:{port}" for host, port in
             (shard.address for shard in shards)],
            key_workers=POOL_WIDTH)
        router.start()
        stack = _SlideshowStack(shards, router)
        # pre-warm through the router, so each solution lands on the shard
        # that owns its routing key
        with self._client(stack) as warm:
            for name, budget in self.pairs:
                warm.solve(Histogram.of_image(self.images[name]), budget,
                           algorithm=self.ALGORITHM)
        return stack

    def close(self, stack: _SlideshowStack) -> None:
        stack.close()

    @staticmethod
    def _client(stack: _SlideshowStack) -> Client:
        host, port = stack.router.address
        return Client(host=host, port=port, timeout=30.0, retries=0,
                      retry_overloaded=False)

    def prepare(self, stack: _SlideshowStack) -> None:
        reference = default_engine()
        for name, budget in self.pairs:
            result = reference.process(self.images[name], budget,
                                       algorithm=self.ALGORITHM)
            self._reference[(name, budget)] = (result.output.pixels,
                                               result.backlight_factor)
        stack.clients = [self._client(stack) for _ in range(self.CLIENTS)]
        for client in stack.clients:
            client.connect()
        stack.stats_client = self._client(stack)

    def counters(self, stack: _SlideshowStack) -> dict[str, int]:
        totals = _cache_totals(shard.server.engine for shard in stack.shards)
        totals["rejected"] = sum(shard.server.stats().rejected
                                 for shard in stack.shards)
        totals["bytes_up"] = sum(client.bytes_sent for client in stack.clients)
        totals["bytes_down"] = sum(client.bytes_received
                                   for client in stack.clients)
        cluster = stack.stats_client.stats_dict()["cluster"]
        totals["routed"] = sum(cluster["routed"].values())
        totals["fast_path"] = cluster["frames_fast_path"]
        totals["failovers"] = cluster["failovers"]
        return totals

    def _restart_order(self) -> None:
        self._rngs = [np.random.default_rng([self._seed, 0x5113, client])
                      for client in range(self.CLIENTS)]
        self._order: list[list[int]] = [[] for _ in range(self.CLIENTS)]
        self._slides = [0] * self.CLIENTS

    def rewind(self, stack: _SlideshowStack) -> None:
        self._restart_order()
        self._recording = False

    def _next_slide(self, client: int) -> tuple[int, str, float]:
        order = self._order[client]
        slide = self._slides[client]
        if slide % len(self.pairs) == 0:
            order[:] = self._rngs[client].permutation(len(self.pairs))
        self._slides[client] += 1
        name, budget = self.pairs[order[slide % len(self.pairs)]]
        return slide, name, budget

    def drive(self, stack: _SlideshowStack, seconds: float) -> Window:
        quality_slides = self.QUALITY_ROUNDS * len(self.pairs)
        per_client: list[list[Request]] = [[] for _ in range(self.CLIENTS)]
        start = time.perf_counter()
        deadline = start + seconds

        def load(index: int) -> None:
            client = stack.clients[index]
            calls = per_client[index]
            while (time.perf_counter() < deadline
                   or self._slides[index] < quality_slides):
                slide, name, budget = self._next_slide(index)
                image = self.images[name]
                for kind in ("process", "compensate"):
                    sent = time.perf_counter()
                    try:
                        if kind == "process":
                            result = client.process(image, budget,
                                                    algorithm=self.ALGORITHM)
                        else:
                            result = client.compensate(
                                image, budget, algorithm=self.ALGORITHM)
                    except Exception:   # counted as a failed request
                        result = None
                        self._errors.note(f"{kind} {name} at {budget}%")
                    calls.append(Request(kind, sent, time.perf_counter(),
                                         result is not None))
                    if result is not None:
                        self._check(index,
                                    self._recording and slide < quality_slides,
                                    kind, name, budget, result)

        _run_threads([lambda index=index: load(index)
                      for index in range(self.CLIENTS)])
        calls = [call for client in per_client for call in client]
        return Window(calls, start, max((call.done for call in calls),
                                        default=start))

    def _check(self, client: int, kept: bool, kind: str, name: str,
               budget: float, result) -> None:
        pixels, backlight = self._reference[(name, budget)]
        if not (np.array_equal(result.output.pixels, pixels)
                and result.backlight_factor == backlight):
            self._mismatches[client] += 1
        if kept:
            self._digests[client].add(result.output.pixels,
                                      result.backlight_factor,
                                      result.transform.lut())
            if kind == "process":
                self._power[client].append(result.power_saving_percent)
                self._within[client].append(result.distortion <= budget)

    def finish(self, stack: _SlideshowStack) -> Verdict:
        power = [value for values in self._power for value in values]
        within = [value for values in self._within for value in values]
        saving, met = _quality(power, within)
        return Verdict(check_failures=sum(self._mismatches),
                       power_saving_pct=saving, budget_met_rate=met,
                       quality_results=len(power),
                       digest=combine_digests(self._digests),
                       notes=[f"reference mismatches: {sum(self._mismatches)}"])


# --------------------------------------------------------------------- #
# video
# --------------------------------------------------------------------- #
class _VideoStack:
    def __init__(self, network: NetworkServer) -> None:
        self.network = network
        self.clients: list[Client] = []
        self.sessions: list = []

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        for client in self.clients:
            client.close()
        self.network.close()


def video_clips(seed: int, frames_per_stream: int, streams: int,
                pan_share: float, noise_sigma: float) -> list[list[Image]]:
    """Seeded clips of the suite's scenes, cutting between them.

    Every stream shows every suite scene once, for an equal share of its
    frames, in its own seeded order.  Each scene first pans (the histogram
    holds still) for ``pan_share`` of its frames, then carries fresh
    per-frame noise (every frame a new histogram).  So every seed shows
    the same content and motion, in another order and with other noise.
    Each stream's copy of a scene carries its own fixed noise, so no frame
    of one stream repeats a histogram of the other: which stream shows a
    scene first would otherwise decide whose solve the cache answers.
    """
    rng = np.random.default_rng([seed, 0x71DE0])
    suite = benchmark_images()
    names = benchmark_names()
    bounds = np.linspace(0, frames_per_stream,
                         len(names) + 1).round().astype(int)
    clips = []
    for stream in range(streams):
        scenes = [names[index] for index in rng.permutation(len(names))]
        frames = []
        for position, name in enumerate(scenes):
            base = (suite[name].pixels
                    + rng.normal(0.0, noise_sigma, suite[name].shape))
            length = bounds[position + 1] - bounds[position]
            panning = round(pan_share * length)
            for offset in range(length):
                if offset < panning:
                    pixels = np.roll(base, (offset, 2 * offset), axis=(0, 1))
                else:
                    pixels = base + rng.normal(0.0, noise_sigma, base.shape)
                frames.append(Image(np.clip(np.rint(pixels), 0, 255),
                                    name=f"{name}-{stream}-{len(frames)}"))
        clips.append(frames)
    return clips


class Video:
    """Open loop, two 15 fps stream sessions straight to one server."""

    name = "video"
    primary = "frame"
    #: A frame answered more than one frame period after it was due misses.
    limit_s = FRAME_PERIOD_S
    STREAMS = 2
    BUDGET = 10.0
    ALGORITHM = "hebs"
    #: Share of each scene's frames that pan before the noise starts.
    PAN_SHARE = 0.3
    NOISE_SIGMA = 3.0
    #: Lead-in between arming the schedule and the first frame due.
    LEAD_IN_S = 0.05

    def __init__(self, seed: int, seconds: float) -> None:
        self.frames_per_stream = max(1, math.ceil(seconds / FRAME_PERIOD_S))
        self.clips = video_clips(seed, self.frames_per_stream, self.STREAMS,
                                 self.PAN_SHARE, self.NOISE_SIGMA)
        self.max_step = BacklightSmoother().max_step
        self._applied = [1.0] * self.STREAMS      # the smoother's initial
        self._recording = True
        self._digests = [OutputDigest() for _ in range(self.STREAMS)]
        self._power: list[float] = []
        self._within: list[bool] = []
        self._failures = [0] * self.STREAMS
        self._errors = _Errors()

    def start(self) -> _VideoStack:
        server = Server(engine=default_engine(), workers=POOL_WIDTH)
        network = NetworkServer(server, solve_workers=POOL_WIDTH)
        network.start()
        return _VideoStack(network)

    def close(self, stack: _VideoStack) -> None:
        stack.close()

    def prepare(self, stack: _VideoStack) -> None:
        host, port = stack.network.address
        stack.clients = [Client(host=host, port=port, timeout=30.0,
                                retries=0, retry_overloaded=False)
                         for _ in range(self.STREAMS)]
        self._open_sessions(stack)

    def _open_sessions(self, stack: _VideoStack) -> None:
        stack.sessions = [client.open_session(self.BUDGET,
                                              algorithm=self.ALGORITHM,
                                              scene_gated_solve=True)
                          for client in stack.clients]

    def rewind(self, stack: _VideoStack) -> None:
        for session in stack.sessions:
            session.close()
        stack.network.server.engine.clear_cache()
        self._open_sessions(stack)
        self._applied = [1.0] * self.STREAMS
        self._recording = False

    def counters(self, stack: _VideoStack) -> dict[str, int]:
        server = stack.network.server
        totals = _cache_totals([server.engine])
        totals["rejected"] = server.stats().rejected
        totals["bytes_up"] = sum(client.bytes_sent for client in stack.clients)
        totals["bytes_down"] = sum(client.bytes_received
                                   for client in stack.clients)
        return totals

    def drive(self, stack: _VideoStack, seconds: float) -> Window:
        """Stream the clips on the fixed schedule (their length already
        fixes the window)."""
        frames: list[list[Request]] = [[] for _ in range(self.STREAMS)]
        lag: list[list[float]] = [[] for _ in range(self.STREAMS)]
        flags = [[0, 0] for _ in range(self.STREAMS)]
        start = time.perf_counter() + self.LEAD_IN_S

        def stream(index: int) -> None:
            session = stack.sessions[index]
            offset = index * FRAME_PERIOD_S / self.STREAMS
            free = start
            for position, frame in enumerate(self.clips[index]):
                due = start + offset + position * FRAME_PERIOD_S
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    outcome = session.submit(frame)
                except Exception:   # a failed frame misses its deadline
                    outcome = None
                    self._errors.note(f"stream {index} frame {position}")
                done = time.perf_counter()
                frames[index].append(
                    Request("frame", due, done, outcome is not None))
                lag[index].append(generator_lag(due, free, sent))
                free = done
                if outcome is not None:
                    flags[index][0] += outcome.reused
                    flags[index][1] += outcome.scene_change
                    self._check(index, frame, outcome)

        _run_threads([lambda index=index: stream(index)
                      for index in range(self.STREAMS)])
        calls = [frame for stream_frames in frames for frame in stream_frames]
        return Window(calls, start,
                      max((call.done for call in calls), default=start),
                      generator_lag_s=[value for values in lag
                                       for value in values],
                      frames_reused=sum(flag[0] for flag in flags),
                      scene_changes=sum(flag[1] for flag in flags))

    def _check(self, index: int, frame: Image, outcome) -> None:
        result = outcome.result
        applied = outcome.applied_backlight
        valid = (abs(applied - self._applied[index]) <= self.max_step + 1e-9
                 and np.array_equal(result.output.pixels,
                                    result.transform.apply(
                                        frame.to_grayscale()).pixels))
        self._failures[index] += not valid
        self._applied[index] = applied
        if self._recording:
            self._digests[index].add(result.output.pixels, applied,
                                     result.transform.lut())
            self._power.append(result.power_saving_percent)
            self._within.append(result.distortion <= self.BUDGET)

    def finish(self, stack: _VideoStack) -> Verdict:
        saving, met = _quality(self._power, self._within)
        return Verdict(check_failures=sum(self._failures),
                       power_saving_pct=saving, budget_met_rate=met,
                       quality_results=len(self._power),
                       digest=combine_digests(self._digests),
                       notes=[f"frames breaking max_step {self.max_step} or "
                              f"their LUT: {sum(self._failures)}"])


WORKLOADS = {workload.name: workload
             for workload in (ColdSolve, Slideshow, Video)}
