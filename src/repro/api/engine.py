"""The :class:`Engine` facade: batched, streamed, cache-accelerated serving.

One object, three entry points:

* :meth:`Engine.process` — compensate a single image under a distortion
  budget with any registered algorithm, consulting a histogram-keyed LRU
  solution cache first (the paper's Fig. 4 real-time flow, memoized).
* :meth:`Engine.process_batch` — compensate many images.  Images are
  grouped by their quantized histogram signature so each distinct histogram
  is solved exactly once (even on a cold cache, even with caching disabled)
  and the per-image work collapses to a LUT application plus
  power/distortion accounting.
* :meth:`Engine.open_session` — open a long-lived, push-based
  :class:`~repro.api.session.StreamSession` for video: per-session temporal
  state (backlight smoothing, slew limiting, scene-change detection, the
  steady-scene fast path) around the shared solution cache, one frame at a
  time.
* :meth:`Engine.process_stream` — the pull-style convenience over a
  session: compensate a complete frame iterable.  Kept supported and
  bit-identical to its historical implementation.

The engine is the canonical way to use this package; the per-technique
classes (:class:`~repro.core.pipeline.HEBS`, the baselines) remain available
as the implementation layer underneath.  :mod:`repro.serve` builds the
concurrent serving front end (micro-batching, worker pool, backpressure) on
top of this facade.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import replace
from typing import Iterable, Iterator, Mapping, Sequence

from repro.api.cache import CacheStats, SolutionCache, histogram_signature
from repro.api.registry import CompensationAlgorithm, create
from repro.api.session import StreamSession
from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    StreamFrameResult,
)
from repro.core.histogram import Histogram
from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
)
from repro.imaging.image import Image

__all__ = ["Engine"]


class Engine:
    """Unified, cache-accelerated entry point for all compensation algorithms.

    Parameters
    ----------
    algorithm:
        Default algorithm for calls that don't name one: a registry name or
        a ready :class:`~repro.api.registry.CompensationAlgorithm` instance.
    cache_size:
        Capacity of the histogram-keyed LRU solution cache.  ``0`` disables
        caching entirely.
    signature_bins:
        Grayscale-axis resolution of the histogram quantization used for
        cache keys (see :func:`repro.api.cache.histogram_signature`).
        Smaller values make the cache more tolerant of small content
        changes; ``256`` keys on the exact 8-bit histogram.
    algorithm_options:
        Keyword options forwarded to the registry factory whenever the
        engine instantiates an algorithm from a name (e.g. ``measure=``).

    Notes
    -----
    A cache hit reuses the solved transformation / backlight factor /
    driver program; distortion and power are always re-measured on the
    actual pixels.  For an identical image the hit result is therefore
    bitwise-identical to a cold run; for merely histogram-similar images the
    reuse is the approximation the paper's real-time flow already makes.

    Cache entries key on the algorithm *instance* (two configurations of a
    technique never share solutions), so reuse an instance across requests:
    constructing a fresh instance per request can never hit and only fills
    the LRU with entries that die with the instance.

    The engine is **thread safe**: the solution cache takes its own lock,
    the registry/counter state is guarded by an engine lock, and solves are
    serialized per algorithm instance (the underlying pipelines were written
    single-threaded).  Concurrent threads that race on the same cold
    histogram coalesce onto one solve via a double-checked re-probe, so a
    thundering herd pays one derivation, not N, and counts one cache miss:
    the threads that waited for the winner count a hit.
    """

    def __init__(self, algorithm: str | CompensationAlgorithm = "hebs", *,
                 cache_size: int = 256, signature_bins: int = 256,
                 algorithm_options: Mapping[str, object] | None = None) -> None:
        if signature_bins < 1:
            raise ValueError("signature_bins must be at least 1")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.signature_bins = int(signature_bins)
        self._options = dict(algorithm_options or {})
        self._algorithms: dict[str, CompensationAlgorithm] = {}
        self._cache = SolutionCache(cache_size) if cache_size else None
        self._processed = 0
        self._lock = threading.RLock()
        self._solve_locks: weakref.WeakKeyDictionary[
            CompensationAlgorithm, threading.Lock] = weakref.WeakKeyDictionary()
        if isinstance(algorithm, CompensationAlgorithm):
            self.default_algorithm = algorithm.name
            self._algorithms[algorithm.name] = algorithm
        else:
            self.default_algorithm = algorithm

    # ------------------------------------------------------------------ #
    # algorithm resolution
    # ------------------------------------------------------------------ #
    def algorithm(self, name: str | CompensationAlgorithm | None = None,
                  ) -> CompensationAlgorithm:
        """The (memoized) algorithm instance for ``name``.

        Accepts a registry name, a ready instance (adopted under its own
        name), or ``None`` for the engine default.  Two configurations of
        one technique never share solutions: cache keys lead with the
        instance itself, so adopting a different instance under an
        already-used name simply strands the previous instance's entries
        (they age out of the LRU) instead of ever replaying them.
        """
        if isinstance(name, CompensationAlgorithm):
            with self._lock:
                self._algorithms[name.name] = name
            return name
        key = self.default_algorithm if name is None else name
        with self._lock:
            instance = self._algorithms.get(key)
            if instance is None:
                instance = self._algorithms[key] = create(key, **self._options)
        return instance

    def _solve_lock(self, algorithm: CompensationAlgorithm) -> threading.Lock:
        """The lock serializing solves on one algorithm instance (the
        underlying pipelines were written single-threaded)."""
        with self._lock:
            lock = self._solve_locks.get(algorithm)
            if lock is None:
                lock = self._solve_locks[algorithm] = threading.Lock()
        return lock

    # ------------------------------------------------------------------ #
    # cache plumbing
    # ------------------------------------------------------------------ #
    def _cache_key(self, algorithm: CompensationAlgorithm,
                   histogram: Histogram, max_distortion: float) -> tuple:
        signature = histogram_signature(histogram, bins=self.signature_bins)
        # the key leads with the instance itself (identity hash), not its
        # registry name: two configurations of one technique must never
        # share solutions, even when an adoption races an in-flight solve.
        # the budget participates exactly: rounding it would alias distinct
        # budgets that differ past the rounding point onto one solution
        return (algorithm, signature, float(max_distortion))

    def _solve(self, algorithm: CompensationAlgorithm, grayscale: Image,
               max_distortion: float):
        """Look up or derive the solution; returns ``(solution, from_cache)``."""
        key = (None if self._cache is None else
               self._cache_key(algorithm, Histogram.of_image(grayscale),
                               max_distortion))
        return self._solve_group(algorithm, key, grayscale, max_distortion)

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def process(self, image: Image, max_distortion: float,
                algorithm: str | CompensationAlgorithm | None = None,
                ) -> CompensationResult:
        """Compensate one image under a distortion budget."""
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        algo = self.algorithm(algorithm)
        grayscale = image.to_grayscale()
        solution, hit = self._solve(algo, grayscale, max_distortion)
        result = algo.apply_solution(solution, grayscale,
                                     max_distortion=max_distortion)
        self._note_processed()
        return replace(result, from_cache=hit) if hit else result

    def solve(self, source: Image | Histogram, max_distortion: float,
              algorithm: str | CompensationAlgorithm | None = None,
              ) -> CompensationSolution:
        """Histogram-only solve: the paper-native fast path of Fig. 4.

        Derives (or replays from the shared cache) the image-independent
        :class:`~repro.api.types.CompensationSolution` — transformation,
        backlight factor, driver program — for a distortion budget, without
        ever applying it to pixels.  ``source`` may be an
        :class:`~repro.imaging.image.Image` (its histogram is what matters)
        or a bare :class:`~repro.core.histogram.Histogram`, which is all a
        remote client needs to ship (see :mod:`repro.serve.protocol`): the
        returned solution's LUT is applied client-side, so the bandwidth is
        O(histogram) instead of O(pixels).

        A bare histogram is realized as a canonical synthetic image
        (:meth:`Histogram.to_image <repro.core.histogram.Histogram.to_image>`)
        before entering the per-image algorithm surface; the cache key — the
        quantized histogram signature — is identical either way, so solve
        traffic and :meth:`process` traffic share solutions.  For the
        histogram-driven techniques (``hebs``, the DLS variants, ``cbcs``)
        the solution is bit-identical to the one :meth:`process` derives on
        the full image; ``hebs-adaptive`` bisects on distortion *measured*
        on the histogram-realizing image, which approximates (rather than
        reproduces) its per-image selection when the measure is
        layout-sensitive.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        algo = self.algorithm(algorithm)
        if isinstance(source, Histogram):
            grayscale = source.to_image()
        else:
            grayscale = source.to_grayscale()
        solution, _ = self._solve(algo, grayscale, max_distortion)
        return solution

    def cached_solution(self, histogram: Histogram, max_distortion: float,
                        algorithm: str | None = None,
                        ) -> CompensationSolution | None:
        """The cached solution ``solve(histogram, ...)`` would return, or
        ``None``.

        Never solves and never instantiates an algorithm (a name this
        engine has not resolved yet reads as a miss), so it cannot block
        for long: the network server answers a warm ``solve`` RPC with it
        on its event loop and sends only misses to its solve executor.  A
        hit counts as a cache hit; a miss counts nothing, because the
        :meth:`solve` that follows it counts the probe.
        """
        if self._cache is None or max_distortion < 0:
            return None
        with self._lock:
            algo = self._algorithms.get(
                self.default_algorithm if algorithm is None else algorithm)
        if algo is None:
            return None
        solution = self._cache.peek(
            self._cache_key(algo, histogram, max_distortion))
        if solution is not None:
            self._cache.note_hit()
        return solution

    def prime(self, image: Image, max_distortion: float,
              algorithm: str | CompensationAlgorithm | None = None) -> bool:
        """Solve ``image``'s histogram into the cache without applying.

        The warm-up path of :class:`~repro.serve.Server`: pays the solve
        (when not already cached) but skips the per-image LUT application
        and accounting.  Returns ``True`` when a fresh solution was derived
        and cached, ``False`` on a prior hit or with caching disabled.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        if self._cache is None:
            return False
        algo = self.algorithm(algorithm)
        _, hit = self._solve(algo, image.to_grayscale(), max_distortion)
        return not hit

    def process_batch(self, images: Iterable[Image], max_distortion: float,
                      algorithm: str | CompensationAlgorithm | None = None,
                      ) -> list[CompensationResult]:
        """Compensate a batch of images, solving each distinct histogram once.

        Images are grouped by their quantized histogram signature; each
        group shares one solve (and one driver program), so a batch with
        repeated content costs one solve plus N cheap LUT applications.
        Results come back in input order and are identical to calling
        :meth:`process` per image.  Grouping is independent of caching:
        with ``cache_size=0`` identical histograms still share one solve
        within the batch — grouped *exactly* rather than by the quantized
        signature, because the signature tolerance is the caching
        approximation a cache-disabled engine opted out of — there is just
        no reuse across calls.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        algo = self.algorithm(algorithm)
        grayscales = [image.to_grayscale() for image in images]

        # group by cache key so every distinct histogram is solved once
        groups: dict[tuple, list[int]] = {}
        for index, grayscale in enumerate(grayscales):
            histogram = Histogram.of_image(grayscale)
            if self._cache is None:
                key = (algo, histogram.counts.tobytes(),
                       float(max_distortion))
            else:
                key = self._cache_key(algo, histogram, max_distortion)
            groups.setdefault(key, []).append(index)

        results: list[CompensationResult | None] = [None] * len(grayscales)
        for key, indices in groups.items():
            solution, hit = self._solve_group(algo, key,
                                              grayscales[indices[0]],
                                              max_distortion)
            # every group member past the first replays the shared solve;
            # tally them as replays (not as synthetic cache probes, which
            # would double-count lookups and perturb the LRU recency)
            if len(indices) > 1 and self._cache is not None:
                self._cache.note_replays(len(indices) - 1)
            for position, index in enumerate(indices):
                result = algo.apply_solution(solution, grayscales[index],
                                             max_distortion=max_distortion)
                if hit or position > 0:
                    result = replace(result, from_cache=hit,
                                     replayed=position > 0)
                results[index] = result
        self._note_processed(len(grayscales))
        return list(results)

    def _solve_group(self, algorithm: CompensationAlgorithm,
                     key: tuple | None, grayscale: Image,
                     max_distortion: float):
        """Look up or derive the solution for one cache key; returns
        ``(solution, from_cache)``.  ``key`` is ``None`` (and ignored) when
        caching is disabled."""
        if self._cache is None:
            with self._solve_lock(algorithm):
                return algorithm.solve(grayscale, max_distortion), False
        # the unlocked probe counts only a hit.  A thread that finds nothing
        # re-probes under the solve lock, where a thread that lost a race on
        # the same histogram finds the winner's entry (its hit), so every
        # request counts one probe and the misses count the solves.
        solution = self._cache.peek(key)
        if solution is not None:
            self._cache.note_hit()
            return solution, True
        with self._solve_lock(algorithm):
            solution = self._cache.get(key)
            if solution is not None:
                return solution, True
            solution = algorithm.solve(grayscale, max_distortion)
            self._cache.put(key, solution)
        return solution, False

    def open_session(self, max_distortion: float,
                     algorithm: str | CompensationAlgorithm | None = None, *,
                     smoother: BacklightSmoother | None = None,
                     scene_detector: SceneChangeDetector | None = None,
                     rederive: bool = True,
                     snap_on_scene_change: bool = False,
                     scene_gated_solve: bool = False,
                     rolling: RollingHistogram | None = None,
                     stability_bins: int = 32) -> StreamSession:
        """Open a long-lived, push-based stream session on this engine.

        The session owns its temporal state (smoother, scene detector,
        rolling histogram) and shares the engine's thread-safe solution
        cache, so N concurrent sessions showing similar content pay one
        solve between them.  Push frames with
        :meth:`~repro.api.session.StreamSession.submit`, end the stream
        with :meth:`~repro.api.session.StreamSession.close` (sessions are
        context managers).  See :class:`~repro.api.session.StreamSession`
        for the parameters and the ``scene_gated_solve`` fast path;
        :mod:`repro.serve` serves many such sessions concurrently through
        shared micro-batches.  Raises ``ValueError`` (from the session
        constructor) for a negative ``max_distortion``.
        """
        return StreamSession(
            self, self.algorithm(algorithm), max_distortion,
            smoother=smoother, scene_detector=scene_detector,
            rederive=rederive, snap_on_scene_change=snap_on_scene_change,
            scene_gated_solve=scene_gated_solve, rolling=rolling,
            stability_bins=stability_bins)

    def process_stream(self, frames: Iterable[Image], max_distortion: float,
                       algorithm: str | CompensationAlgorithm | None = None, *,
                       smoother: BacklightSmoother | None = None,
                       scene_detector: SceneChangeDetector | None = None,
                       rederive: bool = True,
                       snap_on_scene_change: bool = False,
                       ) -> Iterator[StreamFrameResult]:
        """Compensate a frame stream with temporal backlight filtering.

        A thin pull-style wrapper over :meth:`open_session`: one session is
        opened for the call, every frame of ``frames`` is pushed through
        :meth:`~repro.api.session.StreamSession.submit`, and the session is
        closed when the iterable (or the consumer) ends.  The per-frame
        behaviour is unchanged from the historical inline implementation —
        the per-frame policy (cache-accelerated, like :meth:`process`)
        proposes a backlight factor, the
        :class:`~repro.core.temporal.BacklightSmoother` smooths and
        slew-limits it so consecutive frames never flicker, the
        :class:`~repro.core.temporal.SceneChangeDetector` flags cuts, and
        when smoothing moves the factor and ``rederive`` is set the
        transformation is re-derived at the applied factor via the
        algorithm's ``at_backlight`` hook (falling back to the raw result
        for algorithms without one).  ``snap_on_scene_change`` lets a
        detected cut reset the smoother straight to the new target (a cut
        masks the luminance jump); off by default.

        Yields one :class:`~repro.api.types.StreamFrameResult` per frame,
        lazily, so arbitrarily long streams run in constant memory.

        The stream state (the session) is private to the call: share the
        engine across threads freely, but don't share one
        ``process_stream`` iterator.  Clients that have *frames* rather
        than an iterable (a decoder loop, a network stream) should open a
        session directly.
        """
        session = self.open_session(
            max_distortion, algorithm=algorithm, smoother=smoother,
            scene_detector=scene_detector, rederive=rederive,
            snap_on_scene_change=snap_on_scene_change)
        with session:
            for frame in frames:
                yield session.submit(frame)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/replay counters of the solution cache (zeros when
        disabled)."""
        if self._cache is None:
            return CacheStats(hits=0, misses=0, size=0, max_size=0,
                              evictions=0, replays=0)
        return self._cache.stats

    @property
    def processed(self) -> int:
        """Number of images compensated through this engine so far."""
        with self._lock:
            return self._processed

    def _note_processed(self, count: int = 1) -> None:
        """Tally ``count`` compensated images (used by the entry points and
        by :class:`~repro.api.session.StreamSession`)."""
        with self._lock:
            self._processed += count

    def clear_cache(self) -> None:
        """Drop all cached solutions and reset the counters."""
        if self._cache is not None:
            self._cache.clear()
