"""Stateful, push-based stream sessions over the :class:`~repro.api.engine.Engine`.

:meth:`Engine.process_stream <repro.api.engine.Engine.process_stream>` is a
*pull* API: it consumes a complete ``Iterable[Image]`` and its temporal state
is private to one call.  That shape cannot serve video — a video client does
not have the whole clip up front, it has *the next frame* — and it cannot
share an engine between N concurrent streams.  :class:`StreamSession` is the
long-lived, push-based counterpart:

>>> session = engine.open_session(max_distortion=10.0)
>>> outcome = session.submit(frame)            # one frame in, one result out
>>> outcome.applied_backlight                  # doctest: +SKIP
>>> session.close()

Each session owns its *temporal* state — the
:class:`~repro.core.temporal.BacklightSmoother`, the
:class:`~repro.core.temporal.SceneChangeDetector` and (for the steady-scene
fast path) a :class:`~repro.core.temporal.RollingHistogram` — while the
expensive *solution* state stays shared: every solve goes through the
engine's thread-safe histogram-keyed cache, so N sessions showing similar
content pay one derivation between them.

Two execution modes:

* the default solves the per-frame policy on every frame (cache-accelerated,
  exactly like :meth:`Engine.process`), which is what makes the
  ``process_stream`` wrapper bit-identical to the historical implementation;
* ``scene_gated_solve=True`` enables the fast path: the session folds each
  frame into a rolling histogram and re-derives the solution only when the
  scene detector flags a cut or the rolling estimate drifts off the signature
  the held solution was derived at — steady-scene frames skip the full
  per-frame solve and replay the held solution as a cheap LUT application.

The per-frame work is additionally split into three phases —
:meth:`StreamSession.begin` / :meth:`StreamSession.compute` /
:meth:`StreamSession.complete` — so a serving layer can interleave frames
from many sessions into one shared
:meth:`~repro.api.engine.Engine.process_batch` call (see
:mod:`repro.serve`): ``begin`` observes the frame and decides whether a solve
is needed, the raw per-frame result is then produced either by ``compute``
or by an external batch, and ``complete`` runs the temporal filtering.
:meth:`StreamSession.submit` is exactly ``begin -> compute -> complete``.
Phases of one session must not interleave across frames; a session is
guarded by a lock, but the *ordering* is the caller's contract (the serving
layer keeps at most one frame of a session in flight).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.api.cache import histogram_signature
from repro.api.registry import CompensationAlgorithm
from repro.api.types import CompensationResult, StreamFrameResult
from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
)
from repro.imaging.image import Image

__all__ = [
    "SessionClosedError",
    "StreamFramePlan",
    "StreamSession",
    "StreamSessionStats",
]


class SessionClosedError(RuntimeError):
    """The stream session was closed and accepts no further frames."""


@dataclass(frozen=True)
class StreamFramePlan:
    """What :meth:`StreamSession.begin` decided about one submitted frame.

    Attributes
    ----------
    grayscale:
        The frame converted to grayscale (the policy input).
    scene_change:
        Whether the scene detector flagged the frame as a cut.
    needs_solve:
        Whether the frame must run the full per-frame policy (always true in
        the default mode; on the fast path only scene changes and rolling
        drift trigger a solve, everything else replays the held solution).
    batchable:
        Whether the raw result may come from a shared
        :meth:`~repro.api.engine.Engine.process_batch` instead of
        :meth:`StreamSession.compute` — true exactly for solve frames of
        sessions *without* the fast path (fast-path solves must run through
        ``compute`` so the session can capture the solution it will hold).
    rolling_signature:
        The drift-gate signature of the rolling histogram after this frame
        was folded in (fast path only, ``None`` otherwise) — computed once
        in :meth:`StreamSession.begin` and anchored as the held signature
        when the frame solves.
    """

    grayscale: Image
    scene_change: bool
    needs_solve: bool
    batchable: bool
    rolling_signature: bytes | None = None


@dataclass(frozen=True)
class StreamSessionStats:
    """Lifetime counters of one :class:`StreamSession`.

    ``solved`` counts frames that ran the full per-frame policy (possibly
    answered by the engine's solution cache); ``reused`` counts fast-path
    frames that replayed the session's held solution without any solve or
    cache probe.  ``solved + reused == frames``.
    """

    frames: int
    solved: int
    reused: int
    scene_changes: int


class StreamSession:
    """A long-lived, push-based video stream bound to one engine.

    Created by :meth:`Engine.open_session
    <repro.api.engine.Engine.open_session>`; see the module docstring for
    the execution model.  Sessions are context managers::

        with engine.open_session(10.0) as session:
            for frame in decoder:
                outcome = session.submit(frame)

    Parameters
    ----------
    engine:
        The owning :class:`~repro.api.engine.Engine` (shared, thread-safe).
    algorithm:
        The resolved algorithm instance every frame of this session runs.
    max_distortion:
        Distortion budget applied to every frame.
    smoother, scene_detector:
        Per-session temporal state; fresh defaults when omitted.
    rederive:
        Whether to re-derive the transformation at the smoothed factor when
        smoothing moved it (see ``Engine.process_stream``).
    snap_on_scene_change:
        When true, a detected cut resets the smoother straight to the new
        frame's requested factor instead of slewing there at ``max_step``
        per frame — a cut masks the luminance jump, so the flicker bound
        need not apply across it.  Off by default (backward compatible).
    scene_gated_solve:
        Enables the steady-scene fast path (see module docstring).
    rolling:
        The :class:`~repro.core.temporal.RollingHistogram` backing the fast
        path's drift gate; a fresh default when omitted.  Ignored without
        ``scene_gated_solve``.
    stability_bins:
        Signature resolution of the drift gate: the held solution is
        re-derived when the rolling histogram's signature at this resolution
        moves.  Coarser than the engine's cache key on purpose — the gate
        asks "is this still the same scene", not "is this the same image".
    """

    def __init__(self, engine, algorithm: CompensationAlgorithm,
                 max_distortion: float, *,
                 smoother: BacklightSmoother | None = None,
                 scene_detector: SceneChangeDetector | None = None,
                 rederive: bool = True,
                 snap_on_scene_change: bool = False,
                 scene_gated_solve: bool = False,
                 rolling: RollingHistogram | None = None,
                 stability_bins: int = 32) -> None:
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        if stability_bins < 1:
            raise ValueError("stability_bins must be at least 1")
        self._engine = engine
        self._algorithm = algorithm
        self._max_distortion = float(max_distortion)
        self.smoother = smoother or BacklightSmoother()
        self.scene_detector = scene_detector or SceneChangeDetector()
        self.rederive = bool(rederive)
        self.snap_on_scene_change = bool(snap_on_scene_change)
        self.scene_gated_solve = bool(scene_gated_solve)
        self.stability_bins = int(stability_bins)
        self._rolling = rolling or RollingHistogram()
        self._held = None                       # CompensationSolution | None
        self._held_signature: bytes | None = None
        self._lock = threading.RLock()
        self._closed = False
        self._frames = 0
        self._solved = 0
        self._reused = 0
        self._scene_changes = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> CompensationAlgorithm:
        """The resolved algorithm instance this session runs."""
        return self._algorithm

    @property
    def max_distortion(self) -> float:
        """The distortion budget applied to every frame."""
        return self._max_distortion

    @property
    def closed(self) -> bool:
        """Whether the session stopped accepting frames."""
        with self._lock:
            return self._closed

    @property
    def frames(self) -> int:
        """Number of frames fully processed so far."""
        with self._lock:
            return self._frames

    def stats(self) -> StreamSessionStats:
        """A consistent snapshot of the session's lifetime counters."""
        with self._lock:
            return StreamSessionStats(
                frames=self._frames, solved=self._solved,
                reused=self._reused, scene_changes=self._scene_changes)

    # ------------------------------------------------------------------ #
    # the push API
    # ------------------------------------------------------------------ #
    def submit(self, frame: Image) -> StreamFrameResult:
        """Push one frame through the session and return its outcome.

        Equivalent to ``complete(plan, compute(plan))`` for
        ``plan = begin(frame)`` — the split phases exist for serving layers
        that produce the raw result out of a shared batch.
        """
        with self._lock:
            plan = self.begin(frame)
            return self.complete(plan, self.compute(plan))

    def begin(self, frame: Image) -> StreamFramePlan:
        """Phase 1: observe ``frame`` and plan its execution.

        Advances the scene detector (and, on the fast path, the rolling
        histogram), so frames of one session must ``begin`` in display
        order.  Raises :class:`SessionClosedError` after :meth:`close`.
        """
        with self._lock:
            if self._closed:
                raise SessionClosedError(
                    "this stream session has been closed")
            grayscale = frame.to_grayscale()
            scene_change = self.scene_detector.observe(grayscale)
            if not self.scene_gated_solve:
                return StreamFramePlan(grayscale=grayscale,
                                       scene_change=scene_change,
                                       needs_solve=True, batchable=True)
            if scene_change:
                self._rolling.reset()
            self._rolling.update(grayscale)
            signature = self._rolling_signature()
            needs_solve = (scene_change or self._held is None
                           or signature != self._held_signature)
            return StreamFramePlan(grayscale=grayscale,
                                   scene_change=scene_change,
                                   needs_solve=needs_solve, batchable=False,
                                   rolling_signature=signature)

    def compute(self, plan: StreamFramePlan) -> CompensationResult:
        """Phase 2: the raw per-frame policy result for a planned frame.

        Solve frames run the cache-accelerated per-frame policy (exactly
        :meth:`Engine.process <repro.api.engine.Engine.process>`); fast-path
        steady frames replay the session's held solution as one cheap LUT
        application, marked ``replayed=True``.
        """
        with self._lock:
            if not plan.needs_solve:
                raw = self._algorithm.apply_solution(
                    self._held, plan.grayscale,
                    max_distortion=self._max_distortion)
                self._engine._note_processed()
                return replace(raw, replayed=True)
            if not self.scene_gated_solve:
                return self._engine.process(plan.grayscale,
                                            self._max_distortion,
                                            algorithm=self._algorithm)
            # fast-path solve: go through the shared cache but keep the
            # solution, so the steady frames that follow can replay it
            solution, hit = self._engine._solve(
                self._algorithm, plan.grayscale, self._max_distortion)
            raw = self._algorithm.apply_solution(
                solution, plan.grayscale, max_distortion=self._max_distortion)
            self._engine._note_processed()
            self._held = solution
            self._held_signature = plan.rolling_signature
            return replace(raw, from_cache=True) if hit else raw

    def complete(self, plan: StreamFramePlan,
                 raw: CompensationResult) -> StreamFrameResult:
        """Phase 3: temporal filtering of a raw result into the outcome.

        Smooths / slew-limits the requested backlight factor (or snaps it on
        a cut when ``snap_on_scene_change`` is set), re-derives the
        transformation at the applied factor when enabled, and updates the
        session counters.  Must run in ``begin`` order.
        """
        with self._lock:
            previous = self.smoother.current
            if self.snap_on_scene_change and plan.scene_change:
                # a cut masks the luminance jump: the flicker bound need not
                # apply across it, so jump straight to the new target
                self.smoother.reset(raw.backlight_factor)
                applied = self.smoother.current
            else:
                applied = self.smoother.update(raw.backlight_factor)

            result = raw
            applied_factor = applied
            if self.rederive and abs(applied - raw.backlight_factor) > 1e-9:
                try:
                    candidate = self._algorithm.at_backlight(
                        plan.grayscale, applied,
                        max_distortion=self._max_distortion)
                except NotImplementedError:
                    pass
                else:
                    # re-derivation quantizes the factor (e.g. to the
                    # grayscale-range grid), which can overshoot the
                    # smoother's slew limit.  Accept it only when the
                    # quantized factor still honors the flicker bound
                    # relative to the previous frame's applied factor, so
                    # the programmed backlight and the transform it was
                    # derived for always agree; otherwise keep the raw
                    # result at the smoothed factor (the same fallback as
                    # algorithms without ``at_backlight``).
                    quantized = candidate.backlight_factor
                    if self.smoother.reset_within_limit(quantized,
                                                        reference=previous):
                        result = candidate
                        applied_factor = quantized

            self._frames += 1
            if plan.needs_solve:
                self._solved += 1
            else:
                self._reused += 1
            if plan.scene_change:
                self._scene_changes += 1
            return StreamFrameResult(
                result=result,
                requested_backlight=raw.backlight_factor,
                applied_backlight=applied_factor,
                scene_change=plan.scene_change,
                reused=not plan.needs_solve,
            )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting frames (idempotent).

        A frame whose :meth:`begin` already ran may still :meth:`compute`
        and :meth:`complete` — closing fences new frames, it does not
        abandon the one in flight (which is why the held solution is kept:
        a fast-path frame planned before the close must still replay it).
        """
        with self._lock:
            self._closed = True

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _rolling_signature(self) -> bytes:
        """The drift-gate signature of the current rolling histogram."""
        return histogram_signature(self._rolling.current(),
                                   bins=self.stability_bins)
