"""Worker-pool serving front end: warm-up, backpressure, stream sessions.

:class:`Server` is the deployable face of the reproduction — the ROADMAP's
"heavy traffic" direction built on pieces this package already has:

* a **thread-safe** :class:`~repro.api.engine.Engine` (locked solution
  cache, per-algorithm solve locks, race-coalesced cold solves),
* the work-conserving :class:`~repro.serve.coalescer.RequestCoalescer`: an
  idle worker takes a request at once, and requests that queue while every
  worker is busy are batched, so N concurrent clients with similar content
  pay one solve,
* push-based :class:`~repro.api.session.StreamSession` streams, multiplexed
  over the same micro-batches by the :class:`SessionManager` (open / feed /
  close, idle-TTL eviction, session cap), and
* a :class:`~repro.serve.stats.StatsRecorder` exposing throughput, latency
  percentiles, cache efficiency and per-session frame stats as one
  consistent snapshot.

Typical use::

    from repro.serve import Server

    with Server(workers=4) as server:
        server.warmup()                       # pre-solve the corpus
        future = server.submit(image, max_distortion=10.0)
        result = future.result()

        session = server.open_session(max_distortion=10.0)
        outcome = session.submit(frame).result()    # a StreamFrameResult
        session.close()
        print(server.stats().as_dict())

``repro serve`` and ``repro loadtest`` drive the same class from the
command line; ``examples/serving_demo.py`` and
``examples/stream_sessions.py`` show full sessions.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Iterable, Mapping, Sequence

from repro.api.engine import Engine
from repro.api.registry import CompensationAlgorithm
from repro.api.session import SessionClosedError, StreamSession
from repro.api.types import CompensationResult
from repro.imaging.image import Image
from repro.serve.coalescer import (
    RequestCoalescer,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.stats import ServerStats, StatsRecorder

__all__ = ["Server", "ServerSession", "SessionManager"]

#: Distortion budgets pre-solved by :meth:`Server.warmup` when none are
#: given — the budgets the CLI and the experiments sweep.
DEFAULT_WARMUP_BUDGETS: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0, 30.0)

#: Sentinel distinguishing "use the server's submit timeout" from an
#: explicit ``timeout=None`` (wait indefinitely).
_USE_DEFAULT = object()


class ServerSession:
    """One client's long-lived video stream through a :class:`Server`.

    Returned by :meth:`Server.open_session`.  The handle wraps an engine
    :class:`~repro.api.session.StreamSession` (which owns the smoother /
    scene detector / fast-path state) and adds the serving concerns: frames
    are fed with :meth:`submit` and return futures resolving to
    :class:`~repro.api.types.StreamFrameResult`, the
    :class:`SessionManager` keeps **at most one frame of the session in
    flight** in the coalescer (later frames wait in the session's own
    bounded queue, preserving display order), and an idle session is
    eventually evicted by the TTL sweep.

    Clients may submit several frames ahead without awaiting each result —
    the futures resolve strictly in submission order, each frame's temporal
    step seeing the state its predecessor left behind.
    """

    def __init__(self, manager: "SessionManager", session_id: str,
                 stream: StreamSession, max_queue: int) -> None:
        self._manager = manager
        self._id = session_id
        self._stream = stream
        self._max_queue = int(max_queue)
        # (frame, future, admission perf_counter timestamp): the timestamp
        # rides along so latency telemetry includes the queue wait
        self._queue: deque[tuple[Image, Future, float]] = deque()
        self._in_flight = False
        self._session_closed = False
        self.last_activity = manager._clock()

    # -------------------------------------------------------------- #
    # client surface
    # -------------------------------------------------------------- #
    @property
    def id(self) -> str:
        """Server-unique session identifier (the stats key)."""
        return self._id

    @property
    def closed(self) -> bool:
        """Whether the session stopped accepting frames."""
        return self._session_closed

    @property
    def frames(self) -> int:
        """Frames fully processed through this session so far."""
        return self._stream.frames

    def stats(self):
        """The underlying stream session's lifetime counters
        (:class:`~repro.api.session.StreamSessionStats`)."""
        return self._stream.stats()

    def submit(self, frame: Image,
               timeout: float | None = _USE_DEFAULT) -> Future:
        """Feed one frame; returns a future resolving to its
        :class:`~repro.api.types.StreamFrameResult`.

        ``timeout`` bounds the backpressure wait when this frame enters the
        coalescer directly (the server default when omitted); frames queued
        behind an in-flight predecessor are admitted immediately and enter
        the coalescer as their predecessors complete.  Raises
        :class:`~repro.api.session.SessionClosedError` after :meth:`close`
        and :class:`~repro.serve.coalescer.ServerOverloadedError` when the
        session's own frame queue is full.
        """
        return self._manager.feed(self, frame, timeout=timeout)

    def close(self) -> None:
        """Close the session (idempotent): frames still waiting in the
        session queue fail with
        :class:`~repro.api.session.SessionClosedError`; an in-flight frame
        still resolves."""
        self._manager.close(self)

    def __enter__(self) -> "ServerSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # coalescer-facing surface (the split-phase protocol)
    # -------------------------------------------------------------- #
    @property
    def algorithm(self) -> CompensationAlgorithm:
        """The resolved algorithm instance (the batch grouping key)."""
        return self._stream.algorithm

    @property
    def max_distortion(self) -> float:
        return self._stream.max_distortion

    def begin(self, frame: Image):
        return self._stream.begin(frame)

    def compute(self, plan):
        """The frame's solution (:meth:`StreamSession.solve
        <repro.api.session.StreamSession.solve>`), applied by
        :meth:`complete` only when it keeps it."""
        return self._stream.solve(plan)

    def complete(self, plan, raw):
        return self._stream.complete(plan, raw)

    def frame_done(self) -> None:
        """Called by the coalescer after a frame's future settled: pump the
        session's next queued frame (or clear the in-flight mark)."""
        self._manager._frame_done(self)


class SessionManager:
    """Open / feed / close stream sessions over one coalescer.

    The multiplexing policy of :class:`Server`'s session surface:

    * **capacity** — at most ``max_sessions`` sessions are open at once;
      :meth:`open` past the cap (after reaping idle sessions) raises
      :class:`~repro.serve.coalescer.ServerOverloadedError`.
    * **idle TTL** — sessions inactive for ``session_ttl`` seconds are
      evicted by a lazy sweep (run on every :meth:`open`, or explicitly via
      :meth:`sweep`); ``session_ttl=None`` disables eviction.
    * **ordering** — at most one frame per session is in the coalescer at
      any moment; later frames wait in the session's bounded queue
      (``max_queue``) and are pumped by the worker that completed their
      predecessor, so futures resolve in display order and the temporal
      state never races.
    """

    def __init__(self, engine: Engine, coalescer: RequestCoalescer, *,
                 max_sessions: int = 64, session_ttl: float | None = 300.0,
                 max_queue: int = 32, submit_timeout: float | None = 1.0,
                 recorder: StatsRecorder | None = None,
                 clock=time.monotonic) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive (or None)")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self._engine = engine
        self._coalescer = coalescer
        self.max_sessions = int(max_sessions)
        self.session_ttl = None if session_ttl is None else float(session_ttl)
        self.max_queue = int(max_queue)
        self.submit_timeout = submit_timeout
        self._recorder = recorder
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, ServerSession] = {}
        self._ids = itertools.count()
        self._closed = False

    @property
    def open_count(self) -> int:
        """Sessions currently open."""
        with self._lock:
            return len(self._sessions)

    def open(self, max_distortion: float,
             algorithm: str | CompensationAlgorithm | None = None,
             **session_options) -> ServerSession:
        """Open a stream session; ``session_options`` are forwarded to
        :meth:`Engine.open_session <repro.api.engine.Engine.open_session>`
        (``smoother=``, ``snap_on_scene_change=``, ``scene_gated_solve=``,
        ...)."""
        # resolve outside the lock: a first-touch algorithm instantiation
        # (pipeline characterization) must not serialize the whole manager
        stream = self._engine.open_session(max_distortion,
                                           algorithm=algorithm,
                                           **session_options)
        with self._lock:
            if self._closed:
                raise ServerClosedError("the serving loop has been closed")
            self._sweep_locked()
            if len(self._sessions) >= self.max_sessions:
                # suggest waiting a slice of the idle TTL: capacity frees up
                # when a session closes or the sweep reaps an idle one
                ttl = self.session_ttl
                raise ServerOverloadedError(
                    f"session cap reached ({self.max_sessions} open); close "
                    f"or let idle sessions expire before opening more",
                    queue_depth=len(self._sessions),
                    retry_after_seconds=(1.0 if ttl is None
                                         else min(ttl / 4.0, 5.0)))
            session_id = f"s{next(self._ids):05d}"
            handle = ServerSession(self, session_id, stream, self.max_queue)
            self._sessions[session_id] = handle
            if self._recorder is not None:
                self._recorder.note_session_opened()
        return handle

    def feed(self, handle: ServerSession, frame: Image,
             timeout: float | None = _USE_DEFAULT) -> Future:
        """Admit one frame of ``handle`` (see :meth:`ServerSession.submit`)."""
        if timeout is _USE_DEFAULT:
            timeout = self.submit_timeout
        with self._lock:
            if handle._session_closed:
                raise SessionClosedError(
                    f"session {handle.id} has been closed")
            handle.last_activity = self._clock()
            if handle._in_flight or handle._queue:
                # a predecessor is in the coalescer: preserve display order
                # by waiting in the session's own (bounded) queue
                if len(handle._queue) >= handle._max_queue:
                    if self._recorder is not None:
                        self._recorder.note_rejected()
                    raise ServerOverloadedError(
                        f"session {handle.id} already has "
                        f"{handle._max_queue} frames queued",
                        queue_depth=len(handle._queue),
                        retry_after_seconds=self._coalescer.retry_after_hint())
                future: Future = Future()
                handle._queue.append((frame, future, time.perf_counter()))
                return future
            handle._in_flight = True
        try:
            # outside the lock: the coalescer's bounded queue may block for
            # backpressure, and a stalled admission must not freeze every
            # other session
            return self._coalescer.submit_frame(handle, frame,
                                                timeout=timeout)
        except BaseException:
            self._frame_done(handle)
            raise

    def close(self, handle: ServerSession) -> None:
        """Close one session (idempotent); queued frames fail with
        :class:`~repro.api.session.SessionClosedError`."""
        with self._lock:
            if handle._session_closed:
                return
            handle._session_closed = True
            abandoned = list(handle._queue)
            handle._queue.clear()
            self._sessions.pop(handle.id, None)
            in_flight = handle._in_flight
            if self._recorder is not None:
                self._recorder.note_session_closed()
        self._abandon(handle, abandoned)
        # an in-flight frame may not have begun yet: closing the stream now
        # would fail it spuriously, so the worker that settles it closes
        # the stream instead (see _frame_done)
        if not in_flight:
            handle._stream.close()

    def sweep(self) -> int:
        """Evict idle sessions now; returns how many were reaped."""
        with self._lock:
            return self._sweep_locked()

    def close_all(self) -> None:
        """Shutdown: close every session and refuse new ones."""
        with self._lock:
            self._closed = True
            handles = list(self._sessions.values())
        for handle in handles:
            self.close(handle)

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _frame_done(self, handle: ServerSession) -> None:
        """Pump the session's next queued frame into the coalescer.

        Runs on the worker that settled the previous frame's future (or on
        a feeder whose direct admission failed).  ``force=True`` bypasses
        the backpressure wait — a worker blocking on the queue it is
        supposed to drain would deadlock — and is bounded by the
        one-in-flight-per-session invariant.
        """
        while True:
            with self._lock:
                handle.last_activity = self._clock()
                if not handle._queue:
                    handle._in_flight = False
                    close_stream = handle._session_closed
                    break
                frame, future, accepted_at = handle._queue.popleft()
            try:
                self._coalescer.submit_frame(handle, frame, force=True,
                                             future=future,
                                             enqueued_at=accepted_at)
                return
            except BaseException as exc:   # noqa: BLE001 - forwarded
                # e.g. the coalescer closed under us: fail this frame and
                # keep draining the rest of the session queue
                if future.set_running_or_notify_cancel():
                    future.set_exception(exc)
        if close_stream:
            # the session was closed while this frame was in flight; the
            # stream close was deferred to us (the settling worker)
            handle._stream.close()

    def _abandon(self, handle: ServerSession,
                 queued: Sequence[tuple[Image, Future, float]]) -> None:
        """Fail frames that were still waiting in a closed session."""
        for _, future, _ in queued:
            if future.set_running_or_notify_cancel():
                future.set_exception(SessionClosedError(
                    f"session {handle.id} was closed before this frame ran"))

    def _sweep_locked(self) -> int:
        """Reap idle sessions (caller holds the lock)."""
        if self.session_ttl is None:
            return 0
        now = self._clock()
        reaped = 0
        for session_id, handle in list(self._sessions.items()):
            if handle._in_flight or handle._queue:
                continue
            if now - handle.last_activity > self.session_ttl:
                handle._session_closed = True
                del self._sessions[session_id]
                handle._stream.close()
                if self._recorder is not None:
                    self._recorder.note_session_closed(evicted=True)
                reaped += 1
        return reaped


class Server:
    """A concurrent compensation server over one shared engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.api.engine.Engine` to serve from; a fresh
        default-configured engine when omitted.
    algorithm:
        Default algorithm of the fresh engine (ignored when ``engine`` is
        given).
    workers:
        Worker threads executing micro-batches.  An idle worker takes a
        request at once; batches form only from requests that queue while
        every worker is busy.
    max_batch:
        Largest coalesced batch (see
        :class:`~repro.serve.coalescer.RequestCoalescer`).
    max_pending:
        Bound of the request queue; beyond it submissions feel
        backpressure.
    submit_timeout:
        Default seconds a :meth:`submit` waits for queue space before
        raising :class:`~repro.serve.coalescer.ServerOverloadedError`.
    stats_window:
        Number of recent request latencies kept for the percentile
        estimates.
    max_sessions:
        Cap on concurrently open stream sessions; :meth:`open_session` past
        it (after reaping idle sessions) raises
        :class:`~repro.serve.coalescer.ServerOverloadedError`.
    session_ttl:
        Seconds of inactivity after which an idle stream session is
        evicted (``None`` disables eviction).
    session_queue:
        Per-session bound on frames queued behind the one in flight.
    """

    def __init__(self, engine: Engine | None = None, *,
                 algorithm: str | CompensationAlgorithm = "hebs",
                 workers: int = 4, max_batch: int = 32,
                 max_pending: int = 1024,
                 submit_timeout: float = 1.0,
                 stats_window: int = 4096,
                 max_sessions: int = 64,
                 session_ttl: float | None = 300.0,
                 session_queue: int = 32) -> None:
        self.engine = engine if engine is not None else Engine(algorithm)
        self.submit_timeout = float(submit_timeout)
        self._recorder = StatsRecorder(window=stats_window)
        self._coalescer = RequestCoalescer(
            self.engine, max_batch=max_batch, max_pending=max_pending,
            workers=workers,
            recorder=self._recorder)
        self._sessions = SessionManager(
            self.engine, self._coalescer, max_sessions=max_sessions,
            session_ttl=session_ttl, max_queue=session_queue,
            submit_timeout=self.submit_timeout, recorder=self._recorder)

    # ------------------------------------------------------------------ #
    # request paths
    # ------------------------------------------------------------------ #
    def submit(self, image: Image, max_distortion: float,
               algorithm: str | CompensationAlgorithm | None = None,
               timeout: float | None = _USE_DEFAULT) -> Future:
        """Enqueue one request; returns a future resolving to a
        :class:`~repro.api.types.CompensationResult`.

        ``timeout`` overrides the server's default submit timeout (how long
        to wait for queue space under backpressure); ``None`` waits
        indefinitely, as in :meth:`RequestCoalescer.submit`.
        """
        if timeout is _USE_DEFAULT:
            timeout = self.submit_timeout
        return self._coalescer.submit(image, max_distortion,
                                      algorithm=algorithm, timeout=timeout)

    def process(self, image: Image, max_distortion: float,
                algorithm: str | CompensationAlgorithm | None = None,
                timeout: float | None = None,
                submit_timeout: float | None = _USE_DEFAULT,
                ) -> CompensationResult:
        """Synchronous convenience: submit one request and wait for it.

        ``timeout`` bounds the wait for the *result*; the queue-space wait
        under backpressure is bounded separately by ``submit_timeout``
        (the server default when omitted, ``None`` for indefinite).
        """
        return self.submit(image, max_distortion, algorithm=algorithm,
                           timeout=submit_timeout).result(timeout=timeout)

    def process_many(self, images: Iterable[Image], max_distortion: float,
                     algorithm: str | CompensationAlgorithm | None = None,
                     timeout: float | None = None,
                     submit_timeout: float | None = _USE_DEFAULT,
                     ) -> list[CompensationResult]:
        """Submit many requests at once and gather the results in order.

        Unlike :meth:`Engine.process_batch` this goes through the serving
        queue, so the requests coalesce with any other traffic the workers
        are seeing.  ``timeout`` bounds each *result* wait; the queue-space
        wait per submission is bounded by ``submit_timeout`` (the server
        default when omitted, ``None`` for indefinite).
        """
        futures = [self.submit(image, max_distortion, algorithm=algorithm,
                               timeout=submit_timeout)
                   for image in images]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------ #
    # stream sessions
    # ------------------------------------------------------------------ #
    def open_session(self, max_distortion: float,
                     algorithm: str | CompensationAlgorithm | None = None,
                     **session_options) -> ServerSession:
        """Open a push-based stream session served through the coalescer.

        Frames fed to the returned :class:`ServerSession` interleave with
        one-shot traffic (and with other sessions' frames) in shared
        micro-batches, while the session's temporal state — smoother, scene
        detector, fast path — stays private and its frames resolve in
        display order.  ``session_options`` are forwarded to
        :meth:`Engine.open_session <repro.api.engine.Engine.open_session>`
        (``smoother=``, ``snap_on_scene_change=``, ``scene_gated_solve=``,
        ...).  Raises
        :class:`~repro.serve.coalescer.ServerOverloadedError` at the
        session cap.
        """
        return self._sessions.open(max_distortion, algorithm=algorithm,
                                   **session_options)

    def close_session(self, session: ServerSession) -> None:
        """Close one stream session (equivalent to ``session.close()``)."""
        self._sessions.close(session)

    def sweep_sessions(self) -> int:
        """Evict idle stream sessions now; returns how many were reaped."""
        return self._sessions.sweep()

    @property
    def session_count(self) -> int:
        """Stream sessions currently open."""
        return self._sessions.open_count

    # ------------------------------------------------------------------ #
    # warm-up
    # ------------------------------------------------------------------ #
    def warmup(self, images: Mapping[str, Image] | Sequence[Image] | None = None,
               budgets: Sequence[float] = DEFAULT_WARMUP_BUDGETS,
               algorithm: str | CompensationAlgorithm | None = None) -> int:
        """Pre-solve a histogram corpus into the engine's cache.

        A cold cache makes the first wave of traffic pay full solves; warm-up
        moves that cost to deployment time.  ``images`` defaults to the
        built-in benchmark suite (the stand-in for a production content
        corpus); every ``(image, budget)`` pair is solved without the
        per-image apply.  Returns the number of fresh solutions cached.
        """
        if images is None:
            # deferred import: repro.serve must stay importable without bench
            from repro.bench.suite import benchmark_images
            images = benchmark_images()
        if isinstance(images, Mapping):
            images = list(images.values())
        primed = 0
        for image in images:
            for budget in budgets:
                primed += bool(self.engine.prime(image, budget,
                                                 algorithm=algorithm))
        return primed

    # ------------------------------------------------------------------ #
    # introspection & lifecycle
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Requests waiting in the coalescer right now."""
        return self._coalescer.pending_count

    @property
    def closed(self) -> bool:
        """Whether the server stopped accepting requests."""
        return self._coalescer.closed

    def stats(self) -> ServerStats:
        """A live snapshot: throughput, latency percentiles, cache rates,
        session counters and per-session frame latencies."""
        return self._recorder.snapshot(cache=self.engine.cache_stats,
                                       queue_depth=self.queue_depth,
                                       sessions_open=self.session_count)

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and (by default) drain the queue.

        Open stream sessions are closed first (their queued frames fail
        with :class:`~repro.api.session.SessionClosedError`); in-flight
        work drains as usual when ``wait`` is set.
        """
        self._sessions.close_all()
        self._coalescer.close(wait=wait)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)
