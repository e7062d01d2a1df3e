"""Work-conserving micro-batching: N concurrent submits, one solve.

The paper's real-time flow (Fig. 4) solves once per *histogram* and replays
cheap per-pixel LUTs — so when N clients concurrently request compensation
for similar content, they should share one solve, not pay N.
:class:`RequestCoalescer` serves them from a pool of worker threads:

* :meth:`RequestCoalescer.submit` enqueues a request and returns a
  :class:`concurrent.futures.Future` immediately.
* Dispatch is work-conserving: an idle worker takes a pending request at
  once, together with its share of whatever else is pending (split evenly
  with the other idle workers, up to ``max_batch``).  Nothing waits for
  companions, so a batch larger than one forms only from requests that
  queued while every worker was busy.  This is the adaptive batching of
  Clipper (Crankshaw et al., NSDI 2017).
* Each claimed batch is grouped by ``(algorithm, budget)`` and executed as
  one :meth:`~repro.api.engine.Engine.process_batch`; the engine then groups
  by histogram signature, so duplicate content in a batch pays a single
  solve.  Duplicates that land on *different* workers share one solve
  through the engine's per-instance solve lock and its double-checked
  cache probe.
* The pending queue is bounded (``max_pending``): when it is full,
  ``submit`` blocks up to its timeout and then raises
  :class:`ServerOverloadedError` — backpressure instead of unbounded memory.

Beyond one-shot requests the coalescer also carries **stream-session
frames** (:meth:`RequestCoalescer.submit_frame`): a frame belonging to a
long-lived :class:`~repro.api.session.StreamSession` served by the
:class:`~repro.serve.server.SessionManager`.  Session frames from *many*
sessions share the queue, and under load the micro-batches, with one-shot
traffic — the frames of a batch take their solutions from one shared
:meth:`~repro.api.engine.Engine.solve_batch` call, and the session's
temporal step (:meth:`~repro.api.session.StreamSession.complete`) runs in
the worker afterwards; it applies a frame's solution only when no
re-derivation at the smoothed backlight factor replaces it.  Per-session
frame order is preserved because the session manager keeps at most one
frame of a session in flight; the flicker bound is enforced inside the
session's own smoother, never here.

The coalescer is intentionally engine-agnostic for one-shot traffic:
anything with a ``process_batch(images, max_distortion, algorithm=...)``
method works, which is what the unit tests exploit; session frames also
need ``solve_batch`` with the same signature.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Sequence

from repro.api.registry import CompensationAlgorithm
from repro.imaging.image import Image
from repro.serve.stats import StatsRecorder

__all__ = [
    "RequestCoalescer",
    "ServerClosedError",
    "ServerOverloadedError",
]


class ServerOverloadedError(RuntimeError):
    """A bounded queue (requests, session frames or the session table)
    stayed full past the submit timeout.

    Beyond the message the error carries structured backpressure hints, so
    in-process callers and the wire protocol
    (:func:`repro.serve.protocol.error_response`) can tell clients *how*
    overloaded the server is and when a retry is worth attempting:

    Attributes
    ----------
    queue_depth:
        Occupancy of the queue that refused the submission (the pending
        request queue, a session's frame queue, or the open-session table),
        when known.
    retry_after_seconds:
        Suggested client back-off before retrying, when the raising
        component can estimate one (e.g. :data:`RETRY_AFTER_SECONDS` for
        the request queue).  ``None`` means "no estimate"; the protocol
        layer substitutes its default hint.
    """

    def __init__(self, message: str, *, queue_depth: int | None = None,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_seconds = retry_after_seconds


#: Back-off suggested to a client whose request the full pending queue
#: refused: long enough that a retry is not a busy-wait.
RETRY_AFTER_SECONDS = 0.05


class ServerClosedError(RuntimeError):
    """The coalescer/server was closed and accepts no new requests."""


@dataclass
class _PendingRequest:
    """One queued request: payload plus its future and enqueue timestamp.

    ``session`` is ``None`` for a one-shot request; for a stream-session
    frame it is the serve-side session handle (begin/compute/complete
    surface plus ``frame_done``), and ``plan`` is filled by the executing
    worker once :meth:`~repro.api.session.StreamSession.begin` ran.
    """

    image: Image
    max_distortion: float
    algorithm: str | CompensationAlgorithm | None
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    session: object | None = None
    plan: object | None = None

    def group_key(self):
        """Requests sharing this key can ride in one engine batch.

        Algorithm *instances* group by identity, not by name: two clients
        may carry differently configured instances under one registry name,
        and batching them together would run one client's images through
        the other client's configuration.  Session frames ride apart from
        one-shot requests: they take unapplied solutions
        (``solve_batch``), one-shot requests applied results
        (``process_batch``).
        """
        algorithm = self.algorithm
        if isinstance(algorithm, CompensationAlgorithm):
            algorithm = ("instance", id(algorithm))
        return (algorithm, self.max_distortion, self.session is not None)


class RequestCoalescer:
    """Serves concurrent ``submit()`` calls from a worker pool, batching
    what queues while every worker is busy.

    An idle worker claims a request the moment it is enqueued, so a lone
    request never waits for companions; under load, each worker that frees
    up claims its share of what is pending (up to ``max_batch``) as one
    batch.

    Parameters
    ----------
    engine:
        The (thread-safe) :class:`~repro.api.engine.Engine` executing the
        batches, or any object with a compatible ``process_batch``.
    max_batch:
        Largest number of requests claimed into one micro-batch.
    max_pending:
        Bound of the pending queue; submissions past it block and then fail
        with :class:`ServerOverloadedError` (backpressure).
    workers:
        Number of batch-executing worker threads.
    recorder:
        Optional :class:`~repro.serve.stats.StatsRecorder` receiving
        submit/complete/batch/reject events.
    """

    def __init__(self, engine, *, max_batch: int = 32,
                 max_pending: int = 1024, workers: int = 1,
                 recorder: StatsRecorder | None = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        self._recorder = recorder
        # one lock, two wait queues: an enqueue wakes one idle worker, a
        # claim wakes the submitters waiting for queue space
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._pending: list[_PendingRequest] = []
        self._idle = 0      # workers blocked waiting for work
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-serve-worker-{index}")
            for index in range(int(workers))
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        """Requests currently waiting to be claimed by a worker."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether the coalescer stopped accepting requests."""
        with self._lock:
            return self._closed

    def retry_after_hint(self) -> float:
        """Suggested client back-off when the pending queue refuses a
        request (:data:`RETRY_AFTER_SECONDS`)."""
        return RETRY_AFTER_SECONDS

    def submit(self, image: Image, max_distortion: float,
               algorithm: str | CompensationAlgorithm | None = None,
               timeout: float | None = 1.0) -> Future:
        """Enqueue one request; returns its future immediately.

        Blocks up to ``timeout`` seconds when the pending queue is full,
        then raises :class:`ServerOverloadedError`.  ``timeout=None`` waits
        indefinitely; ``timeout=0`` fails immediately on a full queue.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        request = _PendingRequest(image=image, max_distortion=max_distortion,
                                  algorithm=algorithm)
        return self._enqueue(request, timeout=timeout, force=False)

    def submit_frame(self, session, frame: Image,
                     timeout: float | None = 1.0, force: bool = False,
                     future: Future | None = None,
                     enqueued_at: float | None = None) -> Future:
        """Enqueue one stream-session frame; returns its future immediately.

        ``session`` is the serve-side handle of a
        :class:`~repro.serve.server.SessionManager` session: it names the
        frame's algorithm instance and budget (so the frame groups with
        compatible one-shot traffic) and carries the split-phase surface the
        worker drives.  ``force=True`` bypasses the backpressure wait — used
        by the session manager when a worker pumps a session's next queued
        frame, where blocking the worker on its own queue would deadlock;
        the bypass is bounded by the one-in-flight-per-session invariant.
        ``future`` lets the pump re-use the future it already handed out,
        and ``enqueued_at`` (a ``time.perf_counter`` value) preserves the
        frame's original admission time so the recorded latency covers the
        session-queue wait, not just the coalescer leg.
        """
        request = _PendingRequest(
            image=frame, max_distortion=session.max_distortion,
            algorithm=session.algorithm, session=session)
        if future is not None:
            request.future = future
        if enqueued_at is not None:
            request.enqueued_at = float(enqueued_at)
        return self._enqueue(request, timeout=timeout, force=force)

    def _enqueue(self, request: _PendingRequest, timeout: float | None,
                 force: bool) -> Future:
        """Shared admission path: backpressure, shutdown fence, bookkeeping."""
        deadline = (None if timeout is None
                    else time.monotonic() + max(timeout, 0.0))
        with self._lock:
            while (not force and len(self._pending) >= self.max_pending
                   and not self._closed):
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    if self._recorder is not None:
                        self._recorder.note_rejected()
                    raise ServerOverloadedError(
                        f"request queue full ({self.max_pending} pending) "
                        f"for longer than the {timeout:g}s submit timeout",
                        queue_depth=len(self._pending),
                        retry_after_seconds=self.retry_after_hint())
                self._space.wait(remaining)
            if self._closed:
                # count refusals at shutdown like backpressure rejections,
                # so the stats account for every request a client saw fail
                if self._recorder is not None:
                    self._recorder.note_rejected()
                raise ServerClosedError("the serving loop has been closed")
            if not request.enqueued_at:
                request.enqueued_at = time.perf_counter()
            self._pending.append(request)
            # record before a worker can possibly complete the request, so
            # a stats snapshot never sees completed > submitted
            if self._recorder is not None:
                self._recorder.note_submitted()
            self._work.notify()
        return request.future

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _claim(self) -> list[_PendingRequest] | None:
        """Claim pending requests without waiting for companions; blocks
        only while nothing is pending.  ``None`` when closed and drained.

        The claim is this worker's share of what is pending: an equal split
        with the workers still waiting, capped by ``max_batch``.  A burst
        that arrived while they slept then runs on all of them instead of
        queueing inside one worker's batch.
        """
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                self._idle += 1
                self._work.wait()
                self._idle -= 1
            share = -(-len(self._pending) // (self._idle + 1))
            batch = self._pending[:min(share, self.max_batch)]
            del self._pending[:len(batch)]
            if self._pending:
                self._work.notify()     # the rest is a waiting worker's
            self._space.notify_all()
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._claim()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: Sequence[_PendingRequest]) -> None:
        """Run one claimed micro-batch: plan, group, batch-process, resolve.

        One-shot requests resolve to the raw engine result.  Session frames
        first :meth:`~repro.api.session.StreamSession.begin` (advancing the
        session's scene/rolling state, deciding whether the frame needs a
        solve), then take their solution from the shared engine batch
        (batchable frames) or from the session itself (fast-path frames),
        and finally :meth:`~repro.api.session.StreamSession.complete` the
        temporal step before the future resolves.
        """
        ready: list[_PendingRequest] = []
        for request in batch:
            # transition each future to RUNNING; a client may have
            # cancelled a pending request (e.g. after a wait timeout), and
            # resolving a cancelled future would crash the worker
            if not request.future.set_running_or_notify_cancel():
                if self._recorder is not None:
                    self._recorder.note_failed(1)
                self._after_request(request)
                continue
            if request.session is not None:
                try:
                    request.plan = request.session.begin(request.image)
                except BaseException as exc:   # noqa: BLE001 - forwarded
                    self._fail_request(request, exc)
                    continue
            ready.append(request)

        groups: dict[tuple, list[_PendingRequest]] = {}
        singles: list[_PendingRequest] = []
        for request in ready:
            if request.plan is not None and not request.plan.batchable:
                singles.append(request)
            else:
                groups.setdefault(request.group_key(), []).append(request)

        # the fast-path frames first: a steady-scene replay is one cheap LUT
        # application and must not wait behind the batch's full solves
        for request in singles:
            try:
                raw = request.session.compute(request.plan)
            except BaseException as exc:   # noqa: BLE001 - forwarded
                self._fail_request(request, exc)
                continue
            self._resolve(request, raw, time.perf_counter())

        for members in groups.values():
            head = members[0]
            batch = (self.engine.process_batch if head.session is None
                     else self.engine.solve_batch)
            try:
                results = batch(
                    [member.plan.grayscale if member.plan is not None
                     else member.image for member in members],
                    head.max_distortion, algorithm=head.algorithm)
            except BaseException as exc:   # noqa: BLE001 - forwarded, not hidden
                for member in members:
                    self._fail_request(member, exc)
                continue
            if len(results) != len(members):
                # a zip over mismatched lengths would silently strand the
                # tail futures in RUNNING forever; fail every member fast
                error = RuntimeError(
                    f"engine returned {len(results)} results for a batch "
                    f"of {len(members)} images")
                for member in members:
                    self._fail_request(member, error)
                continue
            if self._recorder is not None:
                self._recorder.note_batch(len(members))
            completed_at = time.perf_counter()
            for member, result in zip(members, results):
                self._resolve(member, result, completed_at)

    def _resolve(self, request: _PendingRequest, raw,
                 completed_at: float) -> None:
        """Finish one RUNNING request with its engine result (a session
        frame's :class:`~repro.api.types.SolvedFrame` or raw result)."""
        if request.session is not None:
            try:
                raw = request.session.complete(request.plan, raw)
            except BaseException as exc:   # noqa: BLE001 - forwarded
                self._fail_request(request, exc)
                return
        latency = completed_at - request.enqueued_at
        # record completion before resolving the future: a client woken by
        # ``result()`` must never observe a stats snapshot that has not yet
        # counted its own request
        if self._recorder is not None:
            self._recorder.note_completed(latency)
            if request.session is not None:
                self._recorder.note_session_frame(request.session.id, latency)
        request.future.set_result(raw)
        self._after_request(request)

    def _fail_request(self, request: _PendingRequest,
                      error: BaseException) -> None:
        """Answer one RUNNING request with an exception."""
        request.future.set_exception(error)
        if self._recorder is not None:
            self._recorder.note_failed(1)
        self._after_request(request)

    def _after_request(self, request: _PendingRequest) -> None:
        """Post-resolution hook: let a session pump its next queued frame.

        Runs after the future settled (either way), so a session's next
        frame can never begin before the previous frame's outcome is
        visible to its client.
        """
        if request.session is not None:
            request.session.frame_done()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; workers drain the queue, then exit.

        ``wait=True`` (the default) joins the workers, so every future
        submitted before the close is resolved when this returns.
        """
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._space.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)
