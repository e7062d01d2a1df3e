"""Tests for the micro-batching request coalescer (engine-stubbed: fast).

Batches form only from requests that queue while every worker is busy, so
the tests that need a batch hold the worker inside ``process_batch`` on an
event (:class:`HeldEngine`) and submit meanwhile; none depends on timing.
"""

import sys
import threading
import time

import pytest

from repro.serve import Server
from repro.serve.coalescer import (
    RETRY_AFTER_SECONDS,
    RequestCoalescer,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.stats import StatsRecorder


class FakeEngine:
    """Records every process_batch call; returns one token per image."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls = []
        self._lock = threading.Lock()

    def process_batch(self, images, max_distortion, algorithm=None):
        with self._lock:
            self.calls.append((list(images), max_distortion, algorithm))
        self._run()
        return [("result", image, max_distortion, algorithm)
                for image in images]

    def _run(self) -> None:
        if self.delay:
            time.sleep(self.delay)

    def batches(self) -> list[list]:
        """The images of every call, in call order."""
        return [images for images, _, _ in self.calls]


class HeldEngine(FakeEngine):
    """A FakeEngine whose ``process_batch`` records the call, then blocks
    until ``release`` is set; ``entered`` is set once a call is inside."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _run(self) -> None:
        self.entered.set()
        assert self.release.wait(timeout=30.0), "engine never released"

    def hold_worker(self, coalescer) -> None:
        """Submit a ``blocker`` request and wait until the worker is held
        inside ``process_batch`` with it."""
        coalescer.submit("blocker", 10.0)
        assert self.entered.wait(timeout=30.0), "worker never started"


class FailingEngine(HeldEngine):
    def process_batch(self, images, max_distortion, algorithm=None):
        super().process_batch(images, max_distortion, algorithm)
        raise RuntimeError("solver exploded")


class ShortEngine(HeldEngine):
    """Buggy engine dropping the last result of every batch."""

    def process_batch(self, images, max_distortion, algorithm=None):
        return super().process_batch(images, max_distortion, algorithm)[:-1]


class TestSubmission:
    def test_submit_resolves_future_with_result(self):
        engine = FakeEngine()
        with RequestCoalescer(engine) as coalescer:
            future = coalescer.submit("img", 10.0)
            assert future.result(timeout=5.0) == ("result", "img", 10.0, None)

    def test_results_map_to_their_own_requests(self):
        engine = FakeEngine()
        with RequestCoalescer(engine) as coalescer:
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(10)]
            for index, future in enumerate(futures):
                assert future.result(timeout=5.0)[1] == f"img{index}"

    def test_negative_budget_rejected_at_submit(self):
        with RequestCoalescer(FakeEngine()) as coalescer:
            with pytest.raises(ValueError, match="non-negative"):
                coalescer.submit("img", -1.0)

    def test_invalid_configuration_rejected(self):
        engine = FakeEngine()
        with pytest.raises(ValueError, match="max_batch"):
            RequestCoalescer(engine, max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            RequestCoalescer(engine, max_pending=0)
        with pytest.raises(ValueError, match="workers"):
            RequestCoalescer(engine, workers=0)

    def test_batching_window_knob_is_gone(self):
        """Dispatch is work-conserving: there is no window to configure."""
        with pytest.raises(TypeError, match="max_delay"):
            RequestCoalescer(FakeEngine(), max_delay=0.002)
        with pytest.raises(TypeError, match="max_delay"):
            Server(engine=FakeEngine(), max_delay=0.002)


class TestCoalescing:
    def test_idle_worker_takes_a_lone_request_at_once(self):
        """An idle coalescer hands a lone request to the engine as a batch
        of one: the worker is inside ``process_batch`` with it while
        nothing else was ever submitted."""
        engine = HeldEngine()
        with RequestCoalescer(engine, max_batch=32, workers=1) as coalescer:
            future = coalescer.submit("img", 10.0)
            assert engine.entered.wait(timeout=30.0)
            assert engine.batches() == [["img"]]
            assert coalescer.pending_count == 0
            engine.release.set()
            assert future.result(timeout=5.0)[1] == "img"

    def test_concurrent_submits_share_one_engine_batch(self):
        """Requests that queue while the only worker is busy become exactly
        one next process_batch."""
        engine = HeldEngine()
        with RequestCoalescer(engine, max_batch=32, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(8)]
            assert coalescer.pending_count == 8
            engine.release.set()
            for future in futures:
                future.result(timeout=5.0)
        assert engine.batches() == [["blocker"],
                                    [f"img{i}" for i in range(8)]]

    def test_batch_splits_by_budget(self):
        """Different budgets cannot share a batch (solutions differ)."""
        engine = HeldEngine()
        with RequestCoalescer(engine, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            one = coalescer.submit("a", 10.0)
            two = coalescer.submit("b", 20.0)
            engine.release.set()
            assert one.result(timeout=5.0)[2] == 10.0
            assert two.result(timeout=5.0)[2] == 20.0
        assert [(images, budget) for images, budget, _ in engine.calls[1:]] \
            == [(["a"], 10.0), (["b"], 20.0)]

    def test_batch_splits_by_algorithm(self):
        engine = HeldEngine()
        with RequestCoalescer(engine, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            one = coalescer.submit("a", 10.0, algorithm="hebs")
            two = coalescer.submit("b", 10.0, algorithm="cbcs")
            engine.release.set()
            assert one.result(timeout=5.0)[3] == "hebs"
            assert two.result(timeout=5.0)[3] == "cbcs"
        assert [(images, algorithm)
                for images, _, algorithm in engine.calls[1:]] \
            == [(["a"], "hebs"), (["b"], "cbcs")]

    def test_distinct_instances_with_one_name_never_share_a_batch(self):
        """Two differently configured algorithm instances under the same
        registry name must not ride in one batch: the whole group runs
        through its head's instance."""
        from repro.api.registry import CompensationAlgorithm

        first, second = CompensationAlgorithm(), CompensationAlgorithm()
        first.name = second.name = "hebs"
        engine = HeldEngine()
        with RequestCoalescer(engine, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            one = coalescer.submit("a", 10.0, algorithm=first)
            two = coalescer.submit("b", 10.0, algorithm=second)
            engine.release.set()
            assert one.result(timeout=5.0)[3] is first
            assert two.result(timeout=5.0)[3] is second
        assert len(engine.calls) == 3
        assert engine.calls[1][0] == ["a"] and engine.calls[1][2] is first
        assert engine.calls[2][0] == ["b"] and engine.calls[2][2] is second

    def test_idle_workers_split_a_burst(self):
        """A claim leaves an equal share of what is pending to each worker
        still waiting: 10 pending with 3 workers asleep gives this claim
        ceil(10 / 4) = 3, and the next claim (none asleep) the other 7."""
        engine = HeldEngine()
        with RequestCoalescer(engine, max_batch=8, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(10)]
            coalescer._idle = 3             # three workers asleep
            share = coalescer._claim()
            coalescer._idle = 0
            assert [r.image for r in share] == ["img0", "img1", "img2"]
            assert coalescer.pending_count == 7
            engine.release.set()
            coalescer._execute(share)
            for future in futures:
                future.result(timeout=5.0)
        assert sorted(len(images) for images in engine.batches()) == [1, 3, 7]

    def test_max_batch_caps_the_claim(self):
        engine = HeldEngine()
        with RequestCoalescer(engine, max_batch=4, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(10)]
            engine.release.set()
            for future in futures:
                future.result(timeout=5.0)
        assert [len(images) for images in engine.batches()] == [1, 4, 4, 2]
        assert [image for images in engine.batches()[1:]
                for image in images] == [f"img{i}" for i in range(10)]


class TestBackpressure:
    def test_full_queue_times_out_with_overload_error(self):
        engine = HeldEngine()                   # keeps the worker busy
        coalescer = RequestCoalescer(engine, max_batch=1, max_pending=1,
                                     workers=1)
        try:
            engine.hold_worker(coalescer)       # claimed by the worker
            coalescer.submit("b", 10.0)         # fills the queue bound
            with pytest.raises(ServerOverloadedError,
                               match="queue full") as raised:
                coalescer.submit("c", 10.0, timeout=0.0)
            assert raised.value.queue_depth == 1
            assert raised.value.retry_after_seconds == RETRY_AFTER_SECONDS
        finally:
            engine.release.set()
            coalescer.close(wait=True)

    def test_backpressure_waits_for_space_within_timeout(self):
        engine = HeldEngine()
        coalescer = RequestCoalescer(engine, max_batch=1, max_pending=1,
                                     workers=1)
        releaser = threading.Timer(0.05, engine.release.set)
        try:
            engine.hold_worker(coalescer)
            coalescer.submit("b", 10.0)
            # space frees once the worker is released and drains; a
            # patient submit succeeds whenever that happens
            releaser.start()
            future = coalescer.submit("c", 10.0, timeout=30.0)
            assert future.result(timeout=5.0)[1] == "c"
        finally:
            releaser.cancel()
            engine.release.set()
            coalescer.close(wait=True)

    def test_rejections_are_recorded(self):
        recorder = StatsRecorder()
        engine = HeldEngine()
        coalescer = RequestCoalescer(engine, max_batch=1, max_pending=1,
                                     workers=1, recorder=recorder)
        try:
            engine.hold_worker(coalescer)
            coalescer.submit("b", 10.0)
            with pytest.raises(ServerOverloadedError):
                coalescer.submit("c", 10.0, timeout=0.0)
        finally:
            engine.release.set()
            coalescer.close(wait=True)
        snapshot = recorder.snapshot()
        assert snapshot.rejected == 1
        assert snapshot.submitted == 2


class TestFailuresAndLifecycle:
    def test_engine_failure_propagates_to_every_member_future(self):
        engine = FailingEngine()
        with RequestCoalescer(engine, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(3)]
            engine.release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="solver exploded"):
                    future.result(timeout=5.0)
        assert engine.batches()[1:] == [["img0", "img1", "img2"]]

    def test_short_result_batch_fails_fast_instead_of_hanging(self):
        """Regression: ``zip`` over a too-short result list silently
        stranded the tail futures in RUNNING forever."""
        engine = ShortEngine()
        with RequestCoalescer(engine, workers=1) as coalescer:
            engine.hold_worker(coalescer)
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(3)]
            engine.release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="2 results for"):
                    future.result(timeout=5.0)

    def test_close_drains_pending_requests(self):
        engine = FakeEngine(delay=0.01)
        coalescer = RequestCoalescer(engine, max_batch=2, workers=1)
        futures = [coalescer.submit(f"img{i}", 10.0) for i in range(6)]
        coalescer.close(wait=True)
        for future in futures:
            assert future.done()
            assert future.result()[0] == "result"

    def test_submit_after_close_raises(self):
        coalescer = RequestCoalescer(FakeEngine())
        coalescer.close(wait=True)
        with pytest.raises(ServerClosedError):
            coalescer.submit("img", 10.0)
        assert coalescer.closed

    def test_submit_refused_at_close_counts_as_rejected(self):
        recorder = StatsRecorder()
        coalescer = RequestCoalescer(FakeEngine(), recorder=recorder)
        coalescer.close(wait=True)
        with pytest.raises(ServerClosedError):
            coalescer.submit("img", 10.0)
        assert recorder.snapshot().rejected == 1

    def test_cancelled_pending_future_does_not_kill_the_worker(self):
        """Regression: resolving a client-cancelled future raised
        InvalidStateError inside the worker, stranding its batch siblings
        and permanently shrinking the pool."""
        from concurrent.futures import CancelledError

        recorder = StatsRecorder()
        engine = HeldEngine()                   # hold the sole worker busy
        with RequestCoalescer(engine, max_batch=8, workers=1,
                              recorder=recorder) as coalescer:
            engine.hold_worker(coalescer)       # claimed by the worker
            doomed = coalescer.submit("doomed", 10.0)
            sibling = coalescer.submit("sibling", 10.0)
            assert doomed.cancel()              # still pending: cancellable
            engine.release.set()
            # the sibling in the same batch must still resolve...
            assert sibling.result(timeout=5.0)[1] == "sibling"
            with pytest.raises(CancelledError):
                doomed.result(timeout=1.0)
            # ...and the worker must survive to serve later traffic
            assert coalescer.submit("after", 10.0).result(
                timeout=5.0)[1] == "after"
        snapshot = recorder.snapshot()
        assert snapshot.failed == 1             # the cancelled request
        assert snapshot.completed == 3

    def test_multiple_workers_drain_in_parallel(self):
        """Every call waits at a 4-party barrier, which only 4 calls in
        flight at once can pass: 4 workers must run batches in parallel."""
        barrier = threading.Barrier(4, timeout=30.0)

        class BarrierEngine(FakeEngine):
            def process_batch(self, images, max_distortion, algorithm=None):
                barrier.wait()
                return super().process_batch(images, max_distortion,
                                             algorithm)

        engine = BarrierEngine()
        with RequestCoalescer(engine, max_batch=1,
                              workers=4) as coalescer:
            futures = [coalescer.submit(f"img{i}", 10.0) for i in range(8)]
            for future in futures:
                future.result(timeout=30.0)
        assert len(engine.calls) == 8

    def test_every_request_runs_once_under_contention(self):
        """8 submitting threads and 6 workers (more than the cores) under a
        shortened switch interval, with a queue bound small enough that
        submitters also wait for space: every request runs exactly once,
        in a batch of at most ``max_batch``, and resolves to its own
        result.  A worker killed by a miscounted share would leave futures
        unresolved."""
        clients, per_client = 8, 60
        engine = FakeEngine()
        results, errors = {}, []

        def client(offset: int) -> None:
            try:
                futures = [coalescer.submit(f"img{offset}-{i}", 10.0,
                                            timeout=30.0)
                           for i in range(per_client)]
                results[offset] = [future.result(timeout=30.0)[1]
                                   for future in futures]
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RequestCoalescer(engine, max_batch=4, max_pending=8,
                                  workers=6) as coalescer:
                threads = [threading.Thread(target=client, args=(offset,))
                           for offset in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for offset in range(clients):
            assert results[offset] == [f"img{offset}-{i}"
                                       for i in range(per_client)]
        executed = [image for images in engine.batches() for image in images]
        assert sorted(executed) == sorted(
            f"img{offset}-{i}" for offset in range(clients)
            for i in range(per_client))
        assert max(len(images) for images in engine.batches()) <= 4


class SlowRecorder(StatsRecorder):
    """Delays the completion bookkeeping, widening the window in which a
    woken client could observe a snapshot missing its own request."""

    def note_completed(self, latency_seconds: float) -> None:
        time.sleep(0.05)
        super().note_completed(latency_seconds)


class TestStatsOrdering:
    def test_client_woken_by_result_sees_itself_completed(self):
        """Regression: futures were resolved *before* the recorder counted
        the completion, so a client reading stats right after ``result()``
        could observe ``completed < submitted``."""
        recorder = SlowRecorder()
        with RequestCoalescer(FakeEngine(),
                              recorder=recorder) as coalescer:
            future = coalescer.submit("img", 10.0)
            future.result(timeout=5.0)
            assert recorder.snapshot().completed == 1
