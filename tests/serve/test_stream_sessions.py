"""Tests for the Server's stream-session surface (SessionManager)."""

import threading
import time

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.api.session import SessionClosedError
from repro.api.types import StreamFrameResult
from repro.core.temporal import BacklightSmoother
from repro.imaging.image import Image
from repro.serve import (
    Server,
    ServerOverloadedError,
    SessionManager,
    run_stream_load,
    stream_report_table,
)


@pytest.fixture(scope="module")
def clip():
    """A deterministic 8-frame clip with a plateau cut in the middle."""
    frames = []
    for index in range(8):
        level = 60 if index < 4 else 190
        pixels = np.full((32, 32), level, dtype=np.int64)
        pixels[index % 32, :] = min(level + 5, 255)
        frames.append(Image(pixels, name=f"sframe{index:02d}"))
    return frames


class HeldEngine(Engine):
    """An engine whose batch calls (``process_batch`` for one-shot requests,
    ``solve_batch`` for session frames) wait for ``release``; ``entered``
    is set once a call is inside."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def _hold(self) -> None:
        self.entered.set()
        assert self.release.wait(timeout=30.0), "engine never released"

    def process_batch(self, images, max_distortion, algorithm=None):
        self._hold()
        return super().process_batch(images, max_distortion,
                                     algorithm=algorithm)

    def solve_batch(self, images, max_distortion, algorithm=None):
        self._hold()
        return super().solve_batch(images, max_distortion,
                                   algorithm=algorithm)


@pytest.fixture
def server(pipeline):
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
    yield server
    server.close(wait=True)


class TestServerSessions:
    def test_feed_resolves_to_stream_frame_results(self, server, clip):
        with server.open_session(10.0) as session:
            outcomes = [session.submit(frame).result(timeout=30.0)
                        for frame in clip]
        assert all(isinstance(outcome, StreamFrameResult)
                   for outcome in outcomes)
        assert outcomes[0].scene_change

    def test_served_session_matches_engine_session(self, pipeline, server,
                                                   clip):
        reference_engine = Engine(HEBSAlgorithm(pipeline))
        with reference_engine.open_session(10.0) as reference:
            expected = [reference.submit(frame) for frame in clip]
        with server.open_session(10.0) as session:
            actual = [session.submit(frame).result(timeout=30.0)
                      for frame in clip]
        for want, got in zip(expected, actual):
            assert got.applied_backlight == want.applied_backlight
            assert got.requested_backlight == want.requested_backlight
            assert got.scene_change == want.scene_change
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)

    def test_served_frames_apply_only_kept_solutions(self, pipeline, clip):
        """Session frames ride ``solve_batch``: a frame's own solution is
        applied only when no re-derivation replaces it."""
        engine = Engine(HEBSAlgorithm(pipeline))
        algorithm = engine.algorithm()
        applied, rederived = [], []
        apply_solution = algorithm.apply_solution
        at_backlight = algorithm.at_backlight

        def counted_apply(*args, **kwargs):
            applied.append(1)
            return apply_solution(*args, **kwargs)

        def recorded_rederive(*args, **kwargs):
            rederived.append(at_backlight(*args, **kwargs))
            return rederived[-1]

        algorithm.apply_solution = counted_apply
        algorithm.at_backlight = recorded_rederive
        with Server(engine=engine, workers=1) as server:
            with server.open_session(10.0) as session:
                outcomes = [session.submit(frame).result(timeout=30.0)
                            for frame in clip]
        kept = sum(any(outcome.result is candidate
                       for candidate in rederived) for outcome in outcomes)
        assert kept > 0
        assert len(applied) == len(clip) - kept

    def test_pipelined_submits_resolve_in_display_order(self, pipeline,
                                                        server, clip):
        """A client may submit the whole clip without awaiting: futures
        resolve in order and the temporal trace equals the paced run."""
        reference_engine = Engine(HEBSAlgorithm(pipeline))
        with reference_engine.open_session(10.0) as reference:
            expected = [reference.submit(frame).applied_backlight
                        for frame in clip]
        with server.open_session(10.0) as session:
            futures = [session.submit(frame) for frame in clip]
            actual = [future.result(timeout=30.0).applied_backlight
                      for future in futures]
        assert actual == expected

    def test_session_queue_bound_backpressure(self, pipeline, clip):
        engine = HeldEngine(HEBSAlgorithm(pipeline))
        server = Server(engine=engine, workers=1, session_queue=2)
        with server:
            with server.open_session(10.0) as session:
                futures = [session.submit(clip[0])]       # in flight
                assert engine.entered.wait(timeout=30.0)  # held in the engine
                futures.append(session.submit(clip[1]))   # queued 1
                futures.append(session.submit(clip[2]))   # queued 2
                with pytest.raises(ServerOverloadedError):
                    session.submit(clip[3])               # queue full
                engine.release.set()
                for future in futures:
                    future.result(timeout=30.0)

    def test_closed_session_rejects_and_fails_queued_frames(self, server,
                                                            clip):
        session = server.open_session(10.0)
        first = session.submit(clip[0])
        queued = [session.submit(frame) for frame in clip[1:4]]
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit(clip[4])
        first.result(timeout=30.0)      # the in-flight frame still lands
        failures = 0
        for future in queued:
            try:
                future.result(timeout=30.0)
            except SessionClosedError:
                failures += 1
        assert failures > 0             # queued-behind frames were abandoned

    def test_session_cap_raises_overloaded(self, pipeline):
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1,
                        max_sessions=2)
        with server:
            first = server.open_session(10.0)
            second = server.open_session(10.0)
            with pytest.raises(ServerOverloadedError):
                server.open_session(10.0)
            first.close()
            third = server.open_session(10.0)    # capacity freed
            assert server.session_count == 2
            second.close()
            third.close()

    def test_per_session_options_forwarded(self, server, clip):
        with server.open_session(
                10.0, smoother=BacklightSmoother(initial=0.6,
                                                 max_step=0.05)) as session:
            outcome = session.submit(clip[0]).result(timeout=30.0)
        assert abs(outcome.applied_backlight - 0.6) <= 0.05 + 1e-9

    def test_recorded_latency_includes_session_queue_wait(self, pipeline,
                                                          clip):
        """Regression: frames pumped out of the session queue used to be
        re-stamped at pump time, so the recorded latency missed the wait
        behind their predecessors — exactly the overload signal the
        per-session telemetry exists to surface."""
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1)
        with server:
            with server.open_session(10.0) as session:
                submitted = time.perf_counter()
                futures = [session.submit(frame) for frame in clip]
                for future in futures:
                    future.result(timeout=30.0)
                client_seen = time.perf_counter() - submitted
            stats = server.stats()
        recorded = stats.sessions[session.id]
        # the last frame waited behind every predecessor, so the window's
        # worst latency must be of the order of the whole run, not of one
        # frame's compute leg
        assert recorded.latency_p95 >= 0.5 * client_seen

    def test_stats_count_sessions_and_frames(self, server, clip):
        with server.open_session(10.0) as session:
            for frame in clip[:4]:
                session.submit(frame).result(timeout=30.0)
            live = server.stats()
            assert live.sessions_open == 1
            assert session.id in live.sessions
        stats = server.stats()
        assert stats.sessions_opened == 1
        assert stats.sessions_closed == 1
        assert stats.sessions_open == 0
        assert stats.session_frames == 4
        per_session = stats.sessions[session.id]
        assert per_session.frames == 4
        assert per_session.latency_p95 >= per_session.latency_p50 >= 0.0
        payload = stats.as_dict()
        assert payload["session_frames"] == 4
        assert payload["sessions_opened"] == 1

    def test_server_close_closes_sessions(self, pipeline, clip):
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1)
        session = server.open_session(10.0)
        session.submit(clip[0]).result(timeout=30.0)
        server.close(wait=True)
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.submit(clip[1])

    def test_scene_gated_fast_path_through_the_server(self, pipeline,
                                                      server, clip):
        """Fast-path sessions ride the coalescer's non-batch lane: steady
        frames replay the held solution, and the outcome still matches a
        plain engine-side fast-path session."""
        frames = [clip[0]] * 4 + [clip[4]] * 4
        reference_engine = Engine(HEBSAlgorithm(pipeline))
        with reference_engine.open_session(
                10.0, scene_gated_solve=True) as reference:
            expected = [reference.submit(frame) for frame in frames]
        with server.open_session(10.0, scene_gated_solve=True) as session:
            actual = [session.submit(frame).result(timeout=30.0)
                      for frame in frames]
        assert [outcome.reused for outcome in actual] \
            == [outcome.reused for outcome in expected]
        assert any(outcome.reused for outcome in actual)
        for want, got in zip(expected, actual):
            assert got.applied_backlight == want.applied_backlight
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)
        assert session.stats().reused > 0

    def test_sessions_interleave_with_oneshot_traffic(self, server, clip,
                                                      lena):
        with server.open_session(10.0) as session:
            frame_future = session.submit(clip[0])
            oneshot_future = server.submit(lena, 10.0)
            assert isinstance(frame_future.result(timeout=30.0),
                              StreamFrameResult)
            oneshot_future.result(timeout=30.0)


class TestTTLEviction:
    def _manager(self, pipeline, clock, ttl=10.0):
        engine = Engine(HEBSAlgorithm(pipeline))
        server = Server(engine=engine, workers=1)
        manager = SessionManager(engine, server._coalescer,
                                 session_ttl=ttl, clock=clock)
        return server, manager

    def test_idle_sessions_are_reaped(self, pipeline):
        now = [0.0]
        server, manager = self._manager(pipeline, lambda: now[0])
        with server:
            idle = manager.open(10.0)
            now[0] = 11.0
            assert manager.sweep() == 1
            assert manager.open_count == 0
            assert idle.closed
            with pytest.raises(SessionClosedError):
                manager.feed(idle, None)

    def test_active_sessions_survive_the_sweep(self, pipeline, clip):
        now = [0.0]
        server, manager = self._manager(pipeline, lambda: now[0])
        with server:
            active = manager.open(10.0)
            now[0] = 9.0
            manager.feed(active, clip[0]).result(timeout=30.0)
            now[0] = 11.0   # 2s after the last frame: within the TTL
            assert manager.sweep() == 0
            assert not active.closed
            manager.close(active)

    def test_open_runs_the_sweep(self, pipeline):
        now = [0.0]
        server, manager = self._manager(pipeline, lambda: now[0])
        with server:
            stale = manager.open(10.0)
            now[0] = 50.0
            fresh = manager.open(10.0)      # opening sweeps the stale one
            assert stale.closed
            assert manager.open_count == 1
            manager.close(fresh)

    def test_ttl_none_disables_eviction(self, pipeline):
        now = [0.0]
        server, manager = self._manager(pipeline, lambda: now[0], ttl=None)
        with server:
            session = manager.open(10.0)
            now[0] = 1e9
            assert manager.sweep() == 0
            assert not session.closed
            manager.close(session)


class TestStreamLoadGenerator:
    def test_run_stream_load_reports(self, server, clip):
        report = run_stream_load(server, [clip[:4]] * 3, 10.0)
        assert report.sessions == 3
        assert report.frames == 12
        assert report.errors == 0
        assert len(report.latencies) == 12
        assert len(report.traces) == 3
        assert all(len(trace) == 4 for trace in report.traces.values())
        assert report.worst_step() <= 0.05 + 1e-9
        assert report.throughput > 0
        assert set(report.session_p95()) == set(report.traces)
        payload = report.as_dict()
        assert payload["sessions"] == 3
        assert payload["server_session_frames"] == 12

    def test_stream_report_table_renders(self, server, clip):
        report = run_stream_load(server, [clip[:3]] * 2, 10.0)
        rendered = stream_report_table(report, serial_seconds=1.0).render()
        assert "sessions" in rendered
        assert "speedup vs serial" in rendered

    def test_empty_workloads_rejected(self, server, clip):
        with pytest.raises(ValueError):
            run_stream_load(server, [], 10.0)
        with pytest.raises(ValueError):
            run_stream_load(server, [clip, []], 10.0)


class TestConcurrentSessions:
    def test_many_sessions_keep_their_own_temporal_state(self, pipeline,
                                                         server, clip):
        """8 concurrent sessions with different smoothers: every trace
        matches its own single-threaded reference, proving no cross-session
        state leakage through the shared batches."""
        steps = [0.03, 0.05, 0.08, 0.1] * 2
        references = []
        for max_step in steps:
            engine = Engine(HEBSAlgorithm(pipeline))
            with engine.open_session(
                    10.0,
                    smoother=BacklightSmoother(max_step=max_step)) as ref:
                references.append([ref.submit(frame).applied_backlight
                                   for frame in clip])

        traces = [None] * len(steps)
        errors = []

        def client(index: int) -> None:
            try:
                with server.open_session(
                        10.0, smoother=BacklightSmoother(
                            max_step=steps[index])) as session:
                    traces[index] = [
                        session.submit(frame).result(timeout=60.0)
                        .applied_backlight for frame in clip]
            except Exception as exc:   # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(steps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for reference, trace in zip(references, traces):
            assert trace == reference
