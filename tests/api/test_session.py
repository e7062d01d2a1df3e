"""Tests for the push-based StreamSession API (Engine.open_session)."""

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm, available_algorithms, create
from repro.api.session import SessionClosedError, StreamSession
from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
)
from repro.imaging.image import Image


@pytest.fixture(scope="module")
def clip():
    """A deterministic 12-frame fade between two flat luminance plateaus."""
    frames = []
    for index in range(12):
        level = 40 if index < 6 else 200
        noise = np.full((32, 32), level, dtype=np.int64)
        noise[index % 32, :] = min(level + 5, 255)
        frames.append(Image(noise, name=f"frame{index:02d}"))
    return frames


def _legacy_process_stream(engine, frames, max_distortion, *,
                           smoother=None, scene_detector=None,
                           rederive=True):
    """The pre-refactor ``Engine.process_stream`` loop, verbatim: the
    golden reference the session wrapper must match bit for bit."""
    from repro.api.types import StreamFrameResult

    algo = engine.algorithm(None)
    smoother = smoother or BacklightSmoother()
    scene_detector = scene_detector or SceneChangeDetector()
    for frame in frames:
        grayscale = frame.to_grayscale()
        scene_change = scene_detector.observe(grayscale)
        previous = smoother.current
        raw = engine.process(grayscale, max_distortion, algorithm=algo)
        applied = smoother.update(raw.backlight_factor)
        result = raw
        applied_factor = applied
        if rederive and abs(applied - raw.backlight_factor) > 1e-9:
            try:
                candidate = algo.at_backlight(
                    grayscale, applied, max_distortion=max_distortion)
            except NotImplementedError:
                pass
            else:
                quantized = candidate.backlight_factor
                if smoother.reset_within_limit(quantized,
                                               reference=previous):
                    result = candidate
                    applied_factor = quantized
        yield StreamFrameResult(
            result=result,
            requested_backlight=raw.backlight_factor,
            applied_backlight=applied_factor,
            scene_change=scene_change,
        )


class TestGoldenRegression:
    def test_wrapper_is_bit_identical_to_legacy_loop(self, pipeline, clip):
        """`process_stream` via the session wrapper must yield a bitwise
        identical StreamFrameResult sequence to the pre-refactor inline
        implementation on a fixed synthetic clip."""
        legacy_engine = Engine(HEBSAlgorithm(pipeline))
        expected = list(_legacy_process_stream(legacy_engine, clip, 10.0))

        engine = Engine(HEBSAlgorithm(pipeline))
        actual = list(engine.process_stream(clip, 10.0))

        assert len(actual) == len(expected)
        for want, got in zip(expected, actual):
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)
            assert got.result.backlight_factor == want.result.backlight_factor
            assert got.result.distortion == want.result.distortion
            assert got.requested_backlight == want.requested_backlight
            assert got.applied_backlight == want.applied_backlight
            assert got.scene_change == want.scene_change
            assert not got.reused

    def test_wrapper_matches_legacy_with_tight_smoother(self, pipeline, clip):
        legacy_engine = Engine(HEBSAlgorithm(pipeline))
        expected = list(_legacy_process_stream(
            legacy_engine, clip, 10.0,
            smoother=BacklightSmoother(max_step=0.002)))
        engine = Engine(HEBSAlgorithm(pipeline))
        actual = list(engine.process_stream(
            clip, 10.0, smoother=BacklightSmoother(max_step=0.002)))
        for want, got in zip(expected, actual):
            assert got.applied_backlight == want.applied_backlight
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)


class TestStreamSession:
    def test_submit_equals_process_stream(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        streamed = list(engine.process_stream(clip, 10.0))
        session_engine = Engine(HEBSAlgorithm(pipeline))
        with session_engine.open_session(10.0) as session:
            pushed = [session.submit(frame) for frame in clip]
        for want, got in zip(streamed, pushed):
            assert got.applied_backlight == want.applied_backlight
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)

    def test_split_phases_equal_submit(self, pipeline, clip):
        """begin -> compute -> complete is exactly submit (the contract the
        serving layer's batch interleave relies on)."""
        whole = Engine(HEBSAlgorithm(pipeline))
        with whole.open_session(10.0) as session:
            expected = [session.submit(frame) for frame in clip[:6]]
        split = Engine(HEBSAlgorithm(pipeline))
        with split.open_session(10.0) as session:
            actual = []
            for frame in clip[:6]:
                plan = session.begin(frame)
                assert plan.needs_solve and plan.batchable
                actual.append(session.complete(plan, session.compute(plan)))
        for want, got in zip(expected, actual):
            assert got.applied_backlight == want.applied_backlight
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)

    def test_batchable_raw_may_come_from_process_batch(self, pipeline, clip):
        """A batchable frame's raw result can be produced by the shared
        process_batch path without changing the outcome."""
        reference = Engine(HEBSAlgorithm(pipeline))
        with reference.open_session(10.0) as session:
            expected = [session.submit(frame) for frame in clip[:4]]
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(10.0) as session:
            actual = []
            for frame in clip[:4]:
                plan = session.begin(frame)
                raw = engine.process_batch([plan.grayscale], 10.0,
                                           algorithm=session.algorithm)[0]
                actual.append(session.complete(plan, raw))
        for want, got in zip(expected, actual):
            assert got.applied_backlight == want.applied_backlight
            assert np.array_equal(want.result.output.pixels,
                                  got.result.output.pixels)

    def test_counters(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(10.0) as session:
            for frame in clip:
                session.submit(frame)
            stats = session.stats()
        assert stats.frames == len(clip)
        assert stats.solved == len(clip)
        assert stats.reused == 0
        assert stats.scene_changes >= 2     # first frame + the plateau cut
        assert session.frames == len(clip)

    def test_closed_session_rejects_frames(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        session = engine.open_session(10.0)
        session.submit(clip[0])
        session.close()
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.submit(clip[1])
        session.close()     # idempotent

    def test_sessions_share_the_engine_cache(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(10.0) as first:
            for frame in clip[:4]:
                first.submit(frame)
        hits_before = engine.cache_stats.hits
        with engine.open_session(10.0) as second:
            for frame in clip[:4]:
                second.submit(frame)
        assert engine.cache_stats.hits > hits_before

    def test_invalid_budget_rejected(self, pipeline):
        engine = Engine(HEBSAlgorithm(pipeline))
        with pytest.raises(ValueError):
            engine.open_session(-1.0)

    def test_session_exposes_configuration(self, pipeline):
        engine = Engine(HEBSAlgorithm(pipeline))
        session = engine.open_session(12.5)
        assert session.max_distortion == 12.5
        assert session.algorithm.name == "hebs"
        assert isinstance(session, StreamSession)


def _record(algorithm, name):
    """Wrap ``algorithm.<name>``; returns the list of its return values."""
    method, returned = getattr(algorithm, name), []

    def recorded(*args, **kwargs):
        returned.append(method(*args, **kwargs))
        return returned[-1]

    setattr(algorithm, name, recorded)
    return returned


class TestUnappliedSolutions:
    """A session applies a frame's own solution only when it keeps the raw
    result, and skips a re-derivation it would discard."""

    @pytest.mark.parametrize("max_step", [0.05, 0.002])
    def test_applies_and_rederives_only_what_it_keeps(self, pipeline, clip,
                                                      max_step):
        expected = list(_legacy_process_stream(
            Engine(HEBSAlgorithm(pipeline)), clip, 10.0,
            smoother=BacklightSmoother(max_step=max_step)))
        engine = Engine(HEBSAlgorithm(pipeline))
        algorithm = engine.algorithm()
        applied = _record(algorithm, "apply_solution")
        rederived = _record(algorithm, "at_backlight")
        with engine.open_session(
                10.0, smoother=BacklightSmoother(max_step=max_step)) as session:
            actual = [session.submit(frame) for frame in clip]
        for want, got in zip(expected, actual):
            assert got == want
            assert np.array_equal(got.result.output.pixels,
                                  want.result.output.pixels)
        kept_rederived = sum(any(outcome.result is candidate
                                 for candidate in rederived)
                             for outcome in actual)
        assert len(applied) == len(clip) - kept_rederived
        # every re-derivation run is kept: the discarded ones were skipped
        assert len(rederived) == kept_rederived
        assert engine.processed == len(clip)

    def test_skipping_changes_nothing(self, pipeline, clip):
        """With the realized factor unknown every moved frame re-derives;
        the outcomes are the same."""
        outcomes, calls = [], []
        for known in (True, False):
            engine = Engine(HEBSAlgorithm(pipeline))
            algorithm = engine.algorithm()
            if not known:
                algorithm.realized_backlight = lambda factor: None
            calls.append(_record(algorithm, "at_backlight"))
            with engine.open_session(10.0) as session:
                outcomes.append([session.submit(frame) for frame in clip])
        assert outcomes[0] == outcomes[1]
        assert len(calls[0]) < len(calls[1])

    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_solution_carries_the_applied_factor(self, name, clip):
        """A session reads the requested factor off the unapplied
        solution."""
        algorithm = create(name)
        for frame in clip[::5]:
            solution = algorithm.solve(frame, 10.0)
            assert algorithm.apply_solution(
                solution, frame, 10.0).backlight_factor == \
                solution.backlight_factor

    def test_realized_backlight_is_the_rederived_factor(self, pipeline,
                                                        clip):
        algorithm = HEBSAlgorithm(pipeline)
        for factor in np.linspace(0.05, 1.0, 40):
            assert algorithm.realized_backlight(factor) == \
                algorithm.at_backlight(clip[0], factor).backlight_factor


class TestSceneGatedFastPath:
    def test_steady_frames_skip_the_solve(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        frames = [clip[0]] * 6 + [clip[6]] * 6    # two steady scenes
        with engine.open_session(10.0, scene_gated_solve=True) as session:
            results = [session.submit(frame) for frame in frames]
        stats = session.stats()
        assert stats.frames == 12
        assert stats.reused > 0
        assert stats.solved < 12
        assert stats.solved + stats.reused == 12
        # reused frames are flagged, solved ones are not
        assert any(result.reused for result in results)
        assert not results[0].reused              # first frame always solves

    def test_cut_forces_a_fresh_solve(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(
                10.0, scene_gated_solve=True,
                scene_detector=SceneChangeDetector(threshold=0.25)) as session:
            for frame in [clip[0]] * 4:
                session.submit(frame)
            outcome = session.submit(clip[6])     # the 40 -> 200 plateau jump
        assert outcome.scene_change
        assert not outcome.reused

    def test_fast_path_still_honors_flicker_bound(self, pipeline, clip):
        max_step = 0.05
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(
                10.0, scene_gated_solve=True,
                smoother=BacklightSmoother(max_step=max_step)) as session:
            results = [session.submit(frame) for frame in clip]
        trace = np.array([1.0] + [r.applied_backlight for r in results])
        assert np.abs(np.diff(trace)).max() <= max_step + 1e-9

    def test_custom_rolling_histogram_respected(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        rolling = RollingHistogram(alpha=1.0)     # no inertia at all
        with engine.open_session(10.0, scene_gated_solve=True,
                                 rolling=rolling) as session:
            session.submit(clip[0])
        assert not rolling.is_empty


class TestSnapOnSceneChange:
    def test_cut_crawls_without_snap(self, pipeline, clip):
        """Failing-before behaviour being fixed: with the default smoother a
        hard cut converges at max_step per frame, taking many frames."""
        engine = Engine(HEBSAlgorithm(pipeline))
        results = list(engine.process_stream(
            clip, 10.0, smoother=BacklightSmoother(max_step=0.05)))
        cut = results[6]                          # the 40 -> 200 plateau jump
        assert cut.scene_change
        # the request jumped, the applied factor crawled: still far apart
        assert abs(cut.applied_backlight
                   - cut.requested_backlight) > 0.05

    def test_snap_jumps_to_the_new_target_at_the_cut(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        results = list(engine.process_stream(
            clip, 10.0, smoother=BacklightSmoother(max_step=0.05),
            snap_on_scene_change=True))
        cut = results[6]
        assert cut.scene_change
        assert cut.applied_backlight == pytest.approx(
            cut.requested_backlight, abs=1e-9)
        # and the transform agrees with the programmed factor
        assert cut.result.backlight_factor == cut.applied_backlight

    def test_snap_keeps_the_flicker_bound_between_cuts(self, pipeline, clip):
        """Snapping relaxes the bound only *across* a cut; every other
        frame-to-frame step must still honor the smoother's max_step."""
        max_step = 0.05
        engine = Engine(HEBSAlgorithm(pipeline))
        results = list(engine.process_stream(
            clip, 10.0, smoother=BacklightSmoother(max_step=max_step),
            snap_on_scene_change=True))
        previous = None
        for outcome in results:
            if previous is not None and not outcome.scene_change:
                assert (abs(outcome.applied_backlight - previous)
                        <= max_step + 1e-9)
            previous = outcome.applied_backlight

    def test_snap_works_on_sessions_too(self, pipeline, clip):
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(10.0, snap_on_scene_change=True) as session:
            results = [session.submit(frame) for frame in clip]
        cut = results[6]
        assert cut.applied_backlight == pytest.approx(
            cut.requested_backlight, abs=1e-9)


class TestSatelliteCoverage:
    def test_non_default_initial_flows_through_process_stream(self, pipeline,
                                                              clip):
        """The first frame slews from the smoother's `initial`, not 1.0."""
        max_step = 0.05
        engine = Engine(HEBSAlgorithm(pipeline))
        results = list(engine.process_stream(
            clip[:3], 10.0,
            smoother=BacklightSmoother(initial=0.6, max_step=max_step)))
        first = results[0].applied_backlight
        assert abs(first - 0.6) <= max_step + 1e-9
        assert abs(first - 1.0) > max_step      # clearly not anchored at 1.0

    def test_non_default_initial_flows_through_sessions(self, pipeline, clip):
        max_step = 0.05
        engine = Engine(HEBSAlgorithm(pipeline))
        with engine.open_session(
                10.0, smoother=BacklightSmoother(initial=0.6,
                                                 max_step=max_step)) as session:
            first = session.submit(clip[0]).applied_backlight
        assert abs(first - 0.6) <= max_step + 1e-9

    def test_process_stream_on_empty_iterable(self, pipeline):
        engine = Engine(HEBSAlgorithm(pipeline))
        assert list(engine.process_stream(iter([]), 10.0)) == []
        assert engine.processed == 0
