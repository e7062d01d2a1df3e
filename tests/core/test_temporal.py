"""Unit tests for the temporal (video) backlight controller."""

import numpy as np
import pytest

from repro.core.pipeline import HEBS, HEBSConfig
from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
    TemporalBacklightController,
)
from repro.display.panel import PanelModel, TransmissivityModel
from repro.display.power import DisplayPowerModel
from repro.imaging.image import Image


def make_clip(bright_then_dark: bool = True, n_frames: int = 6) -> list[Image]:
    """A deterministic clip with a hard scene cut in the middle."""
    rng = np.random.default_rng(7)
    bright = np.clip(rng.normal(0.7, 0.1, size=(48, 48)), 0, 1)
    dark = np.clip(rng.normal(0.25, 0.08, size=(48, 48)), 0, 1)
    first, second = (bright, dark) if bright_then_dark else (dark, bright)
    frames = []
    for index in range(n_frames):
        scene = first if index < n_frames // 2 else second
        jitter = 0.01 * rng.standard_normal(scene.shape)
        frames.append(Image.from_float(np.clip(scene + jitter, 0, 1),
                                       name=f"frame{index}"))
    return frames


class TestBacklightSmoother:
    def test_validation(self):
        with pytest.raises(ValueError, match="smoothing"):
            BacklightSmoother(smoothing=0.0)
        with pytest.raises(ValueError, match="max_step"):
            BacklightSmoother(max_step=0.0)
        with pytest.raises(ValueError, match="initial"):
            BacklightSmoother(initial=0.0)

    def test_step_limit_enforced(self):
        smoother = BacklightSmoother(smoothing=1.0, max_step=0.1, initial=1.0)
        applied = smoother.update(0.3)
        assert applied == pytest.approx(0.9)

    def test_converges_to_constant_target(self):
        smoother = BacklightSmoother(smoothing=0.5, max_step=0.2, initial=1.0)
        for _ in range(40):
            value = smoother.update(0.4)
        assert value == pytest.approx(0.4, abs=0.02)

    def test_no_overshoot(self):
        smoother = BacklightSmoother(smoothing=1.0, max_step=0.5, initial=1.0)
        assert smoother.update(0.8) == pytest.approx(0.8)

    def test_reset(self):
        smoother = BacklightSmoother(initial=0.9)
        smoother.update(0.3)
        smoother.reset()
        assert smoother.current == 0.9
        smoother.reset(0.5)
        assert smoother.current == 0.5

    def test_target_validation(self):
        with pytest.raises(ValueError, match="target"):
            BacklightSmoother().update(0.0)

    def test_reset_within_limit(self):
        smoother = BacklightSmoother(max_step=0.1, initial=0.8)
        assert smoother.reset_within_limit(0.75)
        assert smoother.current == 0.75
        # beyond the flicker bound: rejected, state unchanged
        assert not smoother.reset_within_limit(0.5)
        assert smoother.current == 0.75
        # an explicit reference anchors the bound instead of the current
        assert not smoother.reset_within_limit(0.75, reference=0.5)
        assert smoother.reset_within_limit(0.55, reference=0.5)
        assert smoother.current == 0.55


class TestRollingHistogram:
    def test_first_frame_initializes(self, lena):
        rolling = RollingHistogram()
        assert rolling.is_empty
        histogram = rolling.update(lena)
        assert histogram.n_pixels == pytest.approx(lena.n_pixels, rel=0.01)

    def test_blends_towards_new_content(self, lena, pout):
        rolling = RollingHistogram(alpha=0.5)
        rolling.update(lena)
        blended = rolling.update(pout)
        distance_to_pout = blended.l1_distance(
            RollingHistogram().update(pout))
        distance_to_lena = blended.l1_distance(
            RollingHistogram().update(lena))
        # after one 50% update the estimate sits between the two images
        assert 0.0 < distance_to_pout
        assert 0.0 < distance_to_lena

    def test_alpha_one_tracks_instantly(self, lena, pout):
        rolling = RollingHistogram(alpha=1.0)
        rolling.update(lena)
        tracked = rolling.update(pout)
        assert tracked.l1_distance(RollingHistogram().update(pout)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_current_before_update_raises(self):
        with pytest.raises(RuntimeError, match="no frame"):
            RollingHistogram().current()

    def test_reset(self, lena):
        rolling = RollingHistogram()
        rolling.update(lena)
        rolling.reset()
        assert rolling.is_empty

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RollingHistogram(alpha=0.0)
        with pytest.raises(ValueError, match="levels"):
            RollingHistogram(levels=1)


class TestSceneChangeDetector:
    def test_first_frame_is_a_scene_change(self, lena):
        assert SceneChangeDetector().observe(lena) is True

    def test_similar_frame_is_not(self, lena):
        detector = SceneChangeDetector()
        detector.observe(lena)
        assert detector.observe(lena) is False

    def test_hard_cut_detected(self, lena, pout):
        detector = SceneChangeDetector(threshold=0.2)
        detector.observe(lena)
        assert detector.observe(pout) is True

    def test_reset(self, lena):
        detector = SceneChangeDetector()
        detector.observe(lena)
        detector.reset()
        assert detector.observe(lena) is True

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            SceneChangeDetector(threshold=0.0)


class TestTemporalBacklightController:
    def test_flicker_constraint_met(self, pipeline):
        controller = TemporalBacklightController(
            pipeline, max_distortion=15.0,
            smoother=BacklightSmoother(smoothing=0.6, max_step=0.08))
        for frame in make_clip():
            controller.submit(frame)
        # 1/255 slack for the rounding of the factor to a dynamic range
        assert controller.worst_step() <= 0.08 + 1.5 / 255

    def test_scene_cut_flagged_once(self, pipeline):
        controller = TemporalBacklightController(pipeline, max_distortion=15.0)
        flags = [controller.submit(frame).scene_change for frame in make_clip()]
        assert flags[0] is True            # first frame
        assert any(flags[1:])              # the cut in the middle
        assert flags.count(True) <= 3      # but not every frame

    def test_energy_saved_versus_full_backlight(self, pipeline):
        controller = TemporalBacklightController(pipeline, max_distortion=15.0)
        for frame in make_clip():
            controller.submit(frame)
        assert controller.energy() < controller.reference_energy()
        assert 0.0 < controller.energy_saving_percent() < 100.0

    def test_requested_vs_applied_tracking(self, pipeline):
        controller = TemporalBacklightController(
            pipeline, max_distortion=15.0,
            smoother=BacklightSmoother(smoothing=1.0, max_step=1.0))
        outcome = controller.submit(make_clip()[0])
        # with no smoothing the applied factor equals the requested one up to
        # the 1-level rounding of the dynamic range
        assert outcome.applied_backlight == pytest.approx(
            outcome.requested_backlight, abs=1.5 / 255)

    def test_history_and_trace(self, pipeline):
        controller = TemporalBacklightController(pipeline, max_distortion=15.0,
                                                 adaptive=False)
        clip = make_clip(n_frames=4)
        for frame in clip:
            controller.submit(frame)
        assert len(controller.history) == 4
        assert controller.backlight_trace().shape == (4,)

    def test_validation(self, pipeline):
        with pytest.raises(ValueError, match="non-negative"):
            TemporalBacklightController(pipeline, max_distortion=-1.0)

    def test_default_panel_maps_the_factor_to_the_nearest_level(self,
                                                                pipeline):
        controller = TemporalBacklightController(pipeline, max_distortion=15.0)
        for frame in make_clip():
            outcome = controller.submit(frame)
            applied = controller.smoother.current
            assert outcome.result.target_range == int(
                np.clip(round(applied * 255), 1, 255))

    def test_g_min_offsets_the_range(self, characteristic_curve, lena, pout):
        hebs = HEBS(characteristic_curve, HEBSConfig(g_min=16))
        controller = TemporalBacklightController(hebs, max_distortion=10.0)
        for frame in (lena, lena, pout):
            outcome = controller.submit(frame)
            assert 1 <= outcome.result.target_range <= 255 - 16
            # the nearest level to the smoothed factor: half a level off
            assert abs(outcome.applied_backlight
                       - controller.smoother.current) <= 0.5 / 255 + 1e-12

    def test_leaky_panel_reports_the_smoothed_factor(self,
                                                     characteristic_curve,
                                                     lena, pout):
        leaky = TransmissivityModel(t_off=0.1)
        hebs = HEBS(characteristic_curve, power_model=DisplayPowerModel(
            panel=PanelModel(transmissivity=leaky)))
        controller = TemporalBacklightController(hebs, max_distortion=10.0)
        # beta moves by (t_on - t_off) / 255 / t_on per level
        half_level = 0.5 * (leaky.t_on - leaky.t_off) / 255 / leaky.t_on
        for frame in (lena, lena, lena, pout, pout):
            outcome = controller.submit(frame)
            assert abs(outcome.applied_backlight
                       - controller.smoother.current) <= half_level + 1e-12


class TestDataclassHygiene:
    """The private mutable state of the temporal dataclasses must be
    init-excluded, repr-excluded, and honestly annotated."""

    def test_rolling_histogram_weights_field(self):
        import typing

        field = RollingHistogram.__dataclass_fields__["_weights"]
        assert not field.init
        assert not field.repr
        hints = typing.get_type_hints(RollingHistogram)
        assert type(None) in typing.get_args(hints["_weights"])
        assert RollingHistogram().is_empty        # default really is None

    def test_smoother_current_field(self):
        field = BacklightSmoother.__dataclass_fields__["_current"]
        assert not field.init
        assert not field.repr
        # the repr stays a constructor-shaped view of the public knobs
        assert "_current" not in repr(BacklightSmoother(initial=0.5))

    def test_smoother_current_cannot_be_injected(self):
        with pytest.raises(TypeError):
            BacklightSmoother(_current=0.2)

    def test_rolling_weights_cannot_be_injected(self):
        with pytest.raises(TypeError):
            RollingHistogram(_weights=None)
