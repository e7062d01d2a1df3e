"""Unit and integration tests for the end-to-end HEBS pipeline (Fig. 4)."""

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.core.pipeline import HEBS, HEBSConfig
from repro.display.panel import PanelModel, TransmissivityModel
from repro.display.power import DisplayPowerModel
from repro.quality.distortion import get_measure


class TestConfig:
    def test_defaults_follow_paper(self):
        config = HEBSConfig()
        assert config.n_segments == 8
        assert config.g_min == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_segments"):
            HEBSConfig(n_segments=0)
        with pytest.raises(ValueError, match="g_min"):
            HEBSConfig(g_min=-1)
        with pytest.raises(ValueError, match="sources"):
            HEBSConfig(n_segments=8, driver_sources=4)
        with pytest.raises(ValueError, match="vdd"):
            HEBSConfig(vdd=0.0)


class TestRangeAndBacklightSelection:
    def test_select_range_monotone_in_budget(self, pipeline):
        assert pipeline.select_range(5.0) >= pipeline.select_range(20.0)

    def test_backlight_factor_for_range_ideal_transmissivity(self, pipeline):
        assert pipeline.backlight_factor_for_range(255) == pytest.approx(1.0)
        assert pipeline.backlight_factor_for_range(128) == pytest.approx(128 / 255)

    def test_backlight_factor_with_g_min_offset(self, characteristic_curve):
        offset_pipeline = HEBS(characteristic_curve, HEBSConfig(g_min=20))
        plain_pipeline = HEBS(characteristic_curve)
        assert offset_pipeline.backlight_factor_for_range(150) > \
            plain_pipeline.backlight_factor_for_range(150)

    def test_backlight_factor_range_validation(self, pipeline):
        with pytest.raises(ValueError, match="target range"):
            pipeline.backlight_factor_for_range(300)

    @pytest.mark.parametrize("t_off", [0.0, 0.1])
    @pytest.mark.parametrize("g_min", [0, 16])
    def test_range_for_backlight_factor_inverts_it(self, characteristic_curve,
                                                   g_min, t_off):
        panel = PanelModel(transmissivity=TransmissivityModel(t_off=t_off))
        hebs = HEBS(characteristic_curve, HEBSConfig(g_min=g_min),
                    DisplayPowerModel(panel=panel))
        for target_range in range(1, 256 - g_min):
            beta = hebs.backlight_factor_for_range(target_range)
            assert hebs.range_for_backlight_factor(beta) == target_range

    def test_range_for_backlight_factor_clips_and_validates(
            self, characteristic_curve):
        hebs = HEBS(characteristic_curve, HEBSConfig(g_min=16))
        assert hebs.range_for_backlight_factor(1e-3) == 1
        assert hebs.range_for_backlight_factor(1.0) == 255 - 16
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="backlight_factor"):
                hebs.range_for_backlight_factor(beta)


class TestProcessWithRange:
    def test_result_consistency(self, pipeline, lena):
        result = pipeline.process_with_range(lena, 180)
        assert result.target_range == 180
        assert result.transformed.max() <= 180
        assert result.backlight_factor == pytest.approx(180 / 255)
        assert result.coarse_curve.n_segments <= pipeline.config.n_segments
        assert result.driver_program.backlight_factor == result.backlight_factor
        assert result.power.total < result.reference_power.total
        assert 0.0 < result.power_saving < 1.0
        assert result.power_saving_percent == pytest.approx(
            100 * result.power_saving)

    def test_distortion_matches_configured_measure(self, pipeline, lena):
        result = pipeline.process_with_range(lena, 150)
        measure = get_measure("effective")
        assert result.distortion == pytest.approx(
            measure(result.original, result.transformed))

    def test_smaller_range_saves_more_power(self, pipeline, lena):
        mild = pipeline.process_with_range(lena, 220)
        aggressive = pipeline.process_with_range(lena, 100)
        assert aggressive.power_saving > mild.power_saving
        assert aggressive.distortion >= mild.distortion

    def test_fig8_magnitudes(self, pipeline, lena):
        """Fig. 8 regime: ~25-30% saving at R=220, ~45-60% at R=100."""
        mild = pipeline.process_with_range(lena, 220)
        aggressive = pipeline.process_with_range(lena, 100)
        assert 20.0 < mild.power_saving_percent < 35.0
        assert 45.0 < aggressive.power_saving_percent < 65.0

    def test_transform_realizable_by_the_driver(self, pipeline, lena):
        result = pipeline.process_with_range(lena, 160)
        assert pipeline.driver.can_realize(
            np.asarray(result.coarse_curve.x), np.asarray(result.coarse_curve.y))

    def test_driver_program_compensates_by_beta(self, pipeline, lena):
        """Eq. (10): programmed voltages are the Lambda outputs divided by
        beta (until they clamp at Vdd)."""
        result = pipeline.process_with_range(lena, 128)
        program = result.driver_program
        y = np.asarray(result.coarse_curve.y)
        expected = np.minimum(
            pipeline.driver.vdd * (y / 255.0) / result.backlight_factor,
            pipeline.driver.vdd)
        assert np.allclose(program.reference_voltages, expected, atol=1e-9)

    def test_rgb_input_converted(self, pipeline, rgb_image):
        result = pipeline.process_with_range(rgb_image, 180)
        assert result.original.is_grayscale

    def test_range_validation(self, pipeline, lena):
        with pytest.raises(ValueError, match="target range"):
            pipeline.process_with_range(lena, 0)
        with pytest.raises(ValueError, match="target range"):
            pipeline.process_with_range(lena, 256)

    def test_summary_keys(self, pipeline, lena):
        summary = pipeline.process_with_range(lena, 150).summary()
        for key in ("target_range", "backlight_factor", "distortion_percent",
                    "power_saving_percent", "plc_mse", "n_segments"):
            assert key in summary


class TestProcess:
    def test_budget_to_range_consistency(self, pipeline, lena):
        result = pipeline.process(lena, 10.0)
        assert result.target_range == pipeline.select_range(10.0)
        assert result.max_distortion == 10.0

    def test_larger_budget_saves_more(self, pipeline, lena):
        small = pipeline.process(lena, 5.0)
        large = pipeline.process(lena, 20.0)
        assert large.power_saving >= small.power_saving

    def test_negative_budget_rejected(self, pipeline, lena):
        with pytest.raises(ValueError, match="non-negative"):
            pipeline.process(lena, -1.0)


class TestProcessAdaptive:
    def test_respects_budget_when_feasible(self, pipeline, lena, baboon):
        for image in (lena, baboon):
            for budget in (5.0, 10.0, 20.0):
                result = pipeline.process_adaptive(image, budget)
                assert result.distortion <= budget + 1e-6

    def test_saving_monotone_in_budget(self, pipeline, lena):
        savings = [pipeline.process_adaptive(lena, budget).power_saving_percent
                   for budget in (5.0, 10.0, 20.0)]
        assert savings == sorted(savings)

    def test_table1_regime(self, pipeline, small_suite):
        """Average adaptive saving at a 10% budget is in the Table-1 regime
        (the paper reports ~56%; the synthetic suite lands within +-15 pp)."""
        savings = [pipeline.process_adaptive(image, 10.0).power_saving_percent
                   for image in small_suite.values()]
        assert 40.0 < float(np.mean(savings)) < 70.0

    def test_tight_budget_falls_back_to_full_range(self, pipeline, baboon):
        result = pipeline.process_adaptive(baboon, 0.01)
        assert result.target_range == pipeline.curve.levels - 1

    @pytest.mark.parametrize("name, budget", [("lena", 0.0),
                                              ("testpat", 5.0)])
    def test_over_budget_full_range_falls_back_to_the_identity(
            self, pipeline, full_suite, name, budget):
        """When even the full range overshoots, beta = 1 with the identity
        LUT keeps the budget: the image unchanged, zero saving."""
        image = full_suite[name]
        full_range = pipeline.process_with_range(image, 255)
        assert full_range.distortion > budget       # the fallback case
        result = pipeline.process_adaptive(image, budget)
        assert np.array_equal(result.transformed.pixels,
                              result.original.pixels)
        assert result.distortion <= budget
        assert result.backlight_factor == 1.0
        assert result.power_saving == 0.0
        assert result.target_range == 255
        # the engine caches and replays the same fallback
        engine = Engine(HEBSAlgorithm(pipeline, adaptive=True))
        for _ in range(2):
            served = engine.process(image, budget)
            assert np.array_equal(served.output.pixels,
                                  result.original.pixels)
            assert served.distortion <= budget
            assert served.power_saving_percent == 0.0
        assert engine.cache_stats.hits == 1

    def test_identity_solution_honours_g_min(self, pipeline, lena):
        offset = pipeline.with_config(g_min=16)
        solution = offset.identity_solution(lena)
        assert solution.target_range == 239
        assert offset.backlight_factor_for_range(239) == 1.0
        result = offset.apply_solution(solution, lena)
        assert np.array_equal(result.transformed.pixels,
                              lena.to_grayscale().pixels)

    def test_validation(self, pipeline, lena):
        with pytest.raises(ValueError, match="non-negative"):
            pipeline.process_adaptive(lena, -5.0)
        with pytest.raises(ValueError, match="range_tolerance"):
            pipeline.process_adaptive(lena, 10.0, range_tolerance=0)

    def test_adaptive_beats_or_matches_curve_based(self, pipeline, pout):
        """Per-image selection can exploit an easy image much better than the
        global curve (that is why Table 1 varies per image)."""
        adaptive = pipeline.process_adaptive(pout, 10.0)
        curve_based = pipeline.process(pout, 10.0)
        assert adaptive.power_saving >= curve_based.power_saving - 1e-6


class TestWithConfig:
    def test_with_config_changes_segments(self, pipeline, lena):
        coarse = pipeline.with_config(n_segments=2, driver_sources=2)
        result = coarse.process_with_range(lena, 150)
        assert result.coarse_curve.n_segments <= 2

    def test_more_segments_track_ghe_better(self, pipeline, lena):
        few = pipeline.with_config(n_segments=2, driver_sources=2)
        many = pipeline.with_config(n_segments=12, driver_sources=12)
        assert many.process_with_range(lena, 150).coarse_curve.mean_squared_error <= \
            few.process_with_range(lena, 150).coarse_curve.mean_squared_error

    def test_bit_depth_mismatch_detected(self, pipeline):
        from repro.imaging.image import Image
        ten_bit = Image.constant(500, shape=(16, 16), bit_depth=10)
        with pytest.raises(ValueError, match="levels"):
            pipeline.process_with_range(ten_bit, 150)

    def test_custom_power_model(self, characteristic_curve, lena):
        pipeline = HEBS(characteristic_curve, power_model=DisplayPowerModel())
        result = pipeline.process_with_range(lena, 150)
        assert result.power.total > 0
