"""Unit tests for the effective-distortion measure and the measure registry."""

import numpy as np
import pytest

from repro.core.equalization import equalize_histogram
from repro.imaging.image import Image
from repro.imaging.ops import adjust_brightness, adjust_contrast, clip_pixels
from repro.quality import distortion as distortion_module
from repro.quality.distortion import (
    CONTRAST_LOSS_EXPONENT,
    LUMINANCE_ADAPTATION_EXPONENT,
    RangeDistortion,
    available_measures,
    effective_distortion,
    get_measure,
    register_measure,
)
from repro.quality.hvs import HVSModel
from repro.quality.uqi import uqi_components


class TestEffectiveDistortion:
    def test_zero_for_identical(self, lena):
        assert effective_distortion(lena, lena) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, lena, pout):
        assert effective_distortion(lena, pout) >= 0.0

    def test_monotone_in_range_compression(self, lena):
        """Compressing to a smaller dynamic range must not look better."""
        values = []
        for target_range in (220, 150, 80, 40):
            transformed = equalize_histogram(lena, 0, target_range).apply(lena)
            values.append(effective_distortion(lena, transformed))
        assert values == sorted(values)

    def test_magnitudes_match_paper_regime(self, lena):
        """A mild compression is a few percent, a harsh one tens of percent."""
        mild = equalize_histogram(lena, 0, 220).apply(lena)
        harsh = equalize_histogram(lena, 0, 50).apply(lena)
        assert effective_distortion(lena, mild) < 15.0
        assert effective_distortion(lena, harsh) > 25.0

    def test_contrast_enhancement_is_cheap(self, pout):
        """Pure enhancement (what equalization does to a dull image) is benign."""
        enhanced = adjust_contrast(pout, 1.5, pivot=0.5)
        clipped = clip_pixels(pout, 80, 120)
        assert effective_distortion(pout, enhanced) < \
            effective_distortion(pout, clipped)

    def test_clipping_is_expensive(self, lena):
        """Flat-band clipping destroys structure and must register strongly."""
        clipped = clip_pixels(lena, 110, 150)
        assert effective_distortion(lena, clipped) > 10.0

    def test_brightness_shift_partially_adapted(self, lena):
        shifted = adjust_brightness(lena, 0.1)
        value = effective_distortion(lena, shifted)
        assert 0.0 < value < 20.0

    def test_exponent_validation(self, lena, pout):
        with pytest.raises(ValueError, match="luminance_exponent"):
            effective_distortion(lena, pout, luminance_exponent=1.5)
        with pytest.raises(ValueError, match="contrast_loss_exponent"):
            effective_distortion(lena, pout, contrast_loss_exponent=-0.1)

    def test_zero_exponents_ignore_global_remapping(self, lena):
        shifted = adjust_brightness(lena, 0.2)
        adapted = effective_distortion(lena, shifted, luminance_exponent=0.0,
                                       contrast_loss_exponent=0.0)
        charged = effective_distortion(lena, shifted, luminance_exponent=1.0,
                                       contrast_loss_exponent=1.0)
        assert adapted < charged


class TestRangeDistortion:
    """``D~(R)``, the closed-form curve that steers ``hebs-adaptive``."""

    @staticmethod
    def _every_other_window(original, transformed):
        """The measure's own per-window factors for ``transformed``,
        adapted, weighted and pooled over every other window in each axis
        (the windows ``D~`` keeps)."""
        prepared = distortion_module._prepared_reference(original, 8,
                                                         HVSModel())
        factors = uqi_components(prepared.uqi, transformed)
        kept = (slice(None, None, 2),) * 2
        variance = prepared.uqi.variance[kept]
        lost = ((variance > 1e-12)
                & (factors.candidate_variance[kept] < variance))
        contrast = np.where(lost, np.clip(factors.contrast[kept], 0.0, 1.0),
                            1.0)
        quality = (np.clip(factors.correlation[kept], 0.0, 1.0)
                   * np.clip(factors.luminance[kept], 0.0, 1.0)
                   ** LUMINANCE_ADAPTATION_EXPONENT
                   * contrast ** CONTRAST_LOSS_EXPONENT)
        weights = prepared.weights[kept]
        return 100.0 * (1.0 - float(np.sum(quality * weights)
                                    / np.sum(weights)))

    @pytest.mark.parametrize("offset", [0, 16])
    def test_pools_the_measure_when_nothing_rounds(self, small_suite,
                                                   offset):
        """Where ``offset + R * shape`` lands on display levels, ``D~(R)``
        is the measure's per-window factors pooled over the windows it
        keeps (up to its single-precision evaluation): the factor formulas
        have not drifted."""
        rng = np.random.default_rng(3)
        for image in small_suite.values():
            gray = image.to_grayscale()
            steps = np.sort(rng.integers(0, 240 - offset, size=256))
            steps[rng.random(256) < 0.3] = 0          # flat runs as well
            levels = np.maximum.accumulate(steps)
            for target_range in (1, 3):
                shape = levels / 255.0 / target_range
                curve = RangeDistortion(gray, offset / 255.0, shape)
                transformed = gray.with_pixels(offset + levels[gray.pixels])
                # measured: within 1.1e-5, and 0.04 of the full grid
                assert curve(target_range) == pytest.approx(
                    self._every_other_window(gray, transformed), abs=1e-4)
                assert curve(target_range) == pytest.approx(
                    effective_distortion(gray, transformed), abs=0.1)

    def test_tracks_the_measure_on_the_suite(self, pipeline, full_suite):
        """At R = 40, 80, ..., 240 on the rounded, displayed images.
        Measured: median 0.029, p95 0.34, max 2.76 distortion points; the
        max is the synthetic test chart at R = 40, whose flat bars round
        onto shared levels that ``D~`` keeps apart.  Every other image
        stays within 0.48."""
        errors = {}
        for name, image in full_suite.items():
            gray = image.to_grayscale()
            widest = pipeline.process_with_range(gray, 255)
            shape = np.asarray(widest.transform(np.arange(256) / 255)) / 255
            curve = RangeDistortion(gray, 0.0, shape)
            for target_range in range(40, 241, 40):
                exact = pipeline.process_with_range(gray, target_range)
                errors[name, target_range] = abs(curve(target_range)
                                                 - exact.distortion)
        values = np.array(list(errors.values()))
        assert float(np.median(values)) <= 0.05
        assert float(np.percentile(values, 95)) <= 0.5
        assert max(error for (name, _), error in errors.items()
                   if name != "testpat") <= 0.6
        assert float(values.max()) <= 3.0

    def test_validation(self, lena):
        with pytest.raises(ValueError, match="levels"):
            RangeDistortion(lena, 0.0, np.zeros(16))


class TestMeasureRegistry:
    def test_available_measures(self):
        names = available_measures()
        for expected in ("effective", "uqi", "ssim", "rmse", "saturation",
                         "contrast", "histogram"):
            assert expected in names

    def test_get_measure_case_insensitive(self):
        assert get_measure("EFFECTIVE") is effective_distortion

    def test_unknown_measure(self):
        with pytest.raises(KeyError, match="unknown distortion measure"):
            get_measure("nope")

    def test_every_measure_is_zero_for_identity(self, lena):
        for name in available_measures():
            assert get_measure(name)(lena, lena) == pytest.approx(0.0, abs=1e-6), name

    def test_every_measure_is_positive_for_severe_brightening(self, lena):
        # a strong brightness shift saturates many pixels at white, so every
        # registered measure (including the saturation count) must fire
        shifted = adjust_brightness(lena, 0.3)
        for name in available_measures():
            assert get_measure(name)(lena, shifted) > 0.0, name

    def test_register_and_reject_duplicates(self, lena):
        def trivial(original: Image, transformed: Image) -> float:
            return 42.0

        register_measure("trivial-test-measure", trivial)
        try:
            assert get_measure("trivial-test-measure")(lena, lena) == 42.0
            with pytest.raises(ValueError, match="already registered"):
                register_measure("trivial-test-measure", trivial)
        finally:
            distortion_module._MEASURES.pop("trivial-test-measure", None)


class TestMeasureRelationships:
    def test_saturation_measure_blind_to_compression(self, lena):
        """The ref. [4] measure under-reports compression distortion.

        This is the paper's motivation for a better measure: histogram
        compression that collapses interior levels produces no saturated
        pixels, so the saturation measure reports ~0 even though the image
        lost detail.
        """
        compressed = equalize_histogram(lena, 0, 80).apply(lena)
        saturation = get_measure("saturation")(lena, compressed)
        effective = get_measure("effective")(lena, compressed)
        assert saturation < 5.0
        assert effective > saturation

    def test_rmse_and_effective_disagree_on_enhancement(self, pout):
        """RMSE punishes benign contrast enhancement much more than HVS."""
        enhanced = adjust_contrast(pout, 1.6, pivot=0.5)
        assert get_measure("rmse")(pout, enhanced) > \
            get_measure("effective")(pout, enhanced)
