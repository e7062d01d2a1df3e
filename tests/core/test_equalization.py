"""Unit tests for the Global Histogram Equalization solver (Eq. 4-7)."""

import numpy as np
import pytest

from repro.core.equalization import (
    equalization_objective,
    equalization_transform,
    equalize_histogram,
)
from repro.core.histogram import Histogram
from repro.imaging.image import Image


class TestEqualizationTransform:
    def test_monotone_for_any_histogram(self, lena, baboon, pout, testpat=None):
        for image in (lena, baboon, pout):
            transform = equalization_transform(Histogram.of_image(image), 0, 200)
            table = np.asarray(transform.table)
            assert np.all(np.diff(table) >= -1e-12)

    def test_output_range_respects_limits(self, lena):
        transform = equalization_transform(Histogram.of_image(lena), 40, 180)
        outputs = np.asarray(transform.table) * 255
        assert outputs.min() >= 40 - 0.5
        assert outputs.max() <= 180 + 0.5

    def test_eq5_closed_form(self):
        """Phi(x) = g_min + R * H(x) / N for a hand-computed histogram."""
        histogram = Histogram(np.array([2, 0, 2, 0, 4, 0, 0, 2]))  # N = 10
        transform = equalization_transform(histogram, 0, 7)
        outputs = np.asarray(transform.table) * 7
        cumulative = np.cumsum(histogram.counts) / 10.0
        assert np.allclose(outputs, 7 * cumulative, atol=1e-9)

    def test_uniform_histogram_maps_to_linear_ramp(self):
        histogram = Histogram(np.full(256, 4))
        transform = equalization_transform(histogram, 0, 255)
        outputs = np.asarray(transform.table) * 255
        # H(x)/N is linear, so the transform is the identity up to the
        # inclusive-cumulative convention (a constant step of 255/256)
        assert np.allclose(np.diff(outputs), 255.0 / 256.0, atol=1e-9)

    def test_range_validation(self, lena):
        histogram = Histogram.of_image(lena)
        with pytest.raises(ValueError, match="g_min < g_max"):
            equalization_transform(histogram, 100, 100)
        with pytest.raises(ValueError, match="g_min < g_max"):
            equalization_transform(histogram, 0, 256)
        with pytest.raises(ValueError, match="g_min < g_max"):
            equalization_transform(histogram, -5, 100)


    def test_equals_the_checked_construction(self, full_suite):
        """The LUT skips re-validation but equals the public constructor's,
        float for float, for every equalizer that builds it that way."""
        from repro.core.equalization_variants import get_equalizer
        from repro.core.transforms import LUTTransform
        for image in full_suite.values():
            histogram = Histogram.of_image(image.to_grayscale())
            for g_min, g_max in ((0, 255), (0, 37), (16, 200)):
                for name in ("ghe", "clipped", "bbhe"):
                    lut = get_equalizer(name)(histogram, g_min,
                                              g_max).transform
                    assert lut == LUTTransform(tuple(lut.table))
                    assert all(type(v) is float for v in lut.table)
                cumulative = np.cumsum(histogram.counts).astype(np.float64)
                checked = LUTTransform(tuple(float(v) for v in np.clip(
                    (g_min + (g_max - g_min) * cumulative / cumulative[-1])
                    / 255, 0.0, 1.0)))
                assert equalization_transform(histogram, g_min,
                                              g_max).table == checked.table


class TestEqualizeHistogram:
    def test_result_fields(self, lena):
        result = equalize_histogram(lena, 10, 210)
        assert result.g_min == 10
        assert result.g_max == 210
        assert result.target_range == 200
        assert result.source_histogram.n_pixels == lena.n_pixels
        assert 0.0 <= result.objective <= 1.0

    def test_transformed_image_dynamic_range_bounded(self, lena, baboon, pout):
        for image in (lena, baboon, pout):
            for target_range in (220, 150, 80):
                result = equalize_histogram(image, 0, target_range)
                transformed = result.apply(image)
                assert transformed.max() <= target_range
                assert transformed.dynamic_range() <= target_range

    def test_equalized_histogram_is_flatter(self, pout):
        """Equalization must reduce the distance to the uniform target."""
        target_range = 200
        result = equalize_histogram(pout, 0, target_range)
        original_cumulative = Histogram.of_image(pout).cumulative()
        original_objective = equalization_objective(original_cumulative, 0,
                                                    target_range)
        assert result.objective <= original_objective

    def test_entropy_increases_for_peaky_histogram(self, pout):
        """Spreading a peaky histogram over the target range raises entropy
        per unit of dynamic range (the paper's 'fully utilize the dynamic
        range' argument)."""
        result = equalize_histogram(pout, 0, 150)
        transformed = result.apply(pout)
        original = Histogram.of_image(pout)
        compressed = Histogram.of_image(transformed)
        # occupied range shrank to <=150 yet the entropy stays comparable
        assert compressed.dynamic_range() <= 150
        assert compressed.entropy() > 0.8 * original.entropy()

    def test_accepts_bare_histogram(self, lena):
        histogram = Histogram.of_image(lena)
        result = equalize_histogram(histogram, 0, 128)
        assert result.source_histogram == histogram

    def test_lut_levels_integer_output(self, lena):
        result = equalize_histogram(lena, 0, 100)
        levels = result.lut_levels()
        assert levels.dtype.kind == "i"
        assert levels.min() >= 0
        assert levels.max() <= 100

    def test_apply_checks_bit_depth(self, lena):
        result = equalize_histogram(lena, 0, 100)
        ten_bit = Image.constant(500, shape=(8, 8), bit_depth=10)
        with pytest.raises(ValueError, match="levels"):
            result.apply(ten_bit)

    def test_identity_when_image_already_uniform_full_range(self, gradient_image):
        """A full-range ramp image is already uniform: equalizing to the full
        range must be the identity up to one quantization step of the 64
        occupied levels (255/63 ~ 4 grayscale levels)."""
        result = equalize_histogram(gradient_image, 0, 255)
        transformed = result.apply(gradient_image)
        error = np.abs(transformed.pixels.astype(int)
                       - gradient_image.pixels.astype(int))
        assert error.max() <= 5


class TestObjective:
    def test_uniform_histogram_scores_zero(self):
        from repro.core.histogram import uniform_cumulative
        target = uniform_cumulative(256, 1000, 0, 200)
        assert equalization_objective(target, 0, 200) == pytest.approx(0.0)

    def test_point_mass_scores_high(self):
        spike = Histogram.of_image(Image.constant(255, shape=(10, 10)))
        value = equalization_objective(spike.cumulative(), 0, 200)
        assert value > 0.5
