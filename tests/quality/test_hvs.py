"""Unit tests for the human-visual-system weighting model."""

import numpy as np
import pytest

from repro.bench.suite import benchmark_images
from repro.imaging.image import Image
from repro.quality.hvs import HVSModel, _box_blur, perceptual_weight_map


def _padded_box_blur(values, radius):
    """The blur as first written: both passes over the fully padded image,
    with a zero column (row) concatenated in front of each prefix sum."""
    if radius <= 0:
        return values.copy()
    kernel = 2 * radius + 1
    padded = np.pad(values, radius, mode="edge")
    csum = np.cumsum(padded, axis=1)
    horizontal = (
        csum[:, kernel - 1:]
        - np.concatenate(
            [np.zeros((csum.shape[0], 1)), csum[:, :-kernel]], axis=1
        )
    ) / kernel
    horizontal = horizontal[radius:-radius, :]
    padded_v = np.pad(horizontal, ((radius, radius), (0, 0)), mode="edge")
    csum_v = np.cumsum(padded_v, axis=0)
    return (
        csum_v[kernel - 1:, :]
        - np.concatenate(
            [np.zeros((1, csum_v.shape[1])), csum_v[:-kernel, :]], axis=0
        )
    ) / kernel


class TestBoxBlur:
    @pytest.mark.parametrize("radius", [1, 2, 4, 6])
    def test_bit_identical_to_the_padded_blur(self, radius):
        """Blurring only the unpadded rows, into a preallocated output,
        changes no bit of the result."""
        rng = np.random.default_rng(radius)
        arrays = [image.to_grayscale().as_float()
                  for image in benchmark_images().values()]
        arrays += [rng.random((128, 128)), rng.random((37, 53)),
                   rng.normal(size=(20, 90)),
                   np.abs(rng.normal(size=(64, 64))) * 1e-3]
        for values in arrays:
            assert np.array_equal(_box_blur(values, radius),
                                  _padded_box_blur(values, radius))

    def test_radius_zero_copies(self):
        values = np.arange(12.0).reshape(3, 4)
        blurred = _box_blur(values, 0)
        assert np.array_equal(blurred, values) and blurred is not values


class TestModelValidation:
    def test_default_model_valid(self):
        model = HVSModel()
        assert model.adaptation_strength > 0
        assert model.masking_strength > 0

    def test_negative_strengths_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            HVSModel(adaptation_strength=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            HVSModel(masking_strength=-1.0)

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="neighborhood_radius"):
            HVSModel(neighborhood_radius=0)

    def test_floor_validation(self):
        with pytest.raises(ValueError, match="floor"):
            HVSModel(floor=0.0)
        with pytest.raises(ValueError, match="floor"):
            HVSModel(floor=1.5)


class TestBackgroundLuminance:
    def test_flat_image_background_is_constant(self, flat_image):
        background = HVSModel().background_luminance(flat_image)
        assert np.allclose(background, 128 / 255, atol=1e-6)

    def test_background_preserves_mean(self, lena):
        background = HVSModel().background_luminance(lena)
        assert background.mean() == pytest.approx(lena.as_float().mean(), abs=0.02)

    def test_background_is_smooth(self, noisy_image):
        background = HVSModel(neighborhood_radius=6).background_luminance(noisy_image)
        assert background.std() < noisy_image.as_float().std()


class TestLocalActivity:
    def test_flat_image_has_no_activity(self, flat_image):
        assert np.allclose(HVSModel().local_activity(flat_image), 0.0)

    def test_texture_has_more_activity_than_smooth(self, baboon, pout):
        model = HVSModel()
        assert model.local_activity(baboon).mean() > \
            model.local_activity(pout).mean()

    def test_activity_bounded(self, checker_image):
        activity = HVSModel().local_activity(checker_image)
        assert activity.min() >= 0.0
        assert activity.max() <= 1.0


class TestWeights:
    def test_shape_matches_image(self, lena):
        assert HVSModel().weights(lena).shape == lena.shape

    def test_weights_bounded_by_floor_and_one(self, lena):
        model = HVSModel(floor=0.3)
        weights = model.weights(lena)
        assert weights.min() >= 0.3
        assert weights.max() <= 1.0

    def test_maximum_weight_is_one(self, lena):
        assert HVSModel().weights(lena).max() == pytest.approx(1.0)

    def test_dark_regions_weighted_higher_than_bright(self):
        half = np.zeros((32, 32))
        half[:, 16:] = 230
        half[:, :16] = 20
        image = Image(half)
        weights = HVSModel(masking_strength=0.0).weights(image)
        assert weights[:, :12].mean() > weights[:, 20:].mean()

    def test_busy_regions_weighted_lower_than_flat(self, checker_image, flat_image):
        model = HVSModel(adaptation_strength=0.0)
        # embed the two structures side by side so weights are comparable
        combined = np.concatenate(
            [flat_image.pixels, checker_image.pixels], axis=1)
        weights = model.weights(Image(combined))
        flat_side = weights[:, :24].mean()
        busy_side = weights[:, 40:].mean()
        assert flat_side > busy_side

    def test_wrapper_matches_model(self, lena):
        model = HVSModel()
        assert np.array_equal(perceptual_weight_map(lena, model),
                              model.weights(lena))

    def test_rgb_input_accepted(self, rgb_image):
        weights = HVSModel().weights(rgb_image)
        assert weights.shape == (rgb_image.height, rgb_image.width)
