"""Bit-identity of the effective distortion and its prepared-reference cache.

:func:`effective_distortion` computes the original-side terms once per
original and keeps them in a small LRU.  Every value it returns must equal,
with ``==``, the measure as first written, where each call recomputed every
term: :func:`_reference_effective_distortion` below keeps that formula.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.equalization import equalize_histogram
from repro.imaging.image import Image
from repro.imaging.ops import adjust_brightness, adjust_contrast
from repro.quality import distortion
from repro.quality.distortion import (
    CONTRAST_LOSS_EXPONENT,
    LUMINANCE_ADAPTATION_EXPONENT,
    effective_distortion,
)
from repro.quality.hvs import HVSModel, _box_blur


def _reference_effective_distortion(
        original: Image, transformed: Image, window: int = 8,
        hvs_model: HVSModel | None = None,
        luminance_exponent: float = LUMINANCE_ADAPTATION_EXPONENT,
        contrast_loss_exponent: float = CONTRAST_LOSS_EXPONENT) -> float:
    """The measure with every term recomputed per call."""
    x = original.to_grayscale().as_float()
    y = transformed.to_grayscale().as_float()
    n = float(window * window)

    def sums(values):
        padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
        padded[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
        return (padded[window:, window:] - padded[:-window, window:]
                - padded[window:, :-window] + padded[:-window, :-window])

    # the Wang-Bovik factors, with the flat-window conventions
    mean_x, mean_y = sums(x) / n, sums(y) / n
    var_x = np.maximum(sums(x * x) / n - mean_x**2, 0.0)
    var_y = np.maximum(sums(y * y) / n - mean_y**2, 0.0)
    cov_xy = sums(x * y) / n - mean_x * mean_y
    std_x, std_y = np.sqrt(var_x), np.sqrt(var_y)
    both_flat = (var_x < 1e-12) & (var_y < 1e-12)
    one_flat = (var_x < 1e-12) ^ (var_y < 1e-12)
    generic = ~both_flat & ~one_flat
    correlation = np.ones_like(mean_x)
    correlation[generic] = cov_xy[generic] / (std_x[generic] * std_y[generic])
    correlation[one_flat] = 0.0
    correlation = np.clip(correlation, -1.0, 1.0)
    luminance = np.ones_like(mean_x)
    defined = mean_x**2 + mean_y**2 >= 1e-12
    luminance[defined] = (2.0 * mean_x[defined] * mean_y[defined]
                          / (mean_x[defined] ** 2 + mean_y[defined] ** 2))
    contrast = np.ones_like(mean_x)
    contrast[generic] = (2.0 * std_x[generic] * std_y[generic]
                         / (var_x[generic] + var_y[generic]))
    contrast[one_flat] = 0.0

    # structure in full, adapted luminance, contrast charged only where lost
    structure = np.clip(correlation, 0.0, 1.0)
    luminance = np.clip(luminance, 0.0, 1.0) ** luminance_exponent
    contrast = np.clip(contrast, 0.0, 1.0)
    gain = np.ones_like(var_x)
    nonzero = var_x > 1e-12
    gain[nonzero] = var_y[nonzero] / var_x[nonzero]
    contrast = np.where(gain >= 1.0, 1.0, contrast) ** contrast_loss_exponent
    quality = structure * luminance * contrast

    # HVS weights of the original, pooled onto the window grid
    model = hvs_model or HVSModel()
    radius = model.neighborhood_radius
    background = _box_blur(x, radius)
    activity = np.clip(_box_blur(np.abs(x - background), radius) * 4.0,
                       0.0, 1.0)
    adaptation = 1.0 / (1.0 + model.adaptation_strength * background)
    masking = 1.0 / (1.0 + model.masking_strength * activity)
    weights = adaptation * masking
    weights = np.clip(weights / weights.max(), model.floor, 1.0)
    pooled = sums(weights) / n
    weighted_quality = float(np.sum(quality * pooled) / np.sum(pooled))
    return max(0.0, 100.0 * (1.0 - weighted_quality))


@pytest.fixture
def empty_cache():
    """An empty prepared-reference cache, emptied again afterwards."""
    distortion._prepared.clear()
    yield distortion._prepared
    distortion._prepared.clear()


@pytest.fixture
def prepare_calls(monkeypatch):
    """Counts the cache misses, which are the calls to ``_prepare``."""
    calls = []
    prepare = distortion._prepare

    def counted(original, window, hvs_model):
        calls.append(original)
        return prepare(original, window, hvs_model)

    monkeypatch.setattr(distortion, "_prepare", counted)
    return calls


def _compressed(image: Image, target_range: int) -> Image:
    gray = image.to_grayscale()
    return equalize_histogram(gray, 0, target_range).apply(gray)


def _half_flat(seed: int = 7) -> Image:
    """Left half flat mid-gray, right half noise: flat windows, textured
    windows and windows straddling both."""
    rng = np.random.default_rng(seed)
    pixels = np.full((40, 40), 128)
    pixels[:, 20:] = rng.integers(0, 256, size=(40, 20))
    return Image(pixels)


class TestBitIdentity:
    @pytest.mark.parametrize("target_range", [40, 120, 220])
    def test_suite_images(self, full_suite, empty_cache, target_range):
        for image in full_suite.values():
            gray = image.to_grayscale()
            transformed = _compressed(gray, target_range)
            assert effective_distortion(gray, transformed) == \
                _reference_effective_distortion(gray, transformed)

    @pytest.mark.parametrize("window", [2, 8])
    def test_windows(self, small_suite, empty_cache, window):
        for image in small_suite.values():
            transformed = _compressed(image, 90)
            assert effective_distortion(image, transformed, window=window) \
                == _reference_effective_distortion(image, transformed,
                                                   window=window)

    def test_rgb_input(self, rgb_image, empty_cache):
        for transformed in (adjust_brightness(rgb_image, -0.2),
                            adjust_contrast(rgb_image, 0.5, pivot=0.5)):
            assert effective_distortion(rgb_image, transformed) == \
                _reference_effective_distortion(rgb_image, transformed)

    @pytest.mark.parametrize("window", [2, 8])
    def test_flat_and_one_flat_windows(self, empty_cache, window):
        original = _half_flat()
        rng = np.random.default_rng(3)
        flattened = Image.constant(128, shape=(40, 40))
        textured = Image(np.clip(original.pixels.astype(int)
                                 + rng.integers(-20, 21, size=(40, 40)),
                                 0, 255))
        black = Image(np.where(original.pixels == 128, 0, original.pixels))
        for transformed in (original, flattened, textured, black,
                            Image.constant(0, shape=(40, 40))):
            assert effective_distortion(original, transformed,
                                        window=window) == \
                _reference_effective_distortion(original, transformed,
                                                window=window)
        dark = Image.constant(0, shape=(40, 40))
        assert effective_distortion(dark, black, window=window) == \
            _reference_effective_distortion(dark, black, window=window)

    def test_non_default_hvs_model_and_exponents(self, lena, empty_cache):
        model = HVSModel(adaptation_strength=0.2, masking_strength=5.0,
                         neighborhood_radius=2, floor=0.5)
        transformed = _compressed(lena, 70)
        options = [dict(hvs_model=model),
                   dict(hvs_model=model, luminance_exponent=1.0,
                        contrast_loss_exponent=0.0),
                   dict(luminance_exponent=0.0, contrast_loss_exponent=1.0)]
        for kwargs in options:
            assert effective_distortion(lena, transformed, **kwargs) == \
                _reference_effective_distortion(lena, transformed, **kwargs)


class TestPreparedCache:
    def test_hit_miss_and_lookup_after_eviction(self, full_suite,
                                                empty_cache, prepare_calls):
        lena = full_suite["lena"]
        transformed = _compressed(lena, 100)
        expected = _reference_effective_distortion(lena, transformed)

        assert effective_distortion(lena, transformed) == expected
        assert len(prepare_calls) == 1                      # miss
        # a different Image holding equal pixels is a hit
        copy = Image(np.array(lena.pixels))
        assert effective_distortion(copy, transformed) == expected
        assert len(prepare_calls) == 1

        others = [image for name, image in full_suite.items()
                  if name != "lena"][:distortion._PREPARED_CAPACITY]
        for other in others:
            effective_distortion(other, _compressed(other, 100))
        assert len(empty_cache) == distortion._PREPARED_CAPACITY
        assert len(prepare_calls) == 1 + len(others)
        # lena was least recently used, so it was evicted
        assert effective_distortion(lena, transformed) == expected
        assert len(prepare_calls) == 2 + len(others)

    def test_window_and_model_are_part_of_the_key(self, lena, empty_cache,
                                                  prepare_calls):
        transformed = _compressed(lena, 100)
        model = HVSModel(floor=0.4)
        for kwargs in (dict(), dict(window=4), dict(hvs_model=model),
                       dict(hvs_model=HVSModel())):
            assert effective_distortion(lena, transformed, **kwargs) == \
                _reference_effective_distortion(lena, transformed, **kwargs)
        # the explicit default model shares the entry of ``None``
        assert len(prepare_calls) == 3

    def test_digest_collision_falls_back_to_pixel_check(
            self, lena, baboon, empty_cache, prepare_calls, monkeypatch):
        colliding = SimpleNamespace(
            blake2b=lambda data, digest_size: SimpleNamespace(
                digest=lambda: b"same digest"))
        monkeypatch.setattr(distortion, "hashlib", colliding)
        for original in (lena, baboon, lena, baboon):
            transformed = _compressed(original, 80)
            assert effective_distortion(original, transformed) == \
                _reference_effective_distortion(original, transformed)
        assert len(prepare_calls) == 4

    def test_prepared_arrays_are_read_only(self, lena, empty_cache):
        effective_distortion(lena, _compressed(lena, 100))
        (entry,) = empty_cache.values()
        uqi = entry.uqi
        for array in (entry.pixels, entry.weights, uqi.values, uqi.mean,
                      uqi.variance):
            assert not array.flags.writeable

    def test_threads_interleaving_originals_match_serial(self, full_suite,
                                                         empty_cache):
        # more originals than the cache holds, so threads also evict each
        # other's entries
        originals = list(full_suite.values())[:distortion._PREPARED_CAPACITY
                                              + 3]
        pairs = [(image, _compressed(image, target_range))
                 for image in originals for target_range in (60, 180)]
        serial = [_reference_effective_distortion(*pair) for pair in pairs]
        results: dict[tuple[int, int], float] = {}
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for step in range(len(pairs)):
                    index = (offset * 5 + step) % len(pairs)
                    results[offset, index] = effective_distortion(
                        *pairs[index])
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * len(pairs)
        for (_, index), value in results.items():
            assert value == serial[index]
        assert len(empty_cache) <= distortion._PREPARED_CAPACITY
