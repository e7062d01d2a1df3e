"""Unit tests for the inverted (emissive) optimization: content darkening."""

import numpy as np
import pytest

from repro.core.darken import (
    ContentDarkener,
    DarkenSolution,
    DEFAULT_SAFETY_MARGINS,
    darkening_transform,
)
from repro.core.histogram import Histogram
from repro.core.transforms import LUTTransform
from repro.display.oled import OLEDPowerBreakdown


class TestDarkeningTransform:
    def test_never_brightens(self, baboon):
        histogram = Histogram.of_image(baboon.to_grayscale())
        transform = darkening_transform(histogram, 128)
        identity = np.linspace(0.0, 1.0, histogram.levels)
        assert np.all(np.asarray(transform.table) <= identity + 1e-12)

    def test_monotone(self, baboon):
        histogram = Histogram.of_image(baboon.to_grayscale())
        table = np.asarray(darkening_transform(histogram, 64).table)
        assert np.all(np.diff(table) >= -1e-12)

    def test_respects_target_range(self, baboon):
        histogram = Histogram.of_image(baboon.to_grayscale())
        target_range = 100
        table = np.asarray(darkening_transform(histogram, target_range).table)
        assert table.max() <= target_range / (histogram.levels - 1) + 1e-12

    def test_pointwise_nondecreasing_in_range(self, baboon):
        """The family darkens less as R grows (its distortion still is not
        monotone in R; see ``ContentDarkener.select_range``)."""
        histogram = Histogram.of_image(baboon.to_grayscale())
        smaller = np.asarray(darkening_transform(histogram, 64).table)
        larger = np.asarray(darkening_transform(histogram, 192).table)
        assert np.all(smaller <= larger + 1e-12)

    def test_uniform_histogram_is_near_identity_at_full_range(self):
        """Equalizing an already-uniform image onto [0, L-1] changes little."""
        histogram = Histogram(np.full(256, 4))
        table = np.asarray(darkening_transform(histogram, 255).table)
        identity = np.linspace(0.0, 1.0, 256)
        assert np.max(identity - table) < 0.02

    def test_range_validation(self, baboon):
        histogram = Histogram.of_image(baboon.to_grayscale())
        with pytest.raises(ValueError):
            darkening_transform(histogram, 0)
        with pytest.raises(ValueError):
            darkening_transform(histogram, 256)

    def test_clipped_variant(self, baboon):
        histogram = Histogram.of_image(baboon.to_grayscale())
        transform = darkening_transform(histogram, 128,
                                        equalization="clipped")
        identity = np.linspace(0.0, 1.0, histogram.levels)
        assert np.all(np.asarray(transform.table) <= identity + 1e-12)


def _select_range_before(darkener, histogram, max_distortion):
    """``ContentDarkener.select_range`` before it moved onto the shared
    search (a test-local copy): the probed ranges and the selection."""
    realized = histogram.to_image()
    budget = max_distortion * darkener.safety_margin
    probes = []

    def distortion_at(target_range):
        probes.append(target_range)
        transform = darkener.darkening_transform(histogram, target_range)
        return float(darkener.measure(realized, transform.apply(realized)))

    gentlest = histogram.levels - 1
    if distortion_at(gentlest) > budget:
        return probes, None
    lowest = min(darkener.min_range, gentlest)
    if distortion_at(lowest) <= budget:
        return probes, lowest
    low, high = lowest, gentlest
    while high - low > 1:
        middle = (low + high) // 2
        if distortion_at(middle) <= budget:
            high = middle
        else:
            low = middle
    return probes, high


class TestSharedSearch:
    @pytest.mark.parametrize("equalization", ["ghe", "clipped"])
    def test_select_range_replays_the_search_before(
            self, monkeypatch, full_suite, equalization):
        darkener = ContentDarkener(equalization=equalization)
        for image in full_suite.values():
            histogram = Histogram.of_image(image.to_grayscale())
            for budget in (0.5, 5.0, 10.0, 20.0):
                expected_probes, expected = _select_range_before(
                    darkener, histogram, budget)
                probes = []
                transform_at = darkener.darkening_transform
                monkeypatch.setattr(
                    darkener, "darkening_transform",
                    lambda h, r: probes.append(r) or transform_at(h, r))
                assert darkener.select_range(histogram, budget) == expected
                monkeypatch.undo()
                assert probes == expected_probes

    @pytest.mark.parametrize("equalization", ["ghe", "clipped"])
    def test_luts_equal_the_checked_construction(self, full_suite,
                                                 equalization):
        """The LUTs skip re-validation but equal the public constructor's."""
        identity = np.linspace(0.0, 1.0, 256)
        for image in full_suite.values():
            histogram = Histogram.of_image(image.to_grayscale())
            for target_range in (1, 16, 100, 255):
                lut = darkening_transform(histogram, target_range,
                                          equalization)
                table = np.asarray(lut.table)
                assert lut == LUTTransform(tuple(table))
                assert lut.table == tuple(float(v) for v in np.minimum(
                    table, identity))
                assert all(type(v) is float for v in lut.table)


class TestContentDarkener:
    def test_rejects_bbhe(self):
        with pytest.raises(ValueError, match="ghe.*clipped"):
            ContentDarkener(equalization="bbhe")

    def test_default_safety_margin_is_calibrated(self):
        assert ContentDarkener().safety_margin == DEFAULT_SAFETY_MARGINS["ghe"]
        clipped = ContentDarkener(equalization="clipped")
        assert clipped.safety_margin == DEFAULT_SAFETY_MARGINS["clipped"]

    def test_safety_margin_validation(self):
        with pytest.raises(ValueError):
            ContentDarkener(safety_margin=0.0)
        with pytest.raises(ValueError):
            ContentDarkener(safety_margin=1.5)

    def test_budget_honored_on_suite(self, small_suite):
        darkener = ContentDarkener()
        budget = 10.0
        for image in small_suite.values():
            result = darkener.process(image, budget)
            assert result.distortion <= budget

    def test_power_saving_positive_under_real_budget(self, baboon):
        result = ContentDarkener().process(baboon, 10.0)
        assert result.power_saving > 0.10
        assert isinstance(result.power, OLEDPowerBreakdown)
        assert result.power.total < result.reference_power.total

    def test_zero_budget_falls_back_to_identity(self, baboon):
        solution = ContentDarkener().solve(baboon, 0.0)
        assert solution.identity
        result = ContentDarkener().apply_solution(solution, baboon)
        assert result.distortion == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(result.output.pixels,
                              baboon.to_grayscale().pixels)

    def test_larger_budget_darkens_at_least_as_hard(self, baboon):
        darkener = ContentDarkener()
        loose = darkener.solve(baboon, 20.0)
        tight = darkener.solve(baboon, 5.0)
        assert loose.target_range <= tight.target_range

    def test_solve_is_histogram_only(self, baboon):
        """Fig.-4 discipline: Image and its bare Histogram solve identically."""
        darkener = ContentDarkener()
        histogram = Histogram.of_image(baboon.to_grayscale())
        from_image = darkener.solve(baboon, 10.0)
        from_histogram = darkener.solve(histogram, 10.0)
        assert from_image == from_histogram

    def test_solve_range_skips_search(self, baboon):
        solution = ContentDarkener().solve_range(baboon, 80)
        assert solution.target_range == 80
        assert not solution.identity
        assert isinstance(solution, DarkenSolution)
        assert isinstance(solution.transform, LUTTransform)

    def test_apply_rejects_level_mismatch(self, baboon):
        solution = ContentDarkener().solve(baboon, 10.0)
        small = Histogram(np.full(16, 4)).to_image()
        with pytest.raises(ValueError, match="levels"):
            ContentDarkener().apply_solution(solution, small)

    def test_min_range_floor(self, flat_image):
        """A flat image darkens for free; the floor stops the collapse."""
        darkener = ContentDarkener(min_range=32)
        selected = darkener.select_range(flat_image, 50.0)
        assert selected == 32

    def test_negative_budget_rejected(self, baboon):
        with pytest.raises(ValueError):
            ContentDarkener().select_range(baboon, -1.0)

    def test_output_never_brighter(self, small_suite):
        darkener = ContentDarkener()
        for image in small_suite.values():
            result = darkener.process(image, 15.0)
            assert np.all(result.output.pixels
                          <= result.original.pixels)

    def test_clipped_darkener_end_to_end(self, baboon):
        result = ContentDarkener(equalization="clipped").process(baboon, 10.0)
        assert result.distortion <= 10.0
        assert result.power_saving > 0.0
