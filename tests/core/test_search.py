"""The bracketing range search shared by HEBS and the OLED darkener.

Without a steer, :func:`bracket_search` must replay each caller's former
search probe for probe (test-local copies below), so unsteered callers keep
their results bit for bit.  With a steer it must keep the bracket guarantee
and never take more than 10 probes over a 255-level range.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.search import bracket_search

FULL_RANGE = 255


def _recorded(feasible_at):
    """A feasibility probe that records the ranges it is asked about."""
    probes: list[int] = []

    def feasible(target_range: int) -> bool:
        probes.append(target_range)
        return bool(feasible_at(target_range))

    return feasible, probes


def _hebs_search_before(feasible, full_range: int, tolerance: int):
    """``HEBS.process_adaptive``'s search before it was steered."""
    if not feasible(full_range):
        return None
    low, high = 1, full_range
    while high - low > tolerance:
        middle = (low + high) // 2
        if feasible(middle):
            high = middle
        else:
            low = middle
    return high


def _darken_search_before(feasible, min_range: int, gentlest: int):
    """``ContentDarkener.select_range``'s search before it was shared."""
    if not feasible(gentlest):
        return None
    lowest = min(min_range, gentlest)
    if feasible(lowest):
        return lowest
    low, high = lowest, gentlest
    while high - low > 1:
        middle = (low + high) // 2
        if feasible(middle):
            high = middle
        else:
            low = middle
    return high


def _patterns(count: int, seed: int = 11):
    """Feasibility patterns over ranges 0..255: monotone thresholds, and
    thresholds with infeasible ranges scattered above them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        threshold = int(rng.integers(1, FULL_RANGE + 2))
        feasible = np.arange(FULL_RANGE + 1) >= threshold
        if rng.random() < 0.7:
            holes = rng.random(FULL_RANGE + 1) < rng.uniform(0.0, 0.4)
            feasible &= ~holes
        yield feasible


class TestUnsteeredReplay:
    @pytest.mark.parametrize("tolerance", [1, 2, 3])
    def test_replays_the_hebs_search(self, tolerance):
        for pattern in _patterns(400):
            feasible, probes = _recorded(pattern.__getitem__)
            expected, expected_probes = _recorded(pattern.__getitem__)
            assert bracket_search(feasible, 1, FULL_RANGE, tolerance) == \
                _hebs_search_before(expected, FULL_RANGE, tolerance)
            assert probes == expected_probes

    @pytest.mark.parametrize("min_range", [1, 16, 200, 255, 300])
    def test_replays_the_darken_search(self, min_range):
        for pattern in _patterns(400, seed=12):
            feasible, probes = _recorded(pattern.__getitem__)
            expected, expected_probes = _recorded(pattern.__getitem__)
            assert bracket_search(feasible, min(min_range, FULL_RANGE),
                                  FULL_RANGE, 1, probe_low=True) == \
                _darken_search_before(expected, min_range, FULL_RANGE)
            assert probes == expected_probes


def _check_bracket(pattern, probes, selected, low, tolerance):
    """The guarantee: ``selected`` probed feasible, and a range in
    ``[selected - tolerance, selected - 1]`` probed infeasible, or that
    window reaching the assumed-infeasible ``low``."""
    assert selected in probes and pattern[selected]
    window = range(max(selected - tolerance, low), selected)
    assert selected - tolerance <= low or any(
        r in probes and not pattern[r] for r in window)


class TestSteered:
    @pytest.mark.parametrize("tolerance", [1, 2])
    def test_keeps_the_bracket_for_any_guess(self, tolerance):
        rng = np.random.default_rng(5)
        for pattern in _patterns(300, seed=13):
            for guess in (None, -40, 0, 1, 2, 254, 255, 400,
                          int(rng.integers(1, FULL_RANGE + 1))):
                feasible, probes = _recorded(pattern.__getitem__)
                selected = bracket_search(feasible, 1, FULL_RANGE, tolerance,
                                          steer=lambda: guess)
                if not pattern[FULL_RANGE]:
                    assert selected is None and probes == [FULL_RANGE]
                    continue
                _check_bracket(pattern, probes, selected, 1, tolerance)
                assert len(probes) == len(set(probes))  # nothing re-probed

    def test_never_more_than_ten_probes(self):
        """Every threshold, with every guess; and holed patterns."""
        worst = 0
        for threshold in range(1, FULL_RANGE + 2):
            pattern = np.arange(FULL_RANGE + 1) >= threshold
            for guess in range(1, FULL_RANGE + 1):
                feasible, probes = _recorded(pattern.__getitem__)
                bracket_search(feasible, 1, FULL_RANGE, 2,
                               steer=lambda: guess)
                worst = max(worst, len(probes))
        for pattern in _patterns(300, seed=14):
            for guess in range(1, FULL_RANGE + 1, 7):
                feasible, probes = _recorded(pattern.__getitem__)
                bracket_search(feasible, 1, FULL_RANGE, 2,
                               steer=lambda: guess)
                worst = max(worst, len(probes))
        assert worst == 10

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_a_close_guess_closes_in_three_probes(self, offset):
        for threshold in range(10, 250, 7):
            pattern = np.arange(FULL_RANGE + 1) >= threshold
            feasible, probes = _recorded(pattern.__getitem__)
            guess = threshold - offset
            selected = bracket_search(feasible, 1, FULL_RANGE, 2,
                                      steer=lambda: guess)
            assert len(probes) == 3, probes
            assert selected in (threshold, threshold + 1)

    def test_the_steer_runs_only_on_an_open_bracket(self):
        calls = []

        def steer():
            calls.append(1)
            return 100

        assert bracket_search(lambda r: False, 1, FULL_RANGE, 2,
                              steer=steer) is None
        assert bracket_search(lambda r: True, 2, 4, 2, steer=steer) == 4
        assert bracket_search(lambda r: True, 16, FULL_RANGE, 1,
                              probe_low=True, steer=steer) == 16
        assert calls == []
