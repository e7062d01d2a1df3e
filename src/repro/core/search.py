"""The bracketing integer search behind both budget-driven range choices.

:meth:`HEBS.process_adaptive <repro.core.pipeline.HEBS.process_adaptive>`
and :meth:`ContentDarkener.select_range
<repro.core.darken.ContentDarkener.select_range>` both look for a small
integer range ``R`` whose exact distortion probe meets a budget.  Smaller
ranges save more power and usually distort more, but distortion is not
monotone in ``R``: an infeasible range can sit above a feasible one.  So
the search does not promise the smallest feasible range.  It promises a
*bracket*: the returned ``R`` was probed feasible, and a range in
``[R - tolerance, R - 1]`` was probed (or assumed) infeasible.

A caller may *steer* the search with a guess of where the feasibility
boundary lies.  The guess only chooses where to probe; every answer is
still a probe.  Around the guess the search spends at most two probes; if
they do not close the bracket, plain bisection finishes on the side that is
left, so a steered search costs at most two probes more than an unsteered
one.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["bracket_search", "bisect"]


def bracket_search(feasible: Callable[[int], bool], low: int, high: int,
                   tolerance: int, *, probe_low: bool = False,
                   steer: Callable[[], int | None] | None = None,
                   ) -> int | None:
    """A feasible range in ``[low, high]`` with an infeasible one just below.

    Parameters
    ----------
    feasible:
        The exact probe: whether range ``R`` meets the budget.
    low, high:
        The search interval.  ``high`` is probed first; when it is
        infeasible the search gives up and returns ``None``.
    tolerance:
        Bisection stops when the bracket is at most this many levels wide.
    probe_low:
        Probe ``low`` second and return it when feasible.  Without it,
        ``low`` is assumed infeasible and never probed.
    steer:
        Called once, after the probes of ``high`` (and ``low``) left an
        open bracket; returns the range to probe next, or ``None``.  The
        guess is clamped into the open bracket.

    Returns
    -------
    int or None
        ``R`` whose probe was feasible, with ``R == low`` (only with
        ``probe_low``) or a range in ``[R - tolerance, R - 1]`` probed or
        assumed infeasible; ``None`` when ``high`` is infeasible.
    """
    if not feasible(high):
        return None
    if probe_low and feasible(low):
        return low
    # invariant from here on: low infeasible (probed or assumed), high
    # feasible (probed)
    if steer is not None and high - low > tolerance:
        guess = steer()
        if guess is not None:
            guess = min(max(int(guess), low + 1), high - 1)
            if feasible(guess):
                high = guess
                below = guess - tolerance
                if below > low:
                    if feasible(below):
                        high = below
                    else:
                        low = below
            else:
                low = guess
                above = guess + tolerance
                if above < high:
                    if feasible(above):
                        high = above
                    else:
                        low = above
    return bisect(feasible, low, high, tolerance)


def bisect(feasible: Callable[[int], bool], low: int, high: int,
           tolerance: int) -> int:
    """Narrow the bracket ``(low, high]`` (``low`` infeasible, ``high``
    feasible, neither probed again) to at most ``tolerance`` levels by
    bisection; returns its feasible end."""
    while high - low > tolerance:
        middle = (low + high) // 2
        if feasible(middle):
            high = middle
        else:
            low = middle
    return high
