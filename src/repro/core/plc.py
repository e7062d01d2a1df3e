"""Piecewise Linear Coarsening (PLC) — paper Sec. 4.1, Eq. (8)-(9), Fig. 3.

The exact GHE transformation ``Phi`` has one breakpoint per grayscale level
(``O(|G|)`` segments), far too many for the reference-voltage driver.  The
PLC problem asks for the best approximation ``Lambda`` with a given number of
segments ``m``, where "best" means minimum mean squared error between the two
curves and the approximation's breakpoints must be a subset of the original
ones that keeps the first and last point (Eq. 8).

The paper solves PLC with the dynamic program of Eq. (9):

    E(n, m) = min_{j in 1..n-1} ( E(j, m-1) + e(j) )

where ``e(j)`` is the squared error of replacing all original segments
between breakpoint ``j`` and breakpoint ``n`` by the single chord from
``p_j`` to ``p_n``.  The complexity is ``O(m n^2)``; the chord errors are
precomputed in ``O(n^2)`` with prefix sums, so the whole solver is fast
enough to run per frame.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.transforms import LUTTransform, PiecewiseLinearTransform

__all__ = [
    "PiecewiseLinearCurve",
    "segment_error",
    "chord_error_matrix",
    "coarsen_curve",
    "coarsen_transform",
    "coarsen_through",
    "kband_spreading_function",
]


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """A piecewise-linear curve defined by its breakpoints.

    Attributes
    ----------
    x, y:
        Breakpoint coordinates; ``x`` strictly increasing.
    mean_squared_error:
        Mean squared error of this curve against the curve it approximates
        (0 for an exact curve).
    breakpoint_indices:
        Indices into the original breakpoint set (Eq. 8's requirement that
        ``Q`` is a subset of ``P``); empty tuple for curves not produced by
        coarsening.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    mean_squared_error: float = 0.0
    breakpoint_indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size < 2:
            raise ValueError("need matching 1-D breakpoint arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x breakpoints must be strictly increasing")
        if self.mean_squared_error < 0:
            raise ValueError("mean squared error cannot be negative")
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))

    @property
    def n_points(self) -> int:
        """Number of breakpoints."""
        return len(self.x)

    @property
    def n_segments(self) -> int:
        """Number of linear segments (``n_points - 1``)."""
        return len(self.x) - 1

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the curve by linear interpolation (flat extrapolation)."""
        result = np.interp(np.asarray(x, dtype=np.float64), self.x, self.y)
        return float(result) if np.isscalar(x) else result

    def slopes(self) -> np.ndarray:
        """Slope of every segment."""
        x = np.asarray(self.x)
        y = np.asarray(self.y)
        return np.diff(y) / np.diff(x)

    def is_monotone(self) -> bool:
        """Whether the curve is non-decreasing."""
        return bool(np.all(np.diff(np.asarray(self.y)) >= -1e-12))

    @classmethod
    def from_lut(cls, lut: LUTTransform, levels: int | None = None
                 ) -> "PiecewiseLinearCurve":
        """Exact curve of a per-level LUT: one breakpoint per grayscale level.

        ``x`` runs over the integer levels and ``y`` over the LUT outputs
        scaled to levels (the set ``P`` of Eq. 8).
        """
        n = lut.levels if levels is None else levels
        x = np.arange(n, dtype=np.float64)
        y = _lut_ordinates(lut, n)
        return cls(tuple(x), tuple(y), 0.0, tuple(range(n)))


def _lut_ordinates(lut: LUTTransform, levels: int) -> np.ndarray:
    """A LUT's outputs scaled to grayscale levels (the ``y`` of Eq. 8's
    ``P``)."""
    return np.asarray(lut.table, dtype=np.float64) * (levels - 1)


def segment_error(x: Sequence[float], y: Sequence[float], start: int,
                  end: int) -> float:
    """Squared error of replacing points ``start..end`` by a single chord.

    This is the paper's ``e(j)`` (with ``start = j`` and ``end = n``): the
    chord runs from ``(x[start], y[start])`` to ``(x[end], y[end])`` and the
    error is the sum of squared vertical deviations of the intermediate
    original points from the chord.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not 0 <= start < end < x.size:
        raise ValueError(f"invalid chord indices ({start}, {end}) for {x.size} points")
    xs, ys = x[start:end + 1], y[start:end + 1]
    slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
    predicted = ys[0] + slope * (xs - xs[0])
    return float(np.sum((ys - predicted) ** 2))


class _AbscissaTerms(NamedTuple):
    """The x-only terms of the chord errors over every pair ``i < j``.

    Pairs run in row-major order (by ``i``, then ``j``).  ``lower`` is each
    pair's flat index into an ``n x n`` matrix at ``[j, i]``; ``j1`` is
    ``j + 1``.  All arrays are read-only.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    j1: np.ndarray
    x_i: np.ndarray
    dx: np.ndarray
    sum_x: np.ndarray
    count: np.ndarray
    count_x_i: np.ndarray
    sum_b2: np.ndarray
    adjacent: np.ndarray
    lower: np.ndarray

    def along(self, path: np.ndarray) -> "_AbscissaTerms":
        """The same terms for the chords between consecutive entries of
        ``path`` (increasing breakpoint indices) only, in path order."""
        i, j = path[:-1], path[1:]
        # position of the pair (i, j) in row-major order over i < j
        pair = i * self.n - i * (i + 1) // 2 + (j - i - 1)
        return _AbscissaTerms(self.n, *(field[pair] for field in self[1:]))


@lru_cache(maxsize=4)
def _abscissa_terms(abscissa: bytes) -> _AbscissaTerms:
    """The x-only chord terms, cached by abscissa content.

    Every coarsening of a LUT runs on the same abscissa ``arange(levels)``,
    so these are computed once per bit depth.
    """
    x = np.frombuffer(abscissa, dtype=np.float64)
    n = x.size
    i, j = np.triu_indices(n, 1)
    x_i = x[i]
    count = (j - i + 1).astype(np.float64)
    prefix_x = _prefix_sums(x)
    prefix_xx = _prefix_sums(x * x)
    sum_x = prefix_x[j + 1] - prefix_x[i]
    sum_xx = prefix_xx[j + 1] - prefix_xx[i]
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x[j] - x_i
        sum_b2 = sum_xx - 2.0 * x_i * sum_x + count * x_i * x_i
        count_x_i = count * x_i
    terms = _AbscissaTerms(n, i, j, j + 1, x_i, dx, sum_x, count, count_x_i,
                           sum_b2, j == i + 1, j * n + i)
    for array in terms[1:]:          # every field but n
        array.setflags(write=False)
    return terms


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """``[0, v0, v0 + v1, ...]``: inclusive sums over ``i..j`` are
    ``prefix[j + 1] - prefix[i]``."""
    return np.concatenate([[0.0], np.cumsum(values)])


def _pair_errors(x: np.ndarray, y: np.ndarray, scratch: dict,
                 path: np.ndarray | None = None
                 ) -> tuple[_AbscissaTerms, np.ndarray]:
    """Chord errors of every pair ``i < j`` (in :class:`_AbscissaTerms`
    order), with the x-only terms they were computed from.

    With ``path`` (increasing breakpoint indices), only the chords between
    its consecutive entries, in path order.  Each error is computed by the
    same element-wise arithmetic either way, so a chord's error along a
    path equals its entry in the full set bit for bit.

    The errors are returned in ``scratch`` (see :func:`_scratch`): use
    them before the scratch computes anything else.
    """
    terms = _abscissa_terms(x.tobytes())
    if path is not None:
        terms = terms.along(path)
    i, j, j1 = terms.i, terms.j, terms.j1
    prefix_y = _prefix_sums(y)
    prefix_yy = _prefix_sums(y * y)
    prefix_xy = _prefix_sums(x * y)
    # every pair-sized intermediate lives in the scratch: a fresh 255 KB
    # temporary per operation (256 levels) costs twice the operation
    kind = "pairs" if path is None else "path"
    sum_y, sum_yy, sum_xy, y_i, slope, sum_a2, sum_ab, work = \
        _buffers(scratch, kind, i.shape, 8)
    mask, = _buffers(scratch, kind + "_mask", i.shape, 1, dtype=bool)
    _gathered_difference(prefix_y, j1, i, sum_y, work)
    _gathered_difference(prefix_yy, j1, i, sum_yy, work)
    _gathered_difference(prefix_xy, j1, i, sum_xy, work)
    np.take(y, i, out=y_i, mode="clip")

    # the operations (and their order) of the closed forms in the comments
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # slope = (y_j - y_i) / dx
        np.take(y, j, out=slope, mode="clip")
        np.subtract(slope, y_i, out=slope)
        np.divide(slope, terms.dx, out=slope)

        # sum_a2 = sum_yy - 2.0 * y_i * sum_y + count * y_i * y_i
        np.multiply(2.0, y_i, out=sum_a2)
        np.multiply(sum_a2, sum_y, out=sum_a2)
        np.subtract(sum_yy, sum_a2, out=sum_a2)
        np.multiply(terms.count, y_i, out=work)
        np.multiply(work, y_i, out=work)
        np.add(sum_a2, work, out=sum_a2)

        # sum_ab = sum_xy - x_i * sum_y - y_i * sum_x + count_x_i * y_i
        np.multiply(terms.x_i, sum_y, out=sum_ab)
        np.subtract(sum_xy, sum_ab, out=sum_ab)
        np.multiply(y_i, terms.sum_x, out=work)
        np.subtract(sum_ab, work, out=sum_ab)
        np.multiply(terms.count_x_i, y_i, out=work)
        np.add(sum_ab, work, out=sum_ab)

        # errors = sum_a2 - 2.0 * slope * sum_ab + slope * slope * sum_b2
        np.multiply(2.0, slope, out=work)
        np.multiply(work, sum_ab, out=work)
        np.subtract(sum_a2, work, out=sum_a2)
        np.multiply(slope, slope, out=work)
        np.multiply(work, terms.sum_b2, out=work)
        errors = np.add(sum_a2, work, out=sum_a2)

    # Adjacent breakpoints form a chord with no interior points: the error is
    # exactly zero, but the formula above can produce 0 * inf = nan when two
    # x values are almost coincident (huge slope).  Force the exact value.
    np.copyto(errors, 0.0, where=terms.adjacent)
    # Any other non-finite entry (overflowing slope across a near-duplicate
    # abscissa) is treated as an unusable chord.
    np.isfinite(errors, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(errors, np.inf, where=mask)
    # clamp tiny negative round-off
    return terms, np.maximum(errors, 0.0, out=errors)


#: Idle scratch memory of the PLC solver (see :func:`_scratch`), and the
#: lock guarding it.  At most one set (~3 MB at 256 levels) stays allocated
#: between solves: a set per solving thread would keep that much alive in
#: every worker of a serving process.
_idle_scratch: list[dict] = []
_idle_scratch_lock = threading.Lock()


@contextmanager
def _scratch():
    """Scratch memory for one solve, reused across solves.

    Solve threads run DPs concurrently, so each solve borrows a set no other
    solve holds: the idle one, or a new one when another solve has it.
    """
    with _idle_scratch_lock:
        scratch = _idle_scratch.pop() if _idle_scratch else {}
    try:
        yield scratch
    finally:
        with _idle_scratch_lock:
            if not _idle_scratch:
                _idle_scratch.append(scratch)


def _buffers(scratch: dict, kind: str, shape: tuple[int, ...], count: int,
             dtype=np.float64) -> tuple[np.ndarray, ...]:
    """``count`` arrays of ``shape`` from ``scratch``; their contents are
    garbage.  One set per ``kind``, replaced when the shape changes (one
    bit depth at a time stays allocated)."""
    arrays = scratch.get(kind)
    if arrays is None or arrays[0].shape != shape:
        arrays = scratch[kind] = tuple(np.empty(shape, dtype=dtype)
                                       for _ in range(count))
    return arrays


def _gathered_difference(prefix: np.ndarray, stop: np.ndarray,
                         start: np.ndarray, out: np.ndarray,
                         work: np.ndarray) -> None:
    """``out = prefix[stop] - prefix[start]`` without temporaries (the
    indices are in range: ``clip`` mode only skips the bounds check)."""
    np.take(prefix, stop, out=out, mode="clip")
    np.take(prefix, start, out=work, mode="clip")
    np.subtract(out, work, out=out)


def chord_error_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs chord errors ``err[i, j]`` for ``i < j`` in ``O(n^2)``.

    Uses prefix sums of ``y``, ``y^2``, ``x``, ``x^2`` and ``x*y`` so each
    entry costs O(1): with ``a_k = y_k - y_i`` and ``b_k = x_k - x_i`` the
    chord error is ``sum a_k^2 - 2 s sum a_k b_k + s^2 sum b_k^2`` where
    ``s`` is the chord slope.  The terms that depend on ``x`` alone (the
    pair indices, the ``x`` sums and ``sum b_k^2``) are cached by the
    content of ``x``; entries with ``i >= j`` are 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with _scratch() as scratch:
        terms, errors = _pair_errors(x, y, scratch)
        matrix = np.zeros((terms.n, terms.n), dtype=np.float64)
        matrix[terms.i, terms.j] = errors
    return matrix


def coarsen_curve(curve: PiecewiseLinearCurve, n_segments: int
                  ) -> PiecewiseLinearCurve:
    """Solve the PLC problem: best subset approximation with <= ``n_segments``.

    Implements the dynamic program of Eq. (9) with the endpoint constraints
    of Eq. (8): the result keeps the first and last breakpoint of ``curve``,
    selects its interior breakpoints from the original set, and minimizes the
    summed squared vertical error at the original breakpoints.  The reported
    error is the *mean* squared error over the original breakpoints (the
    paper's objective).

    One refinement over the paper's statement: the segment budget is treated
    as an upper bound ("at most m") rather than an exact count.  Because the
    approximation must pass through original breakpoints, forcing an extra
    breakpoint can occasionally *increase* the error; the hardware constraint
    (number of controllable voltage sources) is an upper bound anyway.

    Work per call: the ``y``-dependent chord terms of every pair and the
    masked chord-error matrix are built once, then the ``n_segments`` DP
    steps each scan it.  The ``x``-only terms come from a cache keyed by the
    abscissa (see :func:`chord_error_matrix`), so repeated coarsenings of
    LUTs with one bit depth compute them once per process.

    The selected breakpoints do not change when ``y`` is shifted or scaled:
    a shift cancels in every chord error and a scale ``R`` multiplies them
    all by ``R**2``.  An equalization LUT ``g_min + R * H(x) / N`` (Eq. 7)
    therefore has the same optimal breakpoints for every range ``R``, which
    :meth:`repro.core.pipeline.HEBS.solve_range` exploits: it runs this DP
    once per histogram and re-evaluates the breakpoints with
    :func:`coarsen_through` for each range.  That holds for exact optima;
    where the DP faces an exact tie (sparse histograms, whose LUTs have
    long flat runs), round-off can make it pick another, equally good
    breakpoint list at another ``R``.  For plain GHE the two curves still
    agree at every level, so only the driver program differs; for the
    clipped equalizer they can differ by one gray level at some levels.
    The equalizers whose LUT is not affine in ``R`` (``bbhe`` rounds its
    split level per range) are not covered and run the DP per range.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    return _coarsen(np.asarray(curve.x, dtype=np.float64),
                    np.asarray(curve.y, dtype=np.float64), n_segments)


def _coarsen(x: np.ndarray, y: np.ndarray, n_segments: int
             ) -> PiecewiseLinearCurve:
    """The DP of :func:`coarsen_curve` on breakpoint arrays."""
    n = x.size
    if n_segments >= n - 1:
        # The curve already has at most the requested number of segments.
        return _curve_through(x, y, np.arange(n), 0.0)

    # chords[j, i]: error of the chord i -> j, infinite unless i < j (only
    # forward chords are allowed).  Stored with the end point as the row so
    # each DP step reduces over contiguous rows.
    # cost[s, j]: minimal summed error covering breakpoints 0..j with exactly
    # s chords ending at breakpoint j.
    cost = np.full((n_segments + 1, n), np.inf)
    parent = np.full((n_segments + 1, n), -1, dtype=np.int64)
    cost[0, 0] = 0.0
    ends = np.arange(n)
    with _scratch() as scratch:
        terms, errors = _pair_errors(x, y, scratch)
        chords, candidate = _buffers(scratch, "matrices", (n, n), 2)
        chords.fill(np.inf)
        chords.ravel()[terms.lower] = errors
        for s in range(1, n_segments + 1):
            # candidate[j, i] = cost of reaching i with s-1 chords + chord
            # i->j
            np.add(chords, cost[s - 1], out=candidate)
            best_parent = np.argmin(candidate, axis=1)
            cost[s] = candidate[ends, best_parent]
            parent[s] = best_parent

    # Use *at most* n_segments chords: because the approximation must
    # interpolate a subset of the original breakpoints (Eq. 8), adding a
    # breakpoint can occasionally increase the error, so the best segment
    # count may be smaller than the budget.  The hardware constraint is an
    # upper bound on the segment count, so picking fewer is always legal.
    final_costs = cost[1:, n - 1]
    if not np.any(np.isfinite(final_costs)):
        raise RuntimeError("PLC dynamic program failed to reach the last point")
    best_segments = int(np.argmin(final_costs)) + 1
    total_error = float(final_costs[best_segments - 1])

    # backtrack the chosen breakpoints
    indices = [n - 1]
    node, s = n - 1, best_segments
    while s > 0:
        node = int(parent[s, node])
        indices.append(node)
        s -= 1
    indices.reverse()
    return _curve_through(x, y, np.array(indices), total_error)


def _curve_through(x: np.ndarray, y: np.ndarray, indices: np.ndarray,
                   total_error: float) -> PiecewiseLinearCurve:
    """The curve through breakpoints ``indices`` of ``(x, y)`` whose summed
    squared error is ``total_error``."""
    return PiecewiseLinearCurve(
        tuple(float(x[i]) for i in indices),
        tuple(float(y[i]) for i in indices),
        mean_squared_error=total_error / x.size,
        breakpoint_indices=tuple(int(i) for i in indices),
    )


def coarsen_transform(transform: LUTTransform, n_segments: int
                      ) -> PiecewiseLinearCurve:
    """Coarsen an exact GHE LUT transform directly.

    Equal to ``coarsen_curve(PiecewiseLinearCurve.from_lut(transform),
    n_segments)``, without the curve's round trip through tuples.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    n = transform.levels
    return _coarsen(np.arange(n, dtype=np.float64),
                    _lut_ordinates(transform, n), n_segments)


def coarsen_through(transform: LUTTransform,
                    breakpoint_indices: Sequence[int]) -> PiecewiseLinearCurve:
    """The coarsening of a LUT through given breakpoints, without the DP.

    Returns the curve :func:`coarsen_transform` returns when its DP selects
    ``breakpoint_indices`` (increasing, from the first level to the last):
    the same ``x``, ``y`` and breakpoint indices, and the same mean squared
    error, because each chord's error comes from the DP's own formula and
    the errors are summed chord by chord in the DP's order.  ``O(levels)``
    instead of the DP's ``O(m levels^2)``.
    """
    n = transform.levels
    path = np.asarray(breakpoint_indices, dtype=np.int64)
    if path.ndim != 1 or path.size < 2 or path[0] != 0 or path[-1] != n - 1 \
            or np.any(np.diff(path) <= 0):
        raise ValueError(
            f"breakpoint indices must increase from 0 to {n - 1}, "
            f"got {tuple(breakpoint_indices)}")
    x = np.arange(n, dtype=np.float64)
    y = _lut_ordinates(transform, n)
    total_error = 0.0
    with _scratch() as scratch:
        _, errors = _pair_errors(x, y, scratch, path)
        for error in errors:
            # the DP's accumulation: cost[s] = chord + cost[s - 1]
            total_error = float(error) + total_error
    return _curve_through(x, y, path, total_error)


def kband_spreading_function(curve: PiecewiseLinearCurve,
                             levels: int = 256) -> PiecewiseLinearTransform:
    """Convert a coarsened curve into a normalized k-band transform (Fig. 3).

    The curve's breakpoints (in grayscale levels) are normalized to ``[0, 1]``
    and wrapped in a :class:`PiecewiseLinearTransform` that can be applied to
    images or programmed into the hierarchical reference driver.
    """
    if not curve.is_monotone():
        raise ValueError("a grayscale-spreading function must be monotone")
    scale = float(levels - 1)
    x = np.clip(np.asarray(curve.x) / scale, 0.0, 1.0)
    y = np.clip(np.asarray(curve.y) / scale, 0.0, 1.0)
    # guard against duplicate normalized x after clipping
    x = np.maximum.accumulate(x)
    keep = np.concatenate([[True], np.diff(x) > 0])
    return PiecewiseLinearTransform(tuple(x[keep]), tuple(y[keep]))
