"""Measurement helpers: percentiles, the tail rule, due-time request
accounting and output digests.

Everything here is pure (no ``repro`` import), so the rules the benchmark
reports by are unit-tested on their own.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Candidate tail percentiles, in per mille, highest first.
TAIL_LADDER_PER_MILLE = (999, 990, 950, 900, 500)
#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule);
    0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(count: int) -> float | None:
    """The highest percentile of the ladder (99.9, 99, 95, 90, 50) that has
    at least :data:`MIN_SAMPLES_BEYOND` of ``count`` samples beyond it, or
    ``None`` when even the median has fewer."""
    for per_mille in TAIL_LADDER_PER_MILLE:
        if count * (1000 - per_mille) >= MIN_SAMPLES_BEYOND * 1000:
            return per_mille / 10.0
    return None


@dataclass(frozen=True)
class LatencySummary:
    """Median and tail of a latency sample, in milliseconds.

    ``tail_q`` names the tail percentile chosen by :func:`tail_percentile`;
    with too few samples for any of them the tail falls back to the maximum
    and ``tail_q`` is ``None``.
    """

    count: int
    p50_ms: float
    tail_ms: float
    tail_q: float | None

    def describe(self) -> str:
        label = "max" if self.tail_q is None else f"p{self.tail_q:g}"
        beyond = 0 if self.tail_q is None else math.floor(
            self.count * (100.0 - self.tail_q) / 100.0)
        return (f"p50 {self.p50_ms:.3f} ms, tail {label} {self.tail_ms:.3f} ms "
                f"(n={self.count}, {beyond} beyond the tail)")


def summarize(latencies_s: Sequence[float]) -> LatencySummary:
    """Median and tail (by :func:`tail_percentile`) of latencies in seconds."""
    count = len(latencies_s)
    tail_q = tail_percentile(count)
    millis = [1e3 * value for value in latencies_s]
    tail = (max(millis, default=0.0) if tail_q is None
            else percentile(millis, tail_q))
    return LatencySummary(count=count, p50_ms=percentile(millis, 50.0),
                          tail_ms=tail, tail_q=tail_q)


@dataclass(frozen=True)
class Request:
    """One request of a timed window.

    ``due`` is when the request was due: its send time in a closed loop,
    its slot on the schedule in an open loop, so a stalled generator's
    wait counts against the request.  ``done`` is when the answer arrived
    or the request failed, and ``ok`` says which.
    """

    kind: str
    due: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due


def late_count(requests: Iterable[Request], limit_s: float) -> int:
    """Requests that failed or were answered more than ``limit_s`` after
    they were due."""
    return sum(1 for request in requests
               if not request.ok or request.latency > limit_s)


def generator_lag(due: float, free: float, sent: float) -> float:
    """How late an open-loop generator sent a request: the time from when
    it could send (when the request was due, or when its stream's previous
    request was answered, whichever is later) to when it did."""
    return max(0.0, sent - max(due, free))


class OutputDigest:
    """Order-sensitive hash of delivered outputs: pixels, backlight factors
    and LUTs.  Equal inputs in equal order give equal digests on any
    platform (fixed dtypes and byte order)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, pixels: np.ndarray, backlight: float,
            lut: np.ndarray) -> None:
        self._hash.update(np.ascontiguousarray(pixels, dtype="<u2").tobytes())
        self._hash.update(struct.pack("<d", float(backlight)))
        self._hash.update(np.ascontiguousarray(lut, dtype="<f8").tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def combine_digests(digests: Sequence[OutputDigest]) -> str:
    """One digest over several independent streams' digests, in order."""
    joined = "".join(digest.hexdigest() for digest in digests)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]
