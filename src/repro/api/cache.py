"""Histogram-keyed LRU cache for compensation solutions.

The paper's real-time flow (Fig. 4) rests on one observation: the HEBS
transformation depends only on the image *histogram* and the distortion
budget, never on the pixel layout.  Two frames with (approximately) the same
histogram therefore share the same solved transformation, backlight factor
and driver program — everything in a
:class:`~repro.api.types.CompensationSolution`.  The prior techniques share
the property: the DLS policy search and the CBCS band placement are
histogram statistics too.

:func:`histogram_signature` turns a histogram into a compact byte key.  By
default (``bins=256``, matching the engine's ``signature_bins``) the key is
the exact 8-bit histogram at fixed-point probability resolution, so only
genuinely identical distributions share an entry (the same photo at a
different resolution still collapses — probabilities are size-invariant).
Passing a smaller ``bins`` coarsens the level axis so near-identical frames
(e.g. consecutive video frames) collapse too, trading exactness for more
cross-content reuse.  :class:`SolutionCache` is a thread-safe LRU dictionary
over such keys with hit / miss / replay counters, surfaced by the engine as
:class:`CacheStats`.

A cache *hit* replays the stored solution onto the new image; distortion and
power are always re-measured on the actual pixels, so for a genuinely
identical image the hit result is bitwise-identical to a cold run.  For
merely similar images the reuse is the approximation the paper's real-time
flow already makes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.histogram import Histogram

__all__ = ["histogram_signature", "CacheStats", "SolutionCache"]

#: Fixed-point resolution of the probability quantization: probabilities are
#: rounded to multiples of 1/4096 (12 bits), so histograms differing by less
#: than ~0.025% of the pixel mass in every bucket share a signature.
_PROBABILITY_STEPS = 4096


def histogram_signature(histogram: Histogram, bins: int = 256) -> bytes:
    """A compact, quantized byte signature of a histogram.

    Parameters
    ----------
    histogram:
        The marginal pixel-value distribution to fingerprint.
    bins:
        Number of coarse buckets on the grayscale axis.  ``bins`` equal to
        (or above) the level count keeps full level resolution; smaller
        values make the signature — and therefore the cache — more tolerant
        of small content changes.  The default (``256``) keys on the exact
        8-bit histogram, matching the engine's ``signature_bins`` default.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    probabilities = histogram.probabilities()
    if bins < histogram.levels:
        edges = np.linspace(0, histogram.levels, bins + 1).astype(np.int64)
        probabilities = np.add.reduceat(probabilities, edges[:-1])
    quantized = np.rint(probabilities * _PROBABILITY_STEPS).astype(np.uint16)
    return quantized.tobytes()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/replay counters of a :class:`SolutionCache` at one point in
    time.

    ``hits`` and ``misses`` count genuine cache probes; ``replays`` counts
    solution reuses that never probed the cache (members of a
    :meth:`~repro.api.engine.Engine.process_batch` group past the first, who
    share the group's single probe/solve).  Keeping the two apart keeps
    :attr:`hit_rate` an honest probe statistic while :attr:`reuse_rate`
    reports the fraction of images that skipped a solve.
    """

    hits: int
    misses: int
    size: int
    max_size: int
    evictions: int
    replays: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache probes (replays excluded)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def reuse_rate(self) -> float:
        """Fraction of served images that reused a solution (hit or replay)
        instead of paying a fresh solve (0 when unused)."""
        total = self.lookups + self.replays
        return (self.hits + self.replays) / total if total else 0.0


class SolutionCache:
    """A bounded least-recently-used mapping from cache keys to solutions.

    Keys are opaque hashables (the engine combines the algorithm name, the
    quantized histogram signature and the budget); values are
    :class:`~repro.api.types.CompensationSolution` instances.  All public
    methods are thread safe: a single internal lock guards the entry map and
    the counters, so the cache can be shared by every worker of a
    :class:`~repro.serve.Server` without external synchronization.
    """

    def __init__(self, max_size: int = 256) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self.max_size = int(max_size)
        self._lock = threading.RLock()
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._replays = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: object):
        """The cached solution for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: object, touch: bool = True):
        """The cached solution for ``key`` without hit/miss accounting.

        Used by the engine's unlocked first probe, which counts a hit with
        :meth:`note_hit` and leaves a miss to its re-probe under the solve
        lock (where a thread that lost a solve race finds the winner's
        entry).  ``touch`` refreshes the entry's LRU recency.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None and touch:
                self._entries.move_to_end(key)
            return value

    def put(self, key: object, value: object) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def note_hit(self, count: int = 1) -> None:
        """Record ``count`` cache hits that bypassed :meth:`get` (e.g. a
        :meth:`peek` that found the entry)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            self._hits += count

    def note_replays(self, count: int = 1) -> None:
        """Record ``count`` solution replays that never probed the cache
        (batch-group members sharing one probe/solve)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            self._replays += count

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._replays = 0

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the hit/miss/eviction/replay counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                max_size=self.max_size,
                evictions=self._evictions,
                replays=self._replays,
            )
