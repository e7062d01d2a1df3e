"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` records one span per wrapped call: its name, thread,
start, end and the enclosing span.  The enclosing span is tracked in a
context variable, so it is the caller's span on the same thread (and,
under asyncio, in the same task).  Spans stay in memory and are written
out once, when the run ends.

Recording is off until :attr:`Tracer.enabled` is set; a disabled wrapper
only adds one function call, so wrappers can be installed before the
program builds its engines (pipelines capture their callables at
construction) and switched on for the measured window alone.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int          # 0 when the span has no enclosing span
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_current_span", default=0)


class _SpanScope:
    __slots__ = ("_tracer", "_name", "_id", "_parent", "_token", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanScope":
        self._id = next(self._tracer._ids)
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self._id)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self._tracer._clock()
        _CURRENT.reset(self._token)
        self._tracer._spans.append(Span(
            self._id, self._parent, self._name, threading.get_ident(),
            self._start, end))


class Tracer:
    """Span and sample recorder shared by every wrapper of one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = False
        self._clock = clock
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._samples: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recording a span named ``name`` per call while
        enabled."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with _SpanScope(self, name):
                return function(*args, **kwargs)
        return traced

    def sample(self, name: str, value: float) -> None:
        """Record one value of a named distribution while enabled."""
        if self.enabled:
            self._samples[name].append(float(value))

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    def samples(self, name: str) -> list[float]:
        return list(self._samples.get(name, ()))

    def write(self, path) -> None:
        """Write every span and sample as JSON (times in seconds)."""
        payload = {
            "spans": [span._asdict() for span in self._spans],
            "samples": {name: values
                        for name, values in self._samples.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run inside it on its thread (or task) one after
    another, so their summed durations are the part of the parent they
    cover.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


class LayerTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def layer_totals(spans: Iterable[Span], name: str) -> LayerTotals:
    """Calls, summed duration and summed self time of the spans named
    ``name``."""
    spans = list(spans)
    own = self_times(spans)
    named = [span for span in spans if span.name == name]
    return LayerTotals(calls=len(named),
                       total_s=sum(span.duration for span in named),
                       self_s=sum(own[span.id] for span in named))


def children_per_parent(spans: Iterable[Span], parent_name: str,
                        child_name: str) -> tuple[int, int]:
    """``(parents, children)``: how many spans are named ``parent_name``
    and how many spans named ``child_name`` they directly enclose."""
    spans = list(spans)
    parents = {span.id for span in spans if span.name == parent_name}
    children = sum(1 for span in spans
                   if span.name == child_name and span.parent in parents)
    return len(parents), children
