"""Unified serving API: one pluggable, batched, cache-accelerated surface.

This package is the canonical way to *use* the reproduction.  Every
backlight-scaling technique — HEBS and all the baselines it is compared
against — sits behind one contract and one facade:

>>> from repro.api import Engine
>>> engine = Engine()                          # default algorithm: "hebs"
>>> result = engine.process(image, max_distortion=10.0)
>>> result.backlight_factor, result.power_saving_percent    # doctest: +SKIP

Modules
-------
:mod:`repro.api.types`
    The normalized :class:`CompensationResult` / :class:`CompensationSolution`
    records all techniques produce.
:mod:`repro.api.registry`
    The :class:`CompensationAlgorithm` contract, the adapters wrapping HEBS
    (curve-driven, adaptive, and the equalization variants), DLS and CBCS,
    and the name registry (:func:`register` / :func:`create` /
    :func:`available_algorithms`).
:mod:`repro.api.cache`
    The histogram-keyed LRU solution cache exploiting the paper's Fig. 4
    observation that the transform depends only on histogram and budget.
:mod:`repro.api.engine`
    The thread-safe :class:`Engine` facade: ``process`` / ``process_batch``
    / ``open_session`` / ``process_stream`` with cache statistics.
    :mod:`repro.serve` builds the concurrent serving front end
    (micro-batching, worker pool, backpressure, multi-stream sessions) on
    top of it.
:mod:`repro.api.session`
    The push-based :class:`StreamSession`: long-lived per-stream temporal
    state over the shared solution cache (``session.submit(frame)``), with
    the steady-scene fast path and the split-phase surface the serving
    layer batches across sessions.
"""

from repro.api.budget import BudgetPolicy, DEFAULT_POLICY, OperatingConditions
from repro.api.cache import CacheStats, SolutionCache, histogram_signature
from repro.api.engine import Engine
from repro.api.session import (
    SessionClosedError,
    StreamFramePlan,
    StreamSession,
    StreamSessionStats,
)
from repro.api.registry import (
    BaselineAlgorithm,
    CompensationAlgorithm,
    HEBSAlgorithm,
    OLEDDarkenAlgorithm,
    algorithm_descriptions,
    algorithm_display_classes,
    available_algorithms,
    create,
    register,
)
from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    SolvedFrame,
    StreamFrameResult,
)

__all__ = [
    "Engine",
    "StreamSession",
    "StreamSessionStats",
    "StreamFramePlan",
    "SessionClosedError",
    "CompensationAlgorithm",
    "HEBSAlgorithm",
    "BaselineAlgorithm",
    "OLEDDarkenAlgorithm",
    "BudgetPolicy",
    "OperatingConditions",
    "DEFAULT_POLICY",
    "CompensationResult",
    "CompensationSolution",
    "SolvedFrame",
    "StreamFrameResult",
    "CacheStats",
    "SolutionCache",
    "histogram_signature",
    "register",
    "create",
    "available_algorithms",
    "algorithm_descriptions",
    "algorithm_display_classes",
]
