"""Normalized request/result records of the unified compensation API.

Every backlight-scaling technique in this package — HEBS and the prior
techniques it is compared against — solves the same problem: pick a pixel
transformation ``Phi`` and a backlight factor ``beta`` that minimize display
power subject to a distortion budget (the paper's Sec. 3 formulation).  The
algorithms historically exposed different calling conventions and result
records (:class:`~repro.core.pipeline.HEBSResult`,
:class:`~repro.baselines.policy.BaselineResult`); this module defines the
single contract they are all normalized to:

* :class:`CompensationSolution` — the *image-independent* outcome of a
  technique: the transformation, the backlight factor and the driver
  program.  Per the paper's real-time flow (Fig. 4) this depends only on the
  image histogram and the budget, which is what makes it cacheable
  (:mod:`repro.api.cache`).
* :class:`CompensationResult` — the full per-image outcome: the solution
  replayed onto a concrete image, with the achieved distortion and the
  power accounting.
* :class:`SolvedFrame` — one image's solution before it is applied, so a
  stream session applies it only when it keeps the raw result.
* :class:`StreamFrameResult` — a result wrapped with the temporal-filter
  bookkeeping of :meth:`repro.api.engine.Engine.process_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.transforms import PixelTransform
from repro.display.driver import DriverProgram
from repro.display.power import PowerBreakdown
from repro.imaging.image import Image

__all__ = [
    "CompensationSolution",
    "CompensationResult",
    "SolvedFrame",
    "StreamFrameResult",
]


@dataclass(frozen=True)
class CompensationSolution:
    """The image-independent part of one technique's answer.

    Attributes
    ----------
    algorithm:
        Registry name of the technique that produced the solution.
    transform:
        The pixel transformation ``Phi`` to apply while the backlight is
        dimmed.
    backlight_factor:
        The dimming factor ``beta`` in ``(0, 1]``.
    driver_program:
        Programmed reference voltages, when the technique targets the
        hierarchical driver (``None`` for the prior techniques, whose
        transforms fit the conventional driver).
    details:
        Technique-specific payload (e.g. the full
        :class:`~repro.core.pipeline.HEBSSolution`), excluded from equality.
    """

    algorithm: str
    transform: PixelTransform
    backlight_factor: float
    driver_program: DriverProgram | None = None
    details: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.backlight_factor <= 1.0:
            raise ValueError(
                f"backlight_factor must be in (0, 1], got {self.backlight_factor}")


@dataclass(frozen=True)
class CompensationResult:
    """Uniform per-image outcome of any registered technique.

    Attributes
    ----------
    algorithm:
        Registry name of the technique.
    original:
        The grayscale input image.
    output:
        The compensated image written to the panel while the backlight is
        dimmed to ``backlight_factor``.
    backlight_factor:
        The dimming factor ``beta``.
    transform:
        The pixel transformation that produced ``output``.
    distortion:
        Achieved distortion in percent (measured with the technique's
        configured measure).
    power, reference_power:
        Display power with the technique applied / at full backlight with no
        transformation.
    max_distortion:
        The distortion budget the technique was asked to respect (``None``
        when the operating point was fixed explicitly).
    driver_program:
        Reference-voltage program, when applicable.
    details:
        The technique's native result record
        (:class:`~repro.core.pipeline.HEBSResult` or
        :class:`~repro.baselines.policy.BaselineResult`), excluded from
        equality.
    from_cache:
        Whether the underlying solution was replayed from the engine's
        histogram-keyed cache rather than solved from scratch.
    replayed:
        Whether the underlying solution was shared from an earlier image of
        the *same* :meth:`~repro.api.engine.Engine.process_batch` call (the
        image belonged to a histogram group past its first member).  Unlike
        ``from_cache`` this also happens with caching disabled — grouping is
        independent of the cache.  When a cache exists the replays are
        tallied in :attr:`repro.api.cache.CacheStats.replays` rather than
        as cache probes; with ``cache_size=0`` there are no cache stats and
        this flag is the only record.
    """

    algorithm: str
    original: Image
    output: Image
    backlight_factor: float
    transform: PixelTransform
    distortion: float
    power: PowerBreakdown
    reference_power: PowerBreakdown
    max_distortion: float | None = None
    # excluded from equality: DriverProgram wraps raw arrays, and equality
    # of results should mean "same images, operating point and outcome"
    driver_program: DriverProgram | None = field(default=None, compare=False)
    details: Any = field(default=None, compare=False)
    from_cache: bool = field(default=False, compare=False)
    replayed: bool = field(default=False, compare=False)

    @property
    def power_saving(self) -> float:
        """Fractional display-power saving versus the full-backlight original."""
        return self.power.saving_versus(self.reference_power)

    @property
    def power_saving_percent(self) -> float:
        """Power saving in percent (the Table-1 unit)."""
        return 100.0 * self.power_saving

    def summary(self) -> Mapping[str, float | str]:
        """Compact dictionary of the headline numbers (for reports/tests)."""
        return {
            "algorithm": self.algorithm,
            "backlight_factor": self.backlight_factor,
            "distortion_percent": self.distortion,
            "power_saving_percent": self.power_saving_percent,
        }


@dataclass(frozen=True)
class SolvedFrame:
    """One image's solution, not yet applied to the image.

    :meth:`Engine.solve_batch <repro.api.engine.Engine.solve_batch>` returns
    one per image.  A stream session needs a frame's raw result only when no
    re-derivation at the smoothed backlight factor replaces it, so
    :meth:`~repro.api.session.StreamSession.complete` applies the solution
    only then.

    Attributes
    ----------
    image:
        The grayscale image the solution is applied to.
    solution:
        Its solution, possibly from the cache.
    from_cache, replayed:
        The flags the applied result carries (see
        :class:`CompensationResult`).
    result:
        The applied result when the solve already measured the solution on
        :attr:`image` (a ``hebs-adaptive`` search ends on such a probe),
        else ``None``.
    """

    image: Image
    solution: CompensationSolution
    from_cache: bool = False
    replayed: bool = False
    result: CompensationResult | None = None

    def apply(self, algorithm, max_distortion: float) -> CompensationResult:
        """The applied result: :attr:`result`, or ``algorithm``'s
        ``apply_solution`` of the solution on the image, with the flags."""
        result = self.result
        if result is None:
            result = algorithm.apply_solution(self.solution, self.image,
                                              max_distortion=max_distortion)
        if self.from_cache or self.replayed:
            result = replace(result, from_cache=self.from_cache,
                             replayed=self.replayed)
        return result


@dataclass(frozen=True)
class StreamFrameResult:
    """One frame's outcome from a :class:`~repro.api.session.StreamSession`
    (and therefore from :meth:`repro.api.engine.Engine.process_stream`,
    which wraps one).

    Attributes
    ----------
    result:
        The compensation actually applied to the frame (re-derived at the
        smoothed backlight factor when smoothing changed it).
    requested_backlight:
        The factor the per-frame policy asked for before temporal smoothing.
    applied_backlight:
        The smoothed, slew-limited factor actually programmed.  A quantized
        re-derivation is only accepted when its factor stays within the
        smoother's ``max_step`` of the previous frame's applied factor (and
        then ``result.backlight_factor == applied_backlight``); otherwise
        the raw result rides at the smoothed factor, exactly like
        algorithms without ``at_backlight``.  When the session snaps on a
        scene cut (``snap_on_scene_change``), the factor jumps with the cut
        instead.
    scene_change:
        Whether the frame was flagged as a scene change by the detector.
    reused:
        Whether the frame rode the session's steady-scene fast path
        (``scene_gated_solve``): the raw result replayed the session's held
        solution instead of running the per-frame policy.  Always ``False``
        outside the fast path.
    """

    result: CompensationResult
    requested_backlight: float
    applied_backlight: float
    scene_change: bool
    reused: bool = field(default=False, compare=False)
