"""Content darkening: the paper's optimization inverted for emissive panels.

HEBS saves power by dimming a backlight and re-equalizing content *upward*
so the perceived image survives.  On an OLED there is no backlight; power
lives in the pixels, so the same machinery runs the other way: derive a
monotone tone-mapping LUT **from the histogram only** that moves pixel mass
toward black, subject to the same distortion budget, and pay the power bill
at the panel (:class:`~repro.display.oled.OLEDModel`).

The transform family reuses the paper's Eq.-(7) equalization engine.  Plain
equalization onto ``[0, R]`` is wrong on its own: a uniform target
*brightens* the dense dark regions (the classic HE washed-out-shadows
artifact), which on an emissive panel costs power.  The darkening family
clamps it against the identity:

    Phi_R(x) = min(x, ghe_R(x))        ghe_R = Eq. (7) onto [0, R]

which is monotone (the pointwise minimum of monotone maps), never brightens
any pixel (so emissive power can only fall), and is pointwise non-decreasing
in ``R`` (``ghe_R`` scales linearly with ``R``).  Distortion usually falls
as ``R`` grows, but not monotonically, so the range is chosen by the
bracketing integer search :meth:`repro.core.pipeline.HEBS.process_adaptive`
also uses (:func:`repro.core.search.bracket_search`): the selected ``R`` was
probed within budget, and it is either the most aggressive range allowed
(``min_range``) or ``R - 1`` was probed over budget.

The solve/apply split mirrors HEBS (paper Fig. 4): :meth:`ContentDarkener.solve`
consumes only the histogram (a bare histogram is realized via
:meth:`Histogram.to_image <repro.core.histogram.Histogram.to_image>` for the
distortion probe), so solutions are cacheable by histogram signature and a
remote client can ship O(histogram) bytes; :meth:`ContentDarkener.apply_solution`
replays the LUT onto concrete pixels with power/distortion accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.equalization_variants import get_equalizer
from repro.core.histogram import Histogram
from repro.core.search import bracket_search
from repro.core.transforms import LUTTransform
from repro.display.oled import (
    OLEDDisplayPowerModel,
    OLEDModel,
    OLEDPowerBreakdown,
    QVGA_AMOLED,
)
from repro.imaging.image import Image
from repro.quality.distortion import get_measure

__all__ = [
    "DarkenSolution",
    "DarkenResult",
    "ContentDarkener",
    "darkening_transform",
    "DEFAULT_SAFETY_MARGINS",
]

#: Calibrated per-equalizer safety margins (see ``ContentDarkener``): the
#: histogram-realizing probe image is smoother than real textured content,
#: so windowed measures read lower on it.  These factors keep the measured
#: per-image distortion within budget across the benchmark suite; the
#: clipped equalizer redistributes mass and needs the larger guard band.
DEFAULT_SAFETY_MARGINS = {"ghe": 0.90, "clipped": 0.75}


def darkening_transform(histogram: Histogram, target_range: int,
                        equalization: str = "ghe") -> LUTTransform:
    """The darkening LUT ``Phi_R = min(identity, equalize-onto-[0, R])``.

    ``target_range`` is the top level ``R`` of the equalization target
    ``[0, R]``; the clamp against the identity guarantees no pixel ever
    brightens, so the transform can only reduce emissive power.
    """
    levels = histogram.levels
    if not 1 <= target_range <= levels - 1:
        raise ValueError(
            f"target_range must be in [1, {levels - 1}], got {target_range}")
    equalized = get_equalizer(equalization)(histogram, 0, target_range)
    table = np.asarray(equalized.transform.table, dtype=np.float64)
    identity = np.linspace(0.0, 1.0, levels)
    # the minimum of two normalized monotone tables is one too
    return LUTTransform._from_valid(np.minimum(table, identity))


@dataclass(frozen=True)
class DarkenSolution:
    """The image-independent outcome of one darkening solve.

    Attributes
    ----------
    transform:
        The per-level darkening LUT ``Phi_R``.
    target_range:
        The selected equalization top level ``R`` (``levels - 1`` when the
        budget forced the identity fallback).
    levels:
        Grayscale levels of the histogram the LUT was derived for.
    max_distortion:
        The budget the solve was asked to respect.
    identity:
        ``True`` when even the gentlest member of the family exceeded the
        budget and the solve fell back to the identity transform (zero
        distortion, zero saving) — the emissive analogue of
        :func:`~repro.baselines.policy.find_minimum_backlight` returning
        1.0.
    """

    transform: LUTTransform
    target_range: int
    levels: int
    max_distortion: float
    identity: bool = False


@dataclass(frozen=True)
class DarkenResult:
    """Full per-image outcome of replaying a darkening solution.

    The native record of the emissive workload, mirroring
    :class:`~repro.core.pipeline.HEBSResult` /
    :class:`~repro.baselines.policy.BaselineResult`; the registry adapter
    normalizes it to a :class:`~repro.api.types.CompensationResult`.
    """

    original: Image
    output: Image
    transform: LUTTransform
    target_range: int
    distortion: float
    power: OLEDPowerBreakdown
    reference_power: OLEDPowerBreakdown
    max_distortion: float

    @property
    def power_saving(self) -> float:
        """Fractional display-power saving versus the undarkened original."""
        return self.power.saving_versus(self.reference_power)

    @property
    def power_saving_percent(self) -> float:
        """Power saving in percent."""
        return 100.0 * self.power_saving


class ContentDarkener:
    """Histogram-driven content darkening under a distortion budget.

    Parameters
    ----------
    oled:
        The emissive power model billed for the output frames.
    measure:
        Distortion measure: a registered name (see
        :func:`repro.quality.distortion.get_measure`) or a callable
        ``(original, output) -> percent``.
    equalization:
        Equalization engine for the ``ghe_R`` half of the family (``"ghe"``
        or ``"clipped"``; ``"bbhe"`` splits around the mean and does not
        target ``[0, R]``'s darkening semantics, so it is rejected).
    min_range:
        Most aggressive ``R`` the search may select; guards the
        degenerate all-black LUT.
    safety_margin:
        Multiplier (``<= 1``) on the budget used *during* range selection.
        The solve probes distortion on the canonical histogram-realizing
        image, which is smoother than real textured content, so
        layout-sensitive measures read lower on it; the margin buys the
        slack back.  ``None`` (the default) selects the calibrated
        per-equalizer value from :data:`DEFAULT_SAFETY_MARGINS`.
    """

    def __init__(self, oled: OLEDModel | None = None, *,
                 measure: str | Callable[..., Any] = "effective",
                 equalization: str = "ghe", min_range: int = 16,
                 safety_margin: float | None = None) -> None:
        if equalization not in ("ghe", "clipped"):
            raise ValueError(
                f"equalization must be 'ghe' or 'clipped' for darkening, "
                f"got {equalization!r}")
        if min_range < 1:
            raise ValueError("min_range must be at least 1")
        if safety_margin is None:
            safety_margin = DEFAULT_SAFETY_MARGINS[equalization]
        if not 0.0 < safety_margin <= 1.0:
            raise ValueError("safety_margin must be in (0, 1]")
        self.oled = oled or QVGA_AMOLED
        self.display_model = OLEDDisplayPowerModel(oled=self.oled)
        if callable(measure):
            self.measure = measure
            self.measure_name = getattr(measure, "__name__", "custom")
        else:
            self.measure = get_measure(measure)
            self.measure_name = measure
        self.equalization = equalization
        self.min_range = int(min_range)
        self.safety_margin = float(safety_margin)

    # ------------------------------------------------------------------ #
    # the solve side (histogram-only, Fig. 4 discipline)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _histogram_of(source: Image | Histogram) -> Histogram:
        if isinstance(source, Histogram):
            return source
        return Histogram.of_image(source.to_grayscale())

    def darkening_transform(self, histogram: Histogram,
                            target_range: int) -> LUTTransform:
        """The family member ``Phi_R`` for this darkener's equalizer."""
        return darkening_transform(histogram, target_range,
                                   equalization=self.equalization)

    def solve_range(self, source: Image | Histogram, target_range: int,
                    max_distortion: float = float("nan")) -> DarkenSolution:
        """Solution at an explicitly chosen target range (no search)."""
        histogram = self._histogram_of(source)
        return DarkenSolution(
            transform=self.darkening_transform(histogram, target_range),
            target_range=int(target_range),
            levels=histogram.levels,
            max_distortion=float(max_distortion),
        )

    def select_range(self, source: Image | Histogram,
                     max_distortion: float) -> int | None:
        """A feasible ``R`` for the budget, or ``None`` if ``levels - 1``
        is not.

        Distortion is probed on the canonical image realizing the
        histogram, so the selection — like the whole solve — is a pure
        function of (histogram, budget) and therefore cacheable.  The
        search (:func:`~repro.core.search.bracket_search`) probes
        ``levels - 1``, then ``min_range`` (returned when feasible), then
        bisects between them.  Distortion is not monotone in ``R``, so the
        result is not always the smallest feasible ``R``: it is
        ``min_range``, or an ``R`` whose probe met the budget while the
        probe of ``R - 1`` did not.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        histogram = self._histogram_of(source)
        realized = histogram.to_image()
        budget = max_distortion * self.safety_margin
        gentlest = histogram.levels - 1

        def feasible(target_range: int) -> bool:
            transform = self.darkening_transform(histogram, target_range)
            return float(self.measure(realized,
                                      transform.apply(realized))) <= budget

        return bracket_search(feasible, min(self.min_range, gentlest),
                              gentlest, 1, probe_low=True)

    def solve(self, source: Image | Histogram,
              max_distortion: float) -> DarkenSolution:
        """Full histogram-only solve: select the range, build the LUT.

        Falls back to an explicit identity solution (zero distortion, zero
        saving) when no family member fits the budget, so a tiny budget
        degrades gracefully instead of overshooting it.
        """
        histogram = self._histogram_of(source)
        target_range = self.select_range(histogram, max_distortion)
        if target_range is None:
            levels = histogram.levels
            identity = LUTTransform(
                tuple(float(v) for v in np.linspace(0.0, 1.0, levels)))
            return DarkenSolution(
                transform=identity, target_range=levels - 1, levels=levels,
                max_distortion=float(max_distortion), identity=True)
        return self.solve_range(histogram, target_range,
                                max_distortion=max_distortion)

    # ------------------------------------------------------------------ #
    # the apply side (per-image replay)
    # ------------------------------------------------------------------ #
    def apply_solution(self, solution: DarkenSolution,
                       image: Image) -> DarkenResult:
        """Replay a (possibly cached) solution onto concrete pixels."""
        grayscale = image.to_grayscale()
        if grayscale.levels != solution.levels:
            raise ValueError(
                f"image has {grayscale.levels} levels but the solution was "
                f"derived for {solution.levels}")
        output = solution.transform.apply(grayscale)
        return DarkenResult(
            original=grayscale,
            output=output,
            transform=solution.transform,
            target_range=solution.target_range,
            distortion=float(self.measure(grayscale, output)),
            power=self.oled.breakdown(output),
            reference_power=self.oled.breakdown(grayscale),
            max_distortion=solution.max_distortion,
        )

    def process(self, image: Image, max_distortion: float) -> DarkenResult:
        """Solve for ``image``'s histogram and replay onto its pixels."""
        return self.apply_solution(self.solve(image, max_distortion), image)
