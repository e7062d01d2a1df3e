"""The end-to-end HEBS pipeline — paper Fig. 4 and the 4-step algorithm of Sec. 1.

Given an original image ``F`` and a maximum tolerable distortion ``D_max``:

1. Look up the minimum admissible dynamic range ``R`` from the distortion
   characteristic curve, and derive the optimum backlight scaling factor
   ``beta`` from ``R`` and the panel transmissivity.
2. Solve GHE: a transformation ``Phi`` mapping the original histogram to a
   uniform histogram over ``[g_min, g_min + R]``.
3. Coarsen ``Phi`` into a piecewise-linear ``Lambda`` with at most ``m``
   segments (PLC) so the hierarchical reference driver can realize it.
4. Apply ``Lambda`` to the image, program the driver's reference voltages
   (Eq. 10) and dim the backlight to ``beta``.

:class:`HEBS` packages these steps; :class:`HEBSResult` carries everything an
experiment needs: the transformed image, the driver program, the achieved
distortion and the power accounting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.distortion_curve import DistortionCharacteristicCurve
from repro.core.equalization import (
    GHEResult,
    equalization_objective,
    equalize_histogram,
)
from repro.core.histogram import Histogram
from repro.core.plc import (
    PiecewiseLinearCurve,
    coarsen_through,
    coarsen_transform,
    kband_spreading_function,
)
from repro.core.search import bisect, bracket_search
from repro.core.transforms import LUTTransform, PiecewiseLinearTransform
from repro.display.driver import DriverProgram, HierarchicalDriver
from repro.display.power import DisplayPowerModel, PowerBreakdown
from repro.imaging.image import Image
from repro.quality.distortion import (
    DistortionMeasure,
    RangeDistortion,
    get_measure,
)

__all__ = ["HEBSConfig", "HEBSResult", "HEBSSolution", "HEBS"]

#: Equalizers whose LUT is ``g_min + R * c(x)`` with ``c`` fixed by the
#: histogram, so that one set of PLC breakpoints serves every range ``R``
#: (see :meth:`HEBS.solve_range`).  ``bbhe`` rounds its split level per
#: range and is not one of them.
_RANGE_AFFINE_EQUALIZERS = frozenset({"ghe", "clipped"})

#: Breakpoint sets a pipeline keeps, least recently used first.  A range
#: search probes one histogram 3 to 10 times and a stream session re-derives
#: the histogram it has just solved, so a few entries cover the callers
#: that share a pipeline.  An entry is the 2 KB histogram key and at most
#: ``n_segments + 1`` indices.
_BREAKPOINT_CAPACITY = 32


@dataclass(frozen=True)
class HEBSConfig:
    """Tunable knobs of the HEBS pipeline.

    Parameters
    ----------
    n_segments:
        Number of linear segments of the coarsened transformation
        ``Lambda`` — bounded by the number of controllable sources of the
        hierarchical driver (Sec. 4.1).
    g_min:
        Lower limit of the equalization target range.  0 (the default)
        maximizes backlight dimming because the compensated image then uses
        the full voltage swing.
    worst_case_curve:
        Whether step 1 consults the worst-case fit (guaranteeing the budget
        for every characterized image) or the dataset-average fit.  The
        dataset fit is the default; the worst-case fit is markedly more
        conservative because it is dominated by the hardest benchmark
        (the synthetic test chart).
    distortion_measure:
        Name of the measure used to *report* the achieved distortion of a
        result (the characteristic curve has its own measure).
    driver_sources:
        Number of controllable voltage sources of the hierarchical driver.
    vdd:
        Driver supply voltage.
    equalization:
        Name of the equalization method used in step 2 (``"ghe"``,
        ``"clipped"`` or ``"bbhe"`` — see
        :mod:`repro.core.equalization_variants`).  All methods honour the
        same range-compression contract, so steps 3 and 4 are unchanged.
    """

    n_segments: int = 8
    g_min: int = 0
    worst_case_curve: bool = False
    distortion_measure: str = "effective"
    driver_sources: int = 8
    vdd: float = 3.3
    equalization: str = "ghe"

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValueError("n_segments must be at least 1")
        if self.g_min < 0:
            raise ValueError("g_min must be non-negative")
        if self.driver_sources < self.n_segments:
            raise ValueError(
                "the driver needs at least as many sources as the requested "
                f"number of segments ({self.driver_sources} < {self.n_segments})"
            )
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")


@dataclass(frozen=True)
class HEBSResult:
    """Everything produced by one run of the HEBS pipeline on one image.

    Attributes
    ----------
    original:
        The (grayscale) input image ``F``.
    transformed:
        The image after applying the coarsened transformation ``Lambda``
        (this is what sits in front of the dimmed backlight).
    target_range:
        The dynamic range ``R`` selected in step 1.
    backlight_factor:
        The dimming factor ``beta`` of step 1/4.
    ghe:
        The exact GHE solution (step 2).
    coarse_curve:
        The PLC solution (step 3) in grayscale-level coordinates.
    transform:
        ``Lambda`` as a normalized piecewise-linear transform.
    driver_program:
        The programmed reference voltages (Eq. 10).
    distortion:
        Achieved distortion (percent) measured between ``original`` and
        ``transformed`` with the configured measure.
    power:
        Power breakdown of displaying ``transformed`` at ``beta``.
    reference_power:
        Power breakdown of displaying ``original`` at full backlight.
    """

    original: Image
    transformed: Image
    target_range: int
    backlight_factor: float
    ghe: GHEResult
    coarse_curve: PiecewiseLinearCurve
    transform: PiecewiseLinearTransform
    driver_program: DriverProgram
    distortion: float
    power: PowerBreakdown
    reference_power: PowerBreakdown
    max_distortion: float | None = field(default=None)

    @property
    def power_saving(self) -> float:
        """Fractional display-power saving versus the full-backlight original."""
        return self.power.saving_versus(self.reference_power)

    @property
    def power_saving_percent(self) -> float:
        """Power saving in percent (the Table-1 unit)."""
        return 100.0 * self.power_saving

    def summary(self) -> dict[str, float]:
        """Compact dictionary of the headline numbers (for reports/tests)."""
        return {
            "target_range": float(self.target_range),
            "backlight_factor": self.backlight_factor,
            "distortion_percent": self.distortion,
            "power_saving_percent": self.power_saving_percent,
            "plc_mse": self.coarse_curve.mean_squared_error,
            "n_segments": float(self.coarse_curve.n_segments),
        }


@dataclass(frozen=True)
class HEBSSolution:
    """The image-independent part of a HEBS run (the paper's Fig. 4 insight).

    Steps 1-3 of the pipeline — range selection, equalization and PLC — plus
    the driver programming depend only on the image *histogram* and the
    distortion budget, never on the pixel layout.  A solution can therefore
    be derived once per (histogram, budget) pair and replayed onto any image
    with a matching histogram by :meth:`HEBS.apply_solution`; this is what
    the :mod:`repro.api` engine caches.

    Attributes
    ----------
    target_range:
        The dynamic range ``R`` selected in step 1.
    backlight_factor:
        The dimming factor ``beta``.
    ghe:
        The exact equalization solution (step 2).
    coarse_curve:
        The PLC solution (step 3) in grayscale-level coordinates.
    transform:
        ``Lambda`` as a normalized piecewise-linear transform.
    driver_program:
        The programmed reference voltages (Eq. 10).
    max_distortion:
        The budget the solution was derived for (``None`` when the range was
        chosen explicitly).
    """

    target_range: int
    backlight_factor: float
    ghe: GHEResult
    coarse_curve: PiecewiseLinearCurve
    transform: PiecewiseLinearTransform
    driver_program: DriverProgram
    max_distortion: float | None = None

    @property
    def levels(self) -> int:
        """Number of grayscale levels the solution was derived for."""
        return self.ghe.source_histogram.levels


class HEBS:
    """Histogram Equalization for Backlight Scaling (the paper's algorithm).

    Parameters
    ----------
    curve:
        A fitted :class:`DistortionCharacteristicCurve` used to turn a
        distortion budget into a minimum admissible dynamic range.  Build one
        with :func:`repro.core.distortion_curve.build_distortion_curve` or
        grab the pre-characterized one from
        :func:`repro.bench.suite.default_curve`.
    config:
        Pipeline knobs; defaults follow the paper (8-segment PLC, g_min = 0,
        worst-case curve).
    power_model:
        Display power model used for the power accounting (defaults to the
        LP064V1 CCFL + panel).
    """

    def __init__(self, curve: DistortionCharacteristicCurve,
                 config: HEBSConfig | None = None,
                 power_model: DisplayPowerModel | None = None) -> None:
        self.curve = curve
        self.config = config or HEBSConfig()
        self.power_model = power_model or DisplayPowerModel()
        self.driver = HierarchicalDriver(
            n_sources=self.config.driver_sources,
            vdd=self.config.vdd,
            levels=curve.levels,
        )
        self._measure: DistortionMeasure = get_measure(
            self.config.distortion_measure)
        if self.config.equalization == "ghe":
            self._equalizer = equalize_histogram
        else:
            # deferred import: equalization_variants depends on core.equalization
            from repro.core.equalization_variants import get_equalizer
            self._equalizer = get_equalizer(self.config.equalization)
        # PLC breakpoints by histogram counts: every range-affine solve of
        # one histogram reuses them, whichever thread or caller solves it
        self._breakpoints: OrderedDict[bytes, tuple[int, ...]] = OrderedDict()
        self._breakpoints_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # step 1: distortion budget -> dynamic range -> backlight factor
    # ------------------------------------------------------------------ #
    def select_range(self, max_distortion: float) -> int:
        """Minimum admissible dynamic range for a distortion budget (step 1)."""
        return self.curve.min_range_for_distortion(
            max_distortion, worst_case=self.config.worst_case_curve)

    def backlight_factor_for_range(self, target_range: int) -> float:
        """Optimum backlight scaling factor for a target dynamic range.

        The transformed image occupies ``[g_min, g_min + R]``; after the
        Eq. (10) compensation the brightest programmed voltage corresponds to
        level ``(g_min + R) / beta``, which must stay representable, so the
        most aggressive dimming is ``beta = t(g_max) / t(max_level)``
        (``= g_max / max_level`` for the ideal linear transmissivity).
        """
        levels = self.curve.levels
        g_max = self.config.g_min + target_range
        if not 0 < g_max <= levels - 1:
            raise ValueError(
                f"target range {target_range} with g_min={self.config.g_min} "
                f"exceeds the display range"
            )
        transmissivity = self.power_model.panel.transmissivity
        beta = transmissivity.backlight_for_range(g_max, levels)
        return float(min(max(beta, 0.0), 1.0))

    def range_for_backlight_factor(self, backlight_factor: float) -> int:
        """The target range whose backlight factor is nearest a given one.

        The inverse of :meth:`backlight_factor_for_range`: ``beta =
        t(g_max / max_level) / t(1)``, so ``g_max = t^-1(beta * t(1))``,
        rounded to a level.  It honours ``g_min`` and a leaky ``t_off``;
        the range is clipped to ``[1, levels - 1 - g_min]``.
        """
        if not 0.0 < backlight_factor <= 1.0:
            raise ValueError(
                f"backlight_factor must be in (0, 1], got {backlight_factor}")
        transmissivity = self.power_model.panel.transmissivity
        levels = self.curve.levels
        g_max = round(float(transmissivity.pixel_value(
            backlight_factor * transmissivity.transmittance(1.0)))
            * (levels - 1))
        return int(np.clip(g_max - self.config.g_min,
                           1, levels - 1 - self.config.g_min))

    # ------------------------------------------------------------------ #
    # steps 2-4
    # ------------------------------------------------------------------ #
    def solve_range(self, source: Image | Histogram, target_range: int,
                    max_distortion: float | None = None) -> HEBSSolution:
        """Derive the transformation and driver program for a dynamic range.

        Runs steps 2-3 plus the driver programming of step 4 — everything
        that depends only on the histogram, not on the pixel layout.  Accepts
        a bare :class:`~repro.core.histogram.Histogram`, which is all the
        real-time flow of Fig. 4 needs.

        The PLC breakpoints are solved once per histogram, not once per
        range.  Eq. (7) is affine in ``R`` (``g_min + R * H(x) / N``), and
        Eq. (9)'s chord errors ignore the shift and scale by ``R**2``, so
        the optimal breakpoints are the same for every ``R``.  The DP runs
        on the widest range, ``[g_min, levels - 1]``, and each range's curve
        is that breakpoint list evaluated on its own LUT
        (:func:`~repro.core.plc.coarsen_through`): the same ``x``, ``y``
        and mean squared error as a DP at that range.  The breakpoints are
        kept in a small LRU keyed by the histogram counts, so the curve is
        a function of (histogram, range) whatever order ranges arrive in.
        One caveat: where the DP faces an exact tie (sparse histograms), a
        DP at another range can pick a different, equally good breakpoint
        list.  With ``ghe`` the curve is still the same at every level, so
        only the driver program differs; with ``clipped`` the LUT can also
        differ by one gray level at some levels.  ``bbhe`` rounds its split
        level per range, so its LUT is not affine in ``R`` and it runs the
        DP for every range.
        """
        if isinstance(source, Histogram):
            histogram = source
        else:
            histogram = Histogram.of_image(source.to_grayscale())
        levels = histogram.levels
        if levels != self.curve.levels:
            raise ValueError(
                f"image has {levels} levels but the pipeline was characterized "
                f"for {self.curve.levels}"
            )
        if not 1 <= target_range <= levels - 1 - self.config.g_min:
            raise ValueError(
                f"target range must be in [1, {levels - 1 - self.config.g_min}], "
                f"got {target_range}"
            )

        beta = self.backlight_factor_for_range(target_range)
        g_min = self.config.g_min
        g_max = g_min + target_range

        # step 2: exact equalization transformation (GHE by default)
        ghe = self._equalizer(histogram, g_min, g_max)

        # step 3: piecewise linear coarsening
        coarse = self._coarsen(histogram, ghe)
        transform = kband_spreading_function(coarse, levels=levels)

        # step 4 (driver half): program the reference voltages (Eq. 10)
        program = self.driver.program(
            np.asarray(coarse.x), np.asarray(coarse.y), beta)

        return HEBSSolution(
            target_range=int(target_range),
            backlight_factor=beta,
            ghe=ghe,
            coarse_curve=coarse,
            transform=transform,
            driver_program=program,
            max_distortion=max_distortion,
        )

    def identity_solution(self, source: Image | Histogram,
                          max_distortion: float | None = None,
                          ) -> HEBSSolution:
        """The do-nothing solution: the identity LUT at full backlight.

        ``beta = 1`` with the identity keeps any budget (the image is shown
        unchanged: zero distortion, zero saving).  :meth:`process_adaptive`
        falls back to it when even the full range exceeds the budget, as
        :meth:`ContentDarkener.solve <repro.core.darken.ContentDarkener.solve>`
        does for emissive panels.  ``target_range`` is the full range
        ``levels - 1 - g_min``, whose backlight factor is 1.
        """
        if isinstance(source, Histogram):
            histogram = source
        else:
            histogram = Histogram.of_image(source.to_grayscale())
        top = histogram.levels - 1
        identity = GHEResult(
            transform=LUTTransform(tuple(
                float(v) for v in np.linspace(0.0, 1.0, histogram.levels))),
            g_min=0,
            g_max=top,
            objective=equalization_objective(histogram.cumulative(), 0, top),
            source_histogram=histogram,
        )
        curve = PiecewiseLinearCurve((0.0, float(top)), (0.0, float(top)))
        return HEBSSolution(
            target_range=top - self.config.g_min,
            backlight_factor=1.0,
            ghe=identity,
            coarse_curve=curve,
            transform=kband_spreading_function(curve,
                                               levels=histogram.levels),
            driver_program=self.driver.program(
                np.asarray(curve.x), np.asarray(curve.y), 1.0),
            max_distortion=max_distortion,
        )

    def _coarsen(self, histogram: Histogram,
                 ghe: GHEResult) -> PiecewiseLinearCurve:
        """Step 3: the PLC curve of ``ghe``'s LUT (see :meth:`solve_range`)."""
        n_segments = self.config.n_segments
        if self.config.equalization not in _RANGE_AFFINE_EQUALIZERS:
            return coarsen_transform(ghe.transform, n_segments)
        key = histogram.counts.tobytes()
        with self._breakpoints_lock:
            indices = self._breakpoints.get(key)
            if indices is not None:
                self._breakpoints.move_to_end(key)
        if indices is None:
            top = histogram.levels - 1
            widest = ghe if ghe.g_max == top else self._equalizer(
                histogram, self.config.g_min, top)
            indices = coarsen_transform(widest.transform,
                                        n_segments).breakpoint_indices
            with self._breakpoints_lock:
                self._breakpoints[key] = indices
                self._breakpoints.move_to_end(key)
                while len(self._breakpoints) > _BREAKPOINT_CAPACITY:
                    self._breakpoints.popitem(last=False)
        return coarsen_through(ghe.transform, indices)

    def apply_solution(self, solution: HEBSSolution, image: Image) -> HEBSResult:
        """Replay a solved transformation onto an image (step 4).

        Applies ``Lambda``, measures the achieved distortion and accounts the
        power — the only per-pixel work of the pipeline.  The solution may
        come fresh from :meth:`solve_range` or from a cache keyed on the
        image histogram (see :mod:`repro.api.cache`).
        """
        grayscale = image.to_grayscale()
        if grayscale.levels != solution.levels:
            raise ValueError(
                f"image has {grayscale.levels} levels but the solution was "
                f"derived for {solution.levels}"
            )
        transformed = solution.transform.apply(grayscale)
        distortion = float(self._measure(grayscale, transformed))
        power = self.power_model.breakdown(transformed,
                                           solution.backlight_factor)
        reference = self.power_model.reference(grayscale)
        return HEBSResult(
            original=grayscale,
            transformed=transformed,
            target_range=solution.target_range,
            backlight_factor=solution.backlight_factor,
            ghe=solution.ghe,
            coarse_curve=solution.coarse_curve,
            transform=solution.transform,
            driver_program=solution.driver_program,
            distortion=distortion,
            power=power,
            reference_power=reference,
            max_distortion=solution.max_distortion,
        )

    def process_with_range(self, image: Image, target_range: int,
                           max_distortion: float | None = None) -> HEBSResult:
        """Run steps 2-4 for an explicitly chosen dynamic range.

        Used directly by the Fig. 8 experiment (which fixes R to 220 and
        100) and internally by :meth:`process`.
        """
        grayscale = image.to_grayscale()
        solution = self.solve_range(grayscale, target_range,
                                    max_distortion=max_distortion)
        return self.apply_solution(solution, grayscale)

    def process(self, image: Image, max_distortion: float) -> HEBSResult:
        """Run the full HEBS flow for a distortion budget (steps 1-4).

        Step 1 consults the global distortion characteristic curve, exactly
        as in the paper's real-time flow (Fig. 4): the selected dynamic
        range depends only on the budget, not on the particular image.  Use
        :meth:`process_adaptive` to pick the range per image instead.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        target_range = self.select_range(max_distortion)
        return self.process_with_range(image, target_range,
                                       max_distortion=max_distortion)

    def process_adaptive(self, image: Image, max_distortion: float,
                         range_tolerance: int = 2) -> HEBSResult:
        """Run HEBS with per-image dynamic-range selection.

        Instead of consulting the global characteristic curve, the range is
        searched on the *measured* distortion of this very image, with the
        coarsened transform actually applied.  This is the offline/per-image
        variant implied by the per-image spread of the paper's Table 1, and
        it is what the Table-1 and comparison experiments use.

        Distortion is not monotone in ``R`` (an infeasible range can sit
        above a feasible one), so the search does not promise the smallest
        feasible range.  It promises a bracket: the returned ``R`` was
        probed within the budget, and a range in
        ``[R - range_tolerance, R - 1]`` was probed over it, or ``R`` is
        within ``range_tolerance`` of 1 (range 1 is assumed infeasible and
        never probed).  The first probe is the full range; when it is over
        budget the result is the identity fallback below.

        Every probe equalizes, coarsens, applies and measures, but the PLC
        dynamic program runs once for the whole search: the first probe is
        the widest range, and :meth:`solve_range` evaluates its breakpoints
        on every later probe's LUT.  That is exact because Eq. (7) is affine
        in ``R`` and Eq. (9)'s chord errors scale by ``R**2``; at an exact
        DP tie (sparse histograms) the breakpoint list can differ from a
        per-range DP's, with the same error (see :meth:`solve_range`).
        ``bbhe`` is not affine in ``R`` and still runs the DP per probe.

        For the range-affine equalizers (``ghe``, ``clipped``) under the
        ``effective`` measure, the search is *steered*: the widest probe's
        coarse curve is ``g_min + R * psi``, so the measure has a closed
        form ``D~(R)`` in the range, up to level rounding
        (:class:`~repro.quality.distortion.RangeDistortion`).  The range
        where ``D~`` crosses the budget is probed next, then the range
        ``range_tolerance`` away from it on the side that closes the
        bracket; if those two probes do not close it, bisection finishes on
        the side that is left.  A steered search takes 3 probes on most
        images and at most 10; the plain bisection takes up to 8.
        ``D~`` only chooses where to probe: every answer is an exact probe.

        Parameters
        ----------
        image:
            The image to transform.
        max_distortion:
            Distortion budget in percent.
        range_tolerance:
            The search stops when the feasible/infeasible bracket is this
            many grayscale levels wide.

        Returns
        -------
        HEBSResult
            The result of the last feasible probe.  If even the full
            range exceeds the budget (pathological images under a very tight
            budget: equalizing onto ``[g_min, levels - 1]`` is not the
            identity), the result of :meth:`identity_solution` instead: the
            image unchanged at ``beta = 1``, its distortion measured on the
            image (0 for the default measure) and zero saving.
        """
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        if range_tolerance < 1:
            raise ValueError("range_tolerance must be at least 1")
        grayscale = image.to_grayscale()
        full_range = self.curve.levels - 1 - self.config.g_min
        probes: dict[int, HEBSResult] = {}

        def feasible(target_range: int) -> bool:
            result = probes[target_range] = self.process_with_range(
                grayscale, target_range, max_distortion=max_distortion)
            return result.distortion <= max_distortion

        def steer() -> int:
            return self._steered_range(grayscale, probes[full_range],
                                       max_distortion)

        steerable = (
            self.config.equalization in _RANGE_AFFINE_EQUALIZERS
            and self.config.distortion_measure.lower() == "effective")
        selected = bracket_search(feasible, 1, full_range, range_tolerance,
                                  steer=steer if steerable else None)
        if selected is None:
            return self.apply_solution(
                self.identity_solution(grayscale, max_distortion), grayscale)
        return probes[selected]

    def _steered_range(self, grayscale: Image, widest: HEBSResult,
                       max_distortion: float) -> int:
        """Where the closed-form curve ``D~`` crosses the budget.

        The coarse curve at range ``R`` is ``g_min + R * psi`` with ``psi``
        fixed by the histogram's breakpoints, so the widest probe's
        transform gives ``psi`` (see :class:`RangeDistortion`).  Returns the
        smallest ``R`` with ``D~(R)`` within the budget, by bisection on
        ``D~`` (which is treated as monotone; it only steers).
        """
        top = grayscale.levels - 1
        g_min = self.config.g_min
        full_range = top - g_min
        levels = np.arange(grayscale.levels) / top
        shape = (np.asarray(widest.transform(levels)) - g_min / top) \
            / full_range
        curve = RangeDistortion(grayscale, g_min / top, shape)
        return bisect(lambda target_range: curve(target_range)
                      <= max_distortion, 1, full_range, 1)

    def with_config(self, **changes) -> "HEBS":
        """A copy of this pipeline with some configuration fields changed."""
        return HEBS(self.curve, replace(self.config, **changes),
                    self.power_model)
