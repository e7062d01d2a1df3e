"""Algorithm protocol and registry: every technique behind one contract.

The unified API rests on a small contract
(:class:`CompensationAlgorithm`): a technique must be able to

* ``solve(image, max_distortion)`` — derive the image-independent
  :class:`~repro.api.types.CompensationSolution` (transformation, backlight
  factor, driver program) for a distortion budget, and
* ``apply_solution(solution, image, ...)`` — replay a solution onto a
  concrete image, producing a normalized
  :class:`~repro.api.types.CompensationResult`.

``compensate()`` composes the two; the engine inserts its histogram-keyed
cache between them.  Techniques that can run at an externally imposed
backlight factor (needed by the temporal filter of ``process_stream``)
additionally implement ``at_backlight()``.

The module registry maps public names to factories.  The built-in entries
cover the whole package: HEBS with the characteristic-curve range selection
(``hebs``), HEBS with a per-image range search (``hebs-adaptive``), HEBS
with the alternative equalization methods (``hebs-clipped``,
``hebs-bbhe``), the two DLS variants of ref. [4], CBCS of ref. [5], and the
emissive-panel inversions (``oled-darken``, ``oled-darken-clipped``) that
darken content instead of dimming a backlight.  Every entry carries a
*display class* (``"backlit"`` or ``"emissive"``) so tooling can tell which
panel a technique drives.  Third-party techniques can join via
:func:`register`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import Callable, Mapping

import numpy as np

from repro.api.types import CompensationResult, CompensationSolution
from repro.baselines.cbcs import CBCS
from repro.baselines.dls import DLSBrightness, DLSContrast
from repro.baselines.policy import BaselineResult, build_result
from repro.core.darken import ContentDarkener, DarkenResult, DarkenSolution
from repro.core.pipeline import HEBS, HEBSConfig, HEBSResult, HEBSSolution
from repro.imaging.image import Image

__all__ = [
    "CompensationAlgorithm",
    "HEBSAlgorithm",
    "BaselineAlgorithm",
    "OLEDDarkenAlgorithm",
    "register",
    "create",
    "available_algorithms",
    "algorithm_descriptions",
    "algorithm_display_classes",
]


class CompensationAlgorithm:
    """Base class of the unified compensation contract.

    Subclasses set :attr:`name`, :attr:`description` and implement
    :meth:`solve` plus :meth:`apply_solution`; :meth:`compensate` and the
    optional :meth:`at_backlight` complete the surface the engine relies on.
    """

    #: Registry name of the technique (overridden per instance).
    name: str = "abstract"
    #: One-line summary shown by ``repro algorithms``.
    description: str = ""
    #: Display class the technique drives: ``"backlit"`` (power lives in a
    #: lamp, content is brightened to compensate dimming) or ``"emissive"``
    #: (power lives in the pixels, content is darkened).
    display_class: str = "backlit"

    def solve(self, image: Image,
              max_distortion: float) -> CompensationSolution:
        """Derive the image-independent solution for a distortion budget."""
        raise NotImplementedError

    def apply_solution(self, solution: CompensationSolution, image: Image,
                       max_distortion: float | None = None,
                       ) -> CompensationResult:
        """Replay a (possibly cached) solution onto a concrete image."""
        raise NotImplementedError

    def compensate(self, image: Image,
                   max_distortion: float) -> CompensationResult:
        """Solve for ``image`` under the budget and apply the solution."""
        solution = self.solve(image, max_distortion)
        result = self.take_solved_result(solution, image)
        if result is None:
            result = self.apply_solution(solution, image,
                                         max_distortion=max_distortion)
        return result

    def take_solved_result(self, solution: CompensationSolution,
                           image: Image) -> CompensationResult | None:
        """The result of applying ``solution`` to ``image`` when the calling
        thread's last :meth:`solve` returned ``solution`` for ``image`` and
        already measured it there, else ``None``; either way the thread's
        solve keeps nothing afterwards.

        Called right after :meth:`solve` by its callers that apply next.
        The default keeps nothing, so it always returns ``None``.
        """
        return None

    def at_backlight(self, image: Image, backlight_factor: float,
                     max_distortion: float | None = None,
                     ) -> CompensationResult:
        """Run the technique at an externally imposed backlight factor.

        Optional; required only for algorithms used with the temporal filter
        of :meth:`repro.api.engine.Engine.process_stream`.
        """
        raise NotImplementedError(
            f"{self.name!r} cannot run at a fixed backlight factor")

    def realized_backlight(self, backlight_factor: float) -> float | None:
        """The backlight factor :meth:`at_backlight` realizes for
        ``backlight_factor`` (it may quantize it), when that does not
        depend on the image; ``None`` when unknown, the default.

        A stream session discards a re-derivation whose realized factor
        breaks its flicker bound, so it skips one it knows would.
        """
        return None


# --------------------------------------------------------------------- #
# adapters
# --------------------------------------------------------------------- #
def _wrap_hebs(result: HEBSResult, name: str) -> CompensationResult:
    """Normalize a native HEBS result record."""
    return CompensationResult(
        algorithm=name,
        original=result.original,
        output=result.transformed,
        backlight_factor=result.backlight_factor,
        transform=result.transform,
        distortion=result.distortion,
        power=result.power,
        reference_power=result.reference_power,
        max_distortion=result.max_distortion,
        driver_program=result.driver_program,
        details=result,
    )


def _wrap_baseline(result: BaselineResult, name: str,
                   transform) -> CompensationResult:
    """Normalize a native baseline result record."""
    budget = result.max_distortion
    return CompensationResult(
        algorithm=name,
        original=result.original,
        output=result.displayed,
        backlight_factor=result.backlight_factor,
        transform=transform,
        distortion=result.distortion,
        power=result.power,
        reference_power=result.reference_power,
        max_distortion=None if math.isnan(budget) else budget,
        driver_program=None,
        details=result,
    )


class HEBSAlgorithm(CompensationAlgorithm):
    """Adapter exposing the HEBS pipeline through the unified contract.

    Parameters
    ----------
    pipeline:
        A configured :class:`~repro.core.pipeline.HEBS` instance; defaults
        to :func:`repro.bench.suite.default_pipeline` (characterized on the
        built-in suite).
    adaptive:
        ``False`` selects the dynamic range from the global characteristic
        curve (the paper's real-time flow, purely histogram-driven);
        ``True`` searches the range on the measured per-image distortion
        (the offline Table-1 selection; see
        :meth:`~repro.core.pipeline.HEBS.process_adaptive`).
    equalization:
        Equalization method for step 2 (``"ghe"``, ``"clipped"``,
        ``"bbhe"``); only consulted when ``pipeline`` is not given.
    measure:
        Distortion measure used to characterize the default pipeline; only
        consulted when ``pipeline`` is not given.
    name:
        Registry name to report in results (defaults per configuration).
    """

    def __init__(self, pipeline: HEBS | None = None, *,
                 adaptive: bool = False, equalization: str = "ghe",
                 measure: str = "effective", name: str | None = None) -> None:
        if pipeline is None:
            # deferred import: bench.suite must stay importable without api
            from repro.bench.suite import default_pipeline
            config = HEBSConfig(equalization=equalization)
            pipeline = default_pipeline(measure=measure, config=config)
        self.pipeline = pipeline
        self.adaptive = bool(adaptive)
        # per thread: (solution, image, result) of this thread's last
        # adaptive solve, until take_solved_result takes it
        self._solved = threading.local()
        if name is None:
            name = "hebs-adaptive" if adaptive else "hebs"
            if pipeline.config.equalization != "ghe":
                name = f"hebs-{pipeline.config.equalization}"
        self.name = name
        self.description = (
            "HEBS with a per-image range search on the measured distortion"
            if self.adaptive else
            "HEBS via the global distortion characteristic curve (Fig. 4)")
        if pipeline.config.equalization != "ghe":
            self.description = (
                f"HEBS with {pipeline.config.equalization} equalization "
                f"in place of GHE")

    def _solution_from_result(self, result: HEBSResult,
                              max_distortion: float) -> CompensationSolution:
        native = HEBSSolution(
            target_range=result.target_range,
            backlight_factor=result.backlight_factor,
            ghe=result.ghe,
            coarse_curve=result.coarse_curve,
            transform=result.transform,
            driver_program=result.driver_program,
            max_distortion=max_distortion,
        )
        return CompensationSolution(
            algorithm=self.name,
            transform=native.transform,
            backlight_factor=native.backlight_factor,
            driver_program=native.driver_program,
            details=native,
        )

    def solve(self, image: Image,
              max_distortion: float) -> CompensationSolution:
        if self.adaptive:
            # the search ends on an exact probe of these very pixels: keep
            # it for take_solved_result, so the solution itself stays free
            # of per-image state
            result = self.pipeline.process_adaptive(image, max_distortion)
            solution = self._solution_from_result(result, max_distortion)
            self._solved.last = (solution, image, result)
            return solution
        target_range = self.pipeline.select_range(max_distortion)
        native = self.pipeline.solve_range(image, target_range,
                                           max_distortion=max_distortion)
        return CompensationSolution(
            algorithm=self.name,
            transform=native.transform,
            backlight_factor=native.backlight_factor,
            driver_program=native.driver_program,
            details=native,
        )

    def apply_solution(self, solution: CompensationSolution, image: Image,
                       max_distortion: float | None = None,
                       ) -> CompensationResult:
        native = solution.details
        if not isinstance(native, HEBSSolution):
            raise TypeError("solution was not produced by a HEBS algorithm")
        return _wrap_hebs(self.pipeline.apply_solution(native, image),
                          self.name)

    def take_solved_result(self, solution: CompensationSolution,
                           image: Image) -> CompensationResult | None:
        last = getattr(self._solved, "last", None)
        self._solved.last = None
        if last is None or last[0] is not solution or last[1] is not image:
            return None
        return _wrap_hebs(last[2], self.name)

    def at_backlight(self, image: Image, backlight_factor: float,
                     max_distortion: float | None = None,
                     ) -> CompensationResult:
        target_range = self.pipeline.range_for_backlight_factor(
            backlight_factor)
        result = self.pipeline.process_with_range(
            image, target_range, max_distortion=max_distortion)
        return _wrap_hebs(result, self.name)

    def realized_backlight(self, backlight_factor: float) -> float:
        # the factor of the range at_backlight runs at
        return self.pipeline.backlight_factor_for_range(
            self.pipeline.range_for_backlight_factor(backlight_factor))


class BaselineAlgorithm(CompensationAlgorithm):
    """Adapter exposing a DLS/CBCS-style technique through the contract.

    Wraps any object with the baseline surface: ``method_name``, ``measure``,
    ``power_model``, ``solve(image, budget) -> (transform, beta)`` and
    ``apply(image, beta) -> BaselineResult``.
    """

    def __init__(self, method, name: str | None = None,
                 description: str = "") -> None:
        self.method = method
        self.name = name or method.method_name
        self.description = description

    def solve(self, image: Image,
              max_distortion: float) -> CompensationSolution:
        transform, beta = self.method.solve(image, max_distortion)
        return CompensationSolution(
            algorithm=self.name,
            transform=transform,
            backlight_factor=beta,
        )

    def apply_solution(self, solution: CompensationSolution, image: Image,
                       max_distortion: float | None = None,
                       ) -> CompensationResult:
        budget = float("nan") if max_distortion is None else max_distortion
        native = build_result(
            self.method.method_name, image, solution.transform,
            solution.backlight_factor, self.method.measure, budget,
            self.method.power_model)
        return _wrap_baseline(native, self.name, solution.transform)

    def _transform_at(self, image: Image, backlight_factor: float):
        if hasattr(self.method, "transform_for"):        # the DLS family
            return self.method.transform_for(backlight_factor)
        return self.method.band_for(image, backlight_factor)   # CBCS

    def at_backlight(self, image: Image, backlight_factor: float,
                     max_distortion: float | None = None,
                     ) -> CompensationResult:
        transform = self._transform_at(image, backlight_factor)
        budget = float("nan") if max_distortion is None else max_distortion
        native = build_result(
            self.method.method_name, image, transform, backlight_factor,
            self.method.measure, budget, self.method.power_model)
        return _wrap_baseline(native, self.name, transform)


class OLEDDarkenAlgorithm(CompensationAlgorithm):
    """Adapter exposing emissive-panel content darkening through the contract.

    The inverted optimization: no backlight to dim (``backlight_factor``
    stays 1.0), so the solution is a histogram-derived darkening LUT and the
    power figures come from the :class:`~repro.display.oled.OLEDModel`
    instead of the CCFL+panel pair.  Results carry the display-agnostic
    :class:`~repro.display.power.PowerBreakdown` with ``ccfl = 0`` — an
    emissive panel has no lamp — so they flow through the cache, the wire
    protocol and result equality unchanged; the native emissive/overhead
    split rides in ``details``.

    Parameters
    ----------
    darkener:
        A configured :class:`~repro.core.darken.ContentDarkener`; built
        from the keyword options when not given.
    equalization:
        Engine for the darkening family (``"ghe"`` or ``"clipped"``); only
        consulted when ``darkener`` is not given.
    measure, oled, min_range, safety_margin:
        Forwarded to the :class:`~repro.core.darken.ContentDarkener`
        constructor; only consulted when ``darkener`` is not given.
    name:
        Registry name to report in results (defaults per configuration).
    """

    display_class = "emissive"

    def __init__(self, darkener: ContentDarkener | None = None, *,
                 equalization: str = "ghe", measure: str = "effective",
                 oled=None, min_range: int = 16,
                 safety_margin: float | None = None,
                 name: str | None = None) -> None:
        if darkener is None:
            darkener = ContentDarkener(
                oled=oled, measure=measure, equalization=equalization,
                min_range=min_range, safety_margin=safety_margin)
        self.darkener = darkener
        if name is None:
            name = "oled-darken"
            if darkener.equalization != "ghe":
                name = f"oled-darken-{darkener.equalization}"
        self.name = name
        self.description = (
            "OLED content darkening via histogram equalization onto [0, R]")
        if darkener.equalization != "ghe":
            self.description = (
                f"OLED content darkening with {darkener.equalization} "
                f"equalization in the family")

    def _wrap(self, result: DarkenResult,
              max_distortion: float | None) -> CompensationResult:
        budget = result.max_distortion
        if max_distortion is not None:
            budget = max_distortion
        return CompensationResult(
            algorithm=self.name,
            original=result.original,
            output=result.output,
            backlight_factor=1.0,
            transform=result.transform,
            distortion=result.distortion,
            power=result.power.as_power_breakdown(),
            reference_power=result.reference_power.as_power_breakdown(),
            max_distortion=None if math.isnan(budget) else budget,
            driver_program=None,
            details=result,
        )

    def solve(self, image: Image,
              max_distortion: float) -> CompensationSolution:
        native = self.darkener.solve(image, max_distortion)
        return CompensationSolution(
            algorithm=self.name,
            transform=native.transform,
            backlight_factor=1.0,
            driver_program=None,
            details=native,
        )

    def apply_solution(self, solution: CompensationSolution, image: Image,
                       max_distortion: float | None = None,
                       ) -> CompensationResult:
        native = solution.details
        if not isinstance(native, DarkenSolution):
            raise TypeError(
                "solution was not produced by an OLED darkening algorithm")
        return self._wrap(self.darkener.apply_solution(native, image),
                          max_distortion)

    def at_backlight(self, image: Image, backlight_factor: float,
                     max_distortion: float | None = None,
                     ) -> CompensationResult:
        """Run at an externally imposed *target range* fraction.

        The emissive analogue of a fixed backlight factor: the dimming knob
        is the darkening range, so ``backlight_factor`` selects
        ``R = round(beta * (levels - 1))``.  This keeps the temporal filter
        of stream sessions meaningful for emissive panels: smoothing the
        factor smooths the aggressiveness of the darkening.
        """
        if not 0.0 < backlight_factor <= 1.0:
            raise ValueError(
                f"backlight_factor must be in (0, 1], got {backlight_factor}")
        grayscale = image.to_grayscale()
        levels = grayscale.levels
        target_range = int(np.clip(round(backlight_factor * (levels - 1)),
                                   1, levels - 1))
        budget = (float("nan") if max_distortion is None
                  else float(max_distortion))
        native = self.darkener.solve_range(grayscale, target_range,
                                           max_distortion=budget)
        result = self._wrap(self.darkener.apply_solution(native, grayscale),
                            max_distortion)
        # report the imposed knob position (the range fraction), honouring
        # the at_backlight contract; power is still billed on the darkened
        # pixels at full drive — there is no lamp to scale
        return replace(result, backlight_factor=float(backlight_factor))


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_REGISTRY: dict[
    str, tuple[Callable[..., CompensationAlgorithm], str, str]] = {}


def register(name: str, factory: Callable[..., CompensationAlgorithm],
             description: str = "", overwrite: bool = False,
             display_class: str = "backlit") -> None:
    """Register an algorithm factory under a public name.

    ``factory(**options)`` must return a :class:`CompensationAlgorithm`.
    ``display_class`` records which panel the technique drives
    (``"backlit"`` or ``"emissive"``) for tooling like ``repro algorithms``.
    Registering an existing name raises unless ``overwrite`` is set.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"algorithm {name!r} is already registered")
    if display_class not in ("backlit", "emissive"):
        raise ValueError(
            f"display_class must be 'backlit' or 'emissive', "
            f"got {display_class!r}")
    _REGISTRY[key] = (factory, description, display_class)


def create(name: str, **options) -> CompensationAlgorithm:
    """Instantiate a registered algorithm by name.

    ``options`` are forwarded to the factory (e.g. ``measure=``,
    ``pipeline=`` for the HEBS entries).
    """
    try:
        factory, _, _ = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None
    return factory(**options)


def available_algorithms() -> list[str]:
    """Sorted names of all registered algorithms."""
    return sorted(_REGISTRY)


def algorithm_descriptions() -> Mapping[str, str]:
    """Mapping of registered name to its one-line description."""
    return {name: _REGISTRY[name][1] for name in available_algorithms()}


def algorithm_display_classes() -> Mapping[str, str]:
    """Mapping of registered name to its display class
    (``"backlit"`` or ``"emissive"``)."""
    return {name: _REGISTRY[name][2] for name in available_algorithms()}


register(
    "hebs",
    lambda **options: HEBSAlgorithm(adaptive=False, name="hebs", **options),
    "HEBS via the global distortion characteristic curve (real-time flow)")
register(
    "hebs-adaptive",
    lambda **options: HEBSAlgorithm(adaptive=True, name="hebs-adaptive",
                                    **options),
    "HEBS with a per-image dynamic-range search (offline Table-1 flow)")
register(
    "hebs-clipped",
    lambda **options: HEBSAlgorithm(equalization="clipped",
                                    name="hebs-clipped", **options),
    "HEBS with contrast-limited (clipped) equalization in step 2")
register(
    "hebs-bbhe",
    lambda **options: HEBSAlgorithm(equalization="bbhe", name="hebs-bbhe",
                                    **options),
    "HEBS with brightness-preserving bi-histogram equalization in step 2")
register(
    "dls-brightness",
    lambda **options: BaselineAlgorithm(
        DLSBrightness(**options),
        description="DLS with brightness compensation (ref. [4], Eq. 2a)"),
    "DLS with brightness compensation (ref. [4], Eq. 2a)")
register(
    "dls-contrast",
    lambda **options: BaselineAlgorithm(
        DLSContrast(**options),
        description="DLS with contrast enhancement (ref. [4], Eq. 2b)"),
    "DLS with contrast enhancement (ref. [4], Eq. 2b)")
register(
    "cbcs",
    lambda **options: BaselineAlgorithm(
        CBCS(**options),
        description="CBCS single-band grayscale spreading (ref. [5])"),
    "CBCS single-band grayscale spreading (ref. [5])")
register(
    "oled-darken",
    lambda **options: OLEDDarkenAlgorithm(name="oled-darken", **options),
    "OLED content darkening via histogram equalization onto [0, R]",
    display_class="emissive")
register(
    "oled-darken-clipped",
    lambda **options: OLEDDarkenAlgorithm(equalization="clipped",
                                          name="oled-darken-clipped",
                                          **options),
    "OLED content darkening with clipped (contrast-limited) equalization",
    display_class="emissive")
