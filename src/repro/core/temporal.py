"""Temporal (video) backlight control on top of the per-frame HEBS pipeline.

The paper evaluates stills; its predecessor DLS [4] targets video, where two
extra concerns appear:

* **Flicker.**  The backlight factor must not jump between consecutive
  frames; abrupt luminance steps are far more visible than a static
  luminance error.  :class:`BacklightSmoother` applies exponential smoothing
  plus a slew-rate limit to the per-frame target factors.
* **Per-frame cost.**  Recomputing the full histogram for every frame is
  wasteful when consecutive frames are similar.  :class:`RollingHistogram`
  maintains an exponentially weighted histogram that can be updated cheaply
  and re-used until a scene change; :class:`SceneChangeDetector` flags when
  the histogram moved enough that the transformation must be re-derived.

:class:`TemporalBacklightController` glues the three pieces to a
:class:`~repro.core.pipeline.HEBS` pipeline: feed it frames, get back
per-frame results whose backlight factors are smooth and whose pixel
transformations are only re-derived when the content actually changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.histogram import Histogram
from repro.core.pipeline import HEBS, HEBSResult
from repro.imaging.image import Image

__all__ = [
    "BacklightSmoother",
    "RollingHistogram",
    "SceneChangeDetector",
    "TemporalBacklightController",
    "TemporalFrameResult",
]


@dataclass
class BacklightSmoother:
    """Exponential smoothing + slew-rate limiting of the backlight factor.

    Parameters
    ----------
    smoothing:
        Weight of the new target in the exponential update (1 = no
        smoothing, small values react slowly).
    max_step:
        Largest allowed change of the backlight factor between consecutive
        frames (the flicker limit).
    initial:
        Backlight factor before the first frame (1.0 = full backlight).
    """

    smoothing: float = 0.5
    max_step: float = 0.05
    initial: float = 1.0
    _current: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 < self.max_step <= 1.0:
            raise ValueError("max_step must be in (0, 1]")
        if not 0.0 < self.initial <= 1.0:
            raise ValueError("initial must be in (0, 1]")
        self._current = float(self.initial)

    @property
    def current(self) -> float:
        """The backlight factor currently applied."""
        return self._current

    def update(self, target: float) -> float:
        """Advance one frame towards ``target`` and return the applied factor."""
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target}")
        blended = (1.0 - self.smoothing) * self._current + self.smoothing * target
        limited = float(np.clip(blended, self._current - self.max_step,
                                self._current + self.max_step))
        self._current = float(np.clip(limited, 0.0, 1.0))
        return self._current

    def reset(self, value: float | None = None) -> None:
        """Jump immediately to ``value`` (or the initial factor)."""
        self._current = float(self.initial if value is None else value)

    def reset_within_limit(self, value: float,
                           reference: float | None = None) -> bool:
        """A guarded :meth:`reset`: jump to ``value`` only when it honors
        the flicker bound — within ``max_step`` of ``reference`` (the
        current factor when omitted).  Returns whether the jump was taken;
        on rejection the state is unchanged."""
        anchor = self._current if reference is None else float(reference)
        if abs(value - anchor) > self.max_step + 1e-12:
            return False
        self._current = float(value)
        return True


@dataclass
class RollingHistogram:
    """Exponentially weighted histogram over a frame stream.

    ``update`` folds a new frame's histogram into the running estimate with
    weight ``alpha``; the running estimate is what the GHE transformation is
    derived from, so a single noisy frame cannot yank the transfer function
    around.
    """

    levels: int = 256
    alpha: float = 0.3
    _weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError("levels must be at least 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def is_empty(self) -> bool:
        """Whether no frame has been folded in yet."""
        return self._weights is None

    def update(self, frame: Image) -> Histogram:
        """Fold ``frame`` into the rolling estimate and return it."""
        histogram = Histogram.of_image(frame)
        if histogram.levels != self.levels:
            raise ValueError(
                f"frame has {histogram.levels} levels, expected {self.levels}")
        fresh = histogram.counts.astype(np.float64)
        if self._weights is None:
            self._weights = fresh
        else:
            self._weights = (1.0 - self.alpha) * self._weights + self.alpha * fresh
        return self.current()

    def current(self) -> Histogram:
        """The rolling histogram as an integer-count :class:`Histogram`."""
        if self._weights is None:
            raise RuntimeError("no frame has been observed yet")
        counts = np.rint(self._weights).astype(np.int64)
        if counts.sum() == 0:
            counts[int(np.argmax(self._weights))] = 1
        return Histogram(counts)

    def reset(self) -> None:
        """Forget all history."""
        self._weights = None


@dataclass
class SceneChangeDetector:
    """Flags frames whose histogram moved far from the rolling estimate.

    The distance is the normalized L1 histogram distance (0..1); a scene
    change resets the rolling histogram and forces a re-derivation of the
    pixel transformation.
    """

    threshold: float = 0.25
    _previous: Histogram | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")

    def observe(self, frame: Image) -> bool:
        """Return True when ``frame`` starts a new scene."""
        histogram = Histogram.of_image(frame)
        if self._previous is None:
            self._previous = histogram
            return True
        distance = histogram.l1_distance(self._previous)
        self._previous = histogram
        return distance > self.threshold

    def reset(self) -> None:
        """Forget the previous frame."""
        self._previous = None


@dataclass(frozen=True)
class TemporalFrameResult:
    """Per-frame outcome of the temporal controller.

    Attributes
    ----------
    result:
        The HEBS result actually applied to the frame (derived at the
        smoothed backlight factor's dynamic range).
    requested_backlight:
        The backlight factor the per-frame policy asked for before smoothing.
    applied_backlight:
        The smoothed, slew-limited factor actually programmed.
    scene_change:
        Whether this frame was detected as a scene change (transformation
        re-derived from scratch).
    """

    result: HEBSResult
    requested_backlight: float
    applied_backlight: float
    scene_change: bool


class TemporalBacklightController:
    """Drive a HEBS pipeline over a frame stream without flicker.

    Parameters
    ----------
    pipeline:
        The per-frame HEBS pipeline.
    max_distortion:
        Distortion budget applied to every frame.
    smoother:
        Backlight smoothing policy (defaults to 0.5 smoothing, 0.05 max step).
    scene_detector:
        Scene-change detector (defaults to an L1 threshold of 0.25).
    adaptive:
        Whether the per-frame range selection bisects on the measured
        distortion (slower, tighter) or uses the characteristic curve.
    """

    def __init__(self, pipeline: HEBS, max_distortion: float,
                 smoother: BacklightSmoother | None = None,
                 scene_detector: SceneChangeDetector | None = None,
                 adaptive: bool = True) -> None:
        if max_distortion < 0:
            raise ValueError("max_distortion must be non-negative")
        self.pipeline = pipeline
        self.max_distortion = float(max_distortion)
        self.smoother = smoother or BacklightSmoother()
        self.scene_detector = scene_detector or SceneChangeDetector()
        self.adaptive = bool(adaptive)
        self._history: list[TemporalFrameResult] = []

    @property
    def history(self) -> tuple[TemporalFrameResult, ...]:
        """All frame results processed so far, in order."""
        return tuple(self._history)

    def submit(self, frame: Image) -> TemporalFrameResult:
        """Process one frame and return the (smoothed) result."""
        grayscale = frame.to_grayscale()
        scene_change = self.scene_detector.observe(grayscale)

        if self.adaptive:
            raw = self.pipeline.process_adaptive(grayscale, self.max_distortion)
        else:
            raw = self.pipeline.process(grayscale, self.max_distortion)
        requested = raw.backlight_factor

        applied = self.smoother.update(requested)
        # Re-derive the transformation for the dynamic range the *smoothed*
        # factor supports.  When smoothing keeps the backlight brighter than
        # requested the larger range only reduces distortion; when it keeps
        # the backlight dimmer (slewing towards a brighter scene) the budget
        # may transiently be exceeded — the flicker constraint wins, which is
        # the whole point of smoothing.
        target_range = self.pipeline.range_for_backlight_factor(applied)
        adjusted = self.pipeline.process_with_range(grayscale, target_range,
                                                    max_distortion=self.max_distortion)

        outcome = TemporalFrameResult(
            result=adjusted,
            requested_backlight=requested,
            applied_backlight=adjusted.backlight_factor,
            scene_change=scene_change,
        )
        self._history.append(outcome)
        return outcome

    def backlight_trace(self) -> np.ndarray:
        """The applied backlight factor of every processed frame."""
        return np.array([frame.applied_backlight for frame in self._history])

    def worst_step(self) -> float:
        """Largest frame-to-frame change of the applied backlight factor."""
        trace = self.backlight_trace()
        if trace.size < 2:
            return 0.0
        return float(np.abs(np.diff(trace)).max())

    def energy(self, seconds_per_frame: float = 1.0 / 30.0) -> float:
        """Total display energy of the processed stream (normalized units)."""
        return float(sum(frame.result.power.total for frame in self._history)
                     * seconds_per_frame)

    def reference_energy(self, seconds_per_frame: float = 1.0 / 30.0) -> float:
        """Energy of the same stream at full backlight, no transformation."""
        return float(sum(frame.result.reference_power.total
                         for frame in self._history) * seconds_per_frame)

    def energy_saving_percent(self) -> float:
        """Percent energy saving of the processed stream."""
        reference = self.reference_energy()
        if reference <= 0:
            return 0.0
        return 100.0 * (1.0 - self.energy() / reference)
