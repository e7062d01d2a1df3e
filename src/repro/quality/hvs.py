"""A lightweight human-visual-system (HVS) weighting model.

The paper's distortion definition "takes into account both the pixel value
differences and a model of the human visual system" (Sec. 1), referencing the
HVS treatment of Pratt's *Digital Image Processing* (ref. [9]) and the
transform-then-compare methodology of ref. [6].  We implement the two
first-order HVS effects that matter for backlight scaling:

* **Luminance adaptation (Weber's law).**  The eye's sensitivity to an
  intensity error is roughly inversely proportional to the local background
  luminance: a 5-level error in a dark region is far more visible than in a
  bright region.  Backlight dimming primarily darkens bright regions, so a
  correct measure must not over-penalize errors there.
* **Contrast (activity) masking.**  Errors are less visible in busy, highly
  textured regions than in flat regions.  Histogram equalization re-bins
  intensity levels, which perturbs flat regions the least and textured
  regions the most — masking partially hides the latter.

:func:`perceptual_weight_map` combines both effects into a per-pixel weight
in ``(0, 1]`` that the effective-distortion measure
(:mod:`repro.quality.distortion`) uses to weight the local quality map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.image import Image

__all__ = ["HVSModel", "perceptual_weight_map"]


def _box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge replication (no external dependencies).

    Each pass is a running sum over the edge-padded axis: the window sum at
    ``j`` is ``csum[j + 2 * radius] - csum[j - 1]``, where the first window
    has no prefix to subtract.  The horizontal pass runs on the unpadded
    rows only; the vertical pass pads what it returns.
    """
    if radius <= 0:
        return values.copy()
    kernel = 2 * radius + 1
    # horizontal pass via cumulative sums
    csum = np.cumsum(np.pad(values, ((0, 0), (radius, radius)), mode="edge"),
                     axis=1)
    horizontal = np.empty(values.shape, dtype=np.float64)
    horizontal[:, 0] = csum[:, kernel - 1] - 0.0
    np.subtract(csum[:, kernel:], csum[:, :-kernel], out=horizontal[:, 1:])
    horizontal /= kernel
    # vertical pass
    csum = np.cumsum(np.pad(horizontal, ((radius, radius), (0, 0)),
                            mode="edge"), axis=0)
    vertical = np.empty(values.shape, dtype=np.float64)
    vertical[0] = csum[kernel - 1] - 0.0
    np.subtract(csum[kernel:], csum[:-kernel], out=vertical[1:])
    vertical /= kernel
    return vertical


@dataclass(frozen=True)
class HVSModel:
    """Parameters of the perceptual weighting model.

    Parameters
    ----------
    adaptation_strength:
        How strongly the weight decays with local background luminance
        (Weber adaptation).  0 disables luminance adaptation.
    masking_strength:
        How strongly the weight decays with local activity (texture
        masking).  0 disables contrast masking.
    neighborhood_radius:
        Radius (in pixels) of the box window used to estimate the local
        background luminance and local activity.
    floor:
        Lower bound of the weight so no region is ever considered entirely
        invisible.
    """

    adaptation_strength: float = 0.7
    masking_strength: float = 2.0
    neighborhood_radius: int = 4
    floor: float = 0.2

    def __post_init__(self) -> None:
        if self.adaptation_strength < 0 or self.masking_strength < 0:
            raise ValueError("model strengths must be non-negative")
        if self.neighborhood_radius < 1:
            raise ValueError("neighborhood_radius must be at least 1")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("floor must be in (0, 1]")

    # ------------------------------------------------------------------ #
    def background_luminance(self, image: Image) -> np.ndarray:
        """Local background luminance estimate in ``[0, 1]`` per pixel."""
        values = image.to_grayscale().as_float()
        return _box_blur(values, self.neighborhood_radius)

    def local_activity(self, image: Image) -> np.ndarray:
        """Local activity (texture) estimate in ``[0, 1]`` per pixel.

        Measured as the locally averaged absolute deviation from the local
        mean — a cheap stand-in for local contrast energy.
        """
        values = image.to_grayscale().as_float()
        return self._activity(values,
                              _box_blur(values, self.neighborhood_radius))

    def _activity(self, values: np.ndarray,
                  background: np.ndarray) -> np.ndarray:
        deviation = np.abs(values - background)
        return np.clip(_box_blur(deviation, self.neighborhood_radius) * 4.0,
                       0.0, 1.0)

    def weights(self, image: Image) -> np.ndarray:
        """Per-pixel perceptual weight in ``[floor, 1]``.

        High weight means an error at that pixel is highly visible (dark,
        flat regions); low weight means it is partially masked (bright or
        busy regions).
        """
        values = image.to_grayscale().as_float()
        luminance = _box_blur(values, self.neighborhood_radius)
        activity = self._activity(values, luminance)
        adaptation = 1.0 / (1.0 + self.adaptation_strength * luminance)
        masking = 1.0 / (1.0 + self.masking_strength * activity)
        weights = adaptation * masking
        # normalize so the most visible region has weight exactly 1
        weights = weights / weights.max()
        return np.clip(weights, self.floor, 1.0)


def perceptual_weight_map(image: Image,
                          model: HVSModel | None = None) -> np.ndarray:
    """Convenience wrapper returning :meth:`HVSModel.weights` for ``image``."""
    return (model or HVSModel()).weights(image)
