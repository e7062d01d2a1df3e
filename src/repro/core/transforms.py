"""Pixel transformation functions — the family shown in the paper's Fig. 2.

Every backlight-scaling technique boils down to a monotone pixel
transformation ``Phi(x, beta)`` applied while the backlight is dimmed to
``beta`` (Eq. 1b).  The paper surveys four shapes (Fig. 2) and HEBS adds a
fifth, the general piecewise-linear curve realized by the hierarchical
reference driver:

==========================  ===========================================
class                        paper reference
==========================  ===========================================
:class:`IdentityTransform`          Fig. 2a — no compensation
:class:`GrayscaleShiftTransform`    Fig. 2b — brightness compensation, Eq. (2a)
:class:`GrayscaleSpreadTransform`   Fig. 2c — contrast enhancement, Eq. (2b)
:class:`SingleBandSpreadTransform`  Fig. 2d — single-band spreading, Eq. (3)
:class:`PiecewiseLinearTransform`   Fig. 3  — k-band spreading (HEBS / PLC)
:class:`LUTTransform`               exact GHE transformation, Eq. (7)
==========================  ===========================================

All transforms operate on *normalized* pixel values ``x`` in ``[0, 1]`` and
saturate their output at 1 (the ``min(1, .)`` of Eq. 2) and at 0.  They can
be applied to scalars, arrays, or :class:`~repro.imaging.image.Image`
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.image import Image
from repro.imaging.ops import to_uint

__all__ = [
    "PixelTransform",
    "IdentityTransform",
    "GrayscaleShiftTransform",
    "GrayscaleSpreadTransform",
    "SingleBandSpreadTransform",
    "PiecewiseLinearTransform",
    "LUTTransform",
]


class PixelTransform:
    """Base class: a monotone map from normalized pixel values to same.

    Subclasses implement :meth:`evaluate` on float arrays in ``[0, 1]``; the
    base class provides clipping, image application and LUT export.
    """

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Raw transform of normalized values (before clipping)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Transformed value(s), clipped to ``[0, 1]``."""
        x_array = np.asarray(x, dtype=np.float64)
        result = np.clip(self.evaluate(np.clip(x_array, 0.0, 1.0)), 0.0, 1.0)
        return float(result) if np.isscalar(x) else result

    def apply(self, image: Image) -> Image:
        """Apply the transform to every pixel of ``image``.

        Evaluates the transform once per representable grayscale level and
        maps the pixels through the resulting look-up table.  Because every
        pixel value ``v`` equals ``grid[v]`` exactly, this is bit-identical
        to evaluating the transform per pixel while costing ``O(levels)``
        transform evaluations instead of ``O(H * W)``.
        """
        grid = np.arange(image.levels, dtype=np.float64) / image.max_level
        table = to_uint(np.asarray(self(grid)), image.bit_depth)
        return image.with_pixels(table[image.pixels])

    def lut(self, levels: int = 256) -> np.ndarray:
        """Integer look-up table with one output level per input level."""
        grid = np.linspace(0.0, 1.0, levels)
        return np.rint(np.asarray(self(grid)) * (levels - 1)).astype(np.int64)

    def is_monotone(self, levels: int = 256) -> bool:
        """Whether the transform is non-decreasing on the level grid."""
        grid = np.linspace(0.0, 1.0, levels)
        values = np.asarray(self(grid))
        return bool(np.all(np.diff(values) >= -1e-12))


@dataclass(frozen=True)
class IdentityTransform(PixelTransform):
    """``Phi(x) = x`` (Fig. 2a): display the image unmodified."""

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x.copy()


@dataclass(frozen=True)
class GrayscaleShiftTransform(PixelTransform):
    """Backlight dimming with brightness compensation (Fig. 2b, Eq. 2a).

    ``Phi(x, beta) = min(1, x + 1 - beta)``: every pixel is brightened by the
    luminance lost to dimming; bright pixels saturate.
    """

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x + (1.0 - self.beta)


@dataclass(frozen=True)
class GrayscaleSpreadTransform(PixelTransform):
    """Backlight dimming with contrast enhancement (Fig. 2c, Eq. 2b).

    ``Phi(x, beta) = min(1, x / beta)``: pixel values are scaled up so that
    the emitted luminance ``beta * t(x / beta)`` matches the original for all
    non-saturating pixels.
    """

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return x / self.beta


@dataclass(frozen=True)
class SingleBandSpreadTransform(PixelTransform):
    """Single-band grayscale spreading (Fig. 2d, Eq. 3) — ref. [5].

    Pixel values below ``g_low`` map to 0, values above ``g_high`` map to 1,
    and the band ``[g_low, g_high]`` is stretched linearly onto ``[0, 1]``.
    This is the most general transfer function the conventional single-band
    reference driver can realize.
    """

    g_low: float
    g_high: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.g_low < self.g_high <= 1.0:
            raise ValueError(
                f"need 0 <= g_low < g_high <= 1, got ({self.g_low}, {self.g_high})"
            )

    @classmethod
    def from_backlight_factor(cls, beta: float,
                              center: float = 0.5) -> "SingleBandSpreadTransform":
        """Band of width ``beta`` centred (as far as possible) on ``center``.

        Dimming to ``beta`` lets the driver stretch a band of normalized
        width ``beta`` onto the full range; this helper picks the band
        placement, defaulting to the middle of the grayscale range.
        """
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        if beta == 1.0:
            return cls(0.0, 1.0)
        low = min(max(center - beta / 2.0, 0.0), 1.0 - beta)
        return cls(low, low + beta)

    @property
    def slope(self) -> float:
        """Slope of the linear region (``c`` in Eq. 3)."""
        return 1.0 / (self.g_high - self.g_low)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return (x - self.g_low) / (self.g_high - self.g_low)


@dataclass(frozen=True)
class PiecewiseLinearTransform(PixelTransform):
    """A monotone piecewise-linear transform given by its breakpoints.

    This is the k-band grayscale-spreading function of Fig. 3: the form HEBS
    programs into the hierarchical reference driver after PLC.  Breakpoints
    are normalized coordinates; inputs outside ``[x[0], x[-1]]`` extrapolate
    with the first/last y value (flat extension).
    """

    x_breaks: tuple[float, ...]
    y_breaks: tuple[float, ...]

    def __post_init__(self) -> None:
        x = np.asarray(self.x_breaks, dtype=np.float64)
        y = np.asarray(self.y_breaks, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size < 2:
            raise ValueError("need matching 1-D breakpoint arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x breakpoints must be strictly increasing")
        if np.any(np.diff(y) < 0):
            raise ValueError("y breakpoints must be non-decreasing (monotone)")
        if x.min() < 0 or x.max() > 1 or y.min() < 0 or y.max() > 1:
            raise ValueError("breakpoints must lie in [0, 1]")
        object.__setattr__(self, "x_breaks", tuple(float(v) for v in x))
        object.__setattr__(self, "y_breaks", tuple(float(v) for v in y))

    @property
    def n_segments(self) -> int:
        """Number of linear segments."""
        return len(self.x_breaks) - 1

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.x_breaks, self.y_breaks)

    def slopes(self) -> np.ndarray:
        """Slope of every linear segment."""
        x = np.asarray(self.x_breaks)
        y = np.asarray(self.y_breaks)
        return np.diff(y) / np.diff(x)


@dataclass(frozen=True)
class LUTTransform(PixelTransform):
    """A transform defined by an explicit per-level look-up table.

    The exact GHE transformation of Eq. (7) has one output value per input
    grayscale level; this class wraps such a table so it can be applied,
    compared against its piecewise-linear coarsening, and exported.
    ``table[i]`` holds the *normalized* output for input level ``i``.
    """

    table: tuple[float, ...]

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 1 or table.size < 2:
            raise ValueError("LUT must be a 1-D array with >= 2 entries")
        if table.min() < 0 or table.max() > 1:
            raise ValueError("LUT entries must be normalized to [0, 1]")
        if np.any(np.diff(table) < -1e-12):
            raise ValueError("LUT must be non-decreasing (monotone transform)")
        object.__setattr__(self, "table", tuple(float(v) for v in table))

    @classmethod
    def _from_valid(cls, table: np.ndarray) -> "LUTTransform":
        """The LUT of a float64 array its caller built valid (1-D, at least
        two entries, normalized and non-decreasing), without re-checking it.
        Equal to ``LUTTransform(tuple(table))``."""
        lut = object.__new__(cls)
        object.__setattr__(lut, "table", tuple(table.tolist()))
        return lut

    @property
    def levels(self) -> int:
        """Number of input levels the table covers."""
        return len(self.table)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        grid = np.linspace(0.0, 1.0, self.levels)
        return np.interp(x, grid, np.asarray(self.table))
