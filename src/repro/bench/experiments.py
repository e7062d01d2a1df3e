"""One callable per table / figure of the paper's evaluation (DESIGN.md §4).

Each function returns plain data structures (a :class:`~repro.analysis.reporting.Table`
or a dictionary of numpy series) and never prints or plots by itself; the
``benchmarks/`` tests wrap them with pytest-benchmark and assert the expected
shapes, and the ``examples/`` scripts render them for human consumption.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.analysis.regression import (
    fit_polynomial,
    fit_two_piece_linear,
)
from repro.analysis.reporting import Table
from repro.api.engine import Engine
from repro.api.registry import BaselineAlgorithm, HEBSAlgorithm
from repro.baselines.cbcs import CBCS
from repro.baselines.dls import DLSBrightness, DLSContrast
from repro.bench.suite import benchmark_images, default_curve, default_pipeline
from repro.core.distortion_curve import DEFAULT_RANGE_GRID, build_distortion_curve
from repro.core.equalization import equalize_histogram
from repro.core.pipeline import HEBS
from repro.core.plc import coarsen_transform, kband_spreading_function
from repro.core.transforms import (
    GrayscaleShiftTransform,
    GrayscaleSpreadTransform,
    IdentityTransform,
    SingleBandSpreadTransform,
)
from repro.display.ccfl import LP064V1_CCFL, simulate_ccfl_measurements
from repro.display.panel import LP064V1_PANEL, simulate_panel_measurements
from repro.imaging.image import Image
from repro.imaging.synthetic import TABLE1_DISPLAY_NAMES

__all__ = [
    "table1_power_saving",
    "figure2_transform_functions",
    "figure3_kband_function",
    "figure6a_ccfl_characterization",
    "figure6b_panel_characterization",
    "figure7_distortion_curve",
    "figure8_sample_transforms",
    "comparison_vs_baselines",
    "ablation_plc_segments",
    "ablation_distortion_measures",
    "ablation_equalization_methods",
    "interface_encoding_study",
]

#: The six sample images shown in Fig. 8 (a representative subset of Table 1).
FIGURE8_IMAGES: tuple[str, ...] = ("lena", "peppers", "baboon",
                                   "pout", "sail", "housea")


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #
def table1_power_saving(
    distortion_levels: Sequence[float] = (5.0, 10.0, 20.0),
    images: Mapping[str, Image] | None = None,
    pipeline: HEBS | None = None,
    adaptive: bool = True,
) -> Table:
    """Table 1: power saving per benchmark image at several distortion budgets.

    Returns a table with one row per image plus an ``Average`` row; columns
    are ``image`` and one ``saving@D%`` column per distortion level.

    ``adaptive=True`` (the default) selects the dynamic range per image by
    a search on the measured distortion — the offline selection implied by
    the per-image spread of the paper's Table 1.  ``adaptive=False`` uses the
    global characteristic curve (the real-time flow of Fig. 4), in which case
    every image gets the same dynamic range for a given budget.
    """
    images = images if images is not None else benchmark_images()
    pipeline = pipeline or default_pipeline()
    engine = Engine(HEBSAlgorithm(pipeline, adaptive=adaptive))

    columns = ["image"] + [f"saving@{level:g}%" for level in distortion_levels]
    table = Table(
        title="Table 1 - Power saving (%) for different distortion levels",
        columns=tuple(columns),
    )

    per_level_totals = {level: [] for level in distortion_levels}
    rows = []
    for name, image in images.items():
        row: dict[str, object] = {
            "image": TABLE1_DISPLAY_NAMES.get(name, name)}
        for level in distortion_levels:
            saving = engine.process(image, level).power_saving_percent
            row[f"saving@{level:g}%"] = saving
            per_level_totals[level].append(saving)
        rows.append(row)

    average_row: dict[str, object] = {"image": "Average"}
    for level in distortion_levels:
        average_row[f"saving@{level:g}%"] = float(
            np.mean(per_level_totals[level]))
    rows.append(average_row)
    return table.with_rows(rows)


# --------------------------------------------------------------------- #
# Figure 2
# --------------------------------------------------------------------- #
def figure2_transform_functions(beta: float = 0.6,
                                n_points: int = 256) -> dict[str, np.ndarray]:
    """Fig. 2: the four pixel-transformation-function shapes.

    Returns the normalized input grid ``x`` and one output series per
    sub-figure: identity (2a), grayscale shift (2b), grayscale spreading
    (2c) and single-band grayscale spreading (2d, band centred on mid-gray).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    x = np.linspace(0.0, 1.0, n_points)
    band = SingleBandSpreadTransform.from_backlight_factor(beta, center=0.5)
    return {
        "x": x,
        "identity": np.asarray(IdentityTransform()(x)),
        "grayscale_shift": np.asarray(GrayscaleShiftTransform(beta)(x)),
        "grayscale_spreading": np.asarray(GrayscaleSpreadTransform(beta)(x)),
        "single_band_spreading": np.asarray(band(x)),
        "beta": np.array([beta]),
    }


# --------------------------------------------------------------------- #
# Figure 3
# --------------------------------------------------------------------- #
def figure3_kband_function(image_name: str = "lena", target_range: int = 128,
                           n_segments: int = 4) -> dict[str, np.ndarray]:
    """Fig. 3: the k-window grayscale spreading function produced by PLC.

    Runs GHE on one benchmark image, coarsens the exact transformation to
    ``n_segments`` segments and returns both curves (exact and coarsened) so
    the k-band structure — multiple slopes with flat bands — is visible.
    """
    image = benchmark_images(names=(image_name,))[image_name.lower()]
    ghe = equalize_histogram(image, 0, target_range)
    coarse = coarsen_transform(ghe.transform, n_segments)
    transform = kband_spreading_function(coarse, levels=image.levels)

    levels = np.arange(image.levels, dtype=np.float64)
    return {
        "levels": levels,
        "exact": np.asarray(ghe.transform.table) * (image.levels - 1),
        "coarse": np.asarray(coarse(levels)),
        "breakpoints_x": np.asarray(coarse.x),
        "breakpoints_y": np.asarray(coarse.y),
        "slopes": transform.slopes(),
        "plc_mse": np.array([coarse.mean_squared_error]),
    }


# --------------------------------------------------------------------- #
# Figure 6a / 6b
# --------------------------------------------------------------------- #
def figure6a_ccfl_characterization(n_points: int = 25,
                                   seed: int = 2005) -> dict[str, object]:
    """Fig. 6a: CCFL illuminance versus driver power, with the two-piece fit.

    Simulates the LP064V1 measurement, re-fits the two-piece linear model of
    Eq. (11) and reports both the fitted and the paper's coefficients.
    """
    power, illuminance = simulate_ccfl_measurements(n_points=n_points, seed=seed)
    # Eq. (11) expresses power as a function of the backlight factor, so the
    # fit is done on (illuminance -> power).
    fit = fit_two_piece_linear(illuminance, power)
    return {
        "power": power,
        "illuminance": illuminance,
        "fit": fit,
        "fitted": {
            "Cs": fit.knee,
            "Alin": fit.lower.slope,
            "Clin": fit.lower.intercept,
            "Asat": fit.upper.slope,
            "Csat": fit.upper.intercept,
        },
        "paper": {
            "Cs": LP064V1_CCFL.saturation_knee,
            "Alin": LP064V1_CCFL.linear_slope,
            "Clin": LP064V1_CCFL.linear_intercept,
            "Asat": LP064V1_CCFL.saturated_slope,
            "Csat": LP064V1_CCFL.saturated_intercept,
        },
    }


def figure6b_panel_characterization(n_points: int = 20,
                                    seed: int = 1996) -> dict[str, object]:
    """Fig. 6b: panel power versus transmittance, with the quadratic fit.

    Simulates the LP064V1 panel measurement, re-fits the quadratic model of
    Eq. (12) and reports fitted versus paper coefficients.
    """
    transmittance, power = simulate_panel_measurements(n_points=n_points,
                                                       seed=seed)
    fit = fit_polynomial(transmittance, power, degree=2)
    constant, linear, quadratic = fit.coefficients
    return {
        "transmittance": transmittance,
        "power": power,
        "fit": fit,
        "fitted": {"a": quadratic, "b": linear, "c": constant},
        "paper": {
            "a": LP064V1_PANEL.quadratic,
            "b": -LP064V1_PANEL.linear,
            "c": LP064V1_PANEL.constant,
        },
    }


# --------------------------------------------------------------------- #
# Figure 7
# --------------------------------------------------------------------- #
def figure7_distortion_curve(
    images: Mapping[str, Image] | None = None,
    target_ranges: Sequence[int] = DEFAULT_RANGE_GRID,
    measure: str = "effective",
) -> dict[str, object]:
    """Fig. 7: distortion versus dynamic range with dataset and worst-case fits.

    Returns the raw sweep samples plus the two fitted curves evaluated on a
    dense range grid (the series a plot of Fig. 7 would show).
    """
    if images is None and tuple(target_ranges) == DEFAULT_RANGE_GRID and \
            measure == "effective":
        curve = default_curve(measure=measure)
    else:
        curve = build_distortion_curve(
            images if images is not None else benchmark_images(),
            target_ranges=target_ranges, measure=measure)

    sample_ranges, sample_distortions = curve.sample_arrays()
    dense = np.linspace(min(target_ranges), max(target_ranges), 101)
    return {
        "curve": curve,
        "sample_ranges": sample_ranges,
        "sample_distortions": sample_distortions,
        "fit_ranges": dense,
        "dataset_fit": np.asarray(curve.predict(dense, worst_case=False)),
        "worstcase_fit": np.asarray(curve.predict(dense, worst_case=True)),
    }


# --------------------------------------------------------------------- #
# Figure 8
# --------------------------------------------------------------------- #
def figure8_sample_transforms(
    target_ranges: Sequence[int] = (220, 100),
    image_names: Sequence[str] = FIGURE8_IMAGES,
    pipeline: HEBS | None = None,
) -> Table:
    """Fig. 8: per-image distortion and power saving at fixed dynamic ranges.

    The paper shows six sample images transformed to dynamic ranges 220 and
    100, annotating each with its distortion and power saving.  Returns a
    table with one row per (image, range) pair.
    """
    pipeline = pipeline or default_pipeline()
    images = benchmark_images(names=tuple(image_names))
    table = Table(
        title="Figure 8 - Sample images at fixed dynamic ranges",
        columns=("image", "dynamic_range", "distortion%", "power_saving%",
                 "backlight_factor"),
    )
    rows = []
    for name, image in images.items():
        for target_range in target_ranges:
            result = pipeline.process_with_range(image, int(target_range))
            rows.append({
                "image": TABLE1_DISPLAY_NAMES.get(name, name),
                "dynamic_range": int(target_range),
                "distortion%": result.distortion,
                "power_saving%": result.power_saving_percent,
                "backlight_factor": result.backlight_factor,
            })
    return table.with_rows(rows)


# --------------------------------------------------------------------- #
# Comparison against the prior techniques (the "+15%" claim)
# --------------------------------------------------------------------- #
def comparison_vs_baselines(
    max_distortion: float = 10.0,
    images: Mapping[str, Image] | None = None,
    pipeline: HEBS | None = None,
    measure: str = "effective",
) -> Table:
    """HEBS versus DLS [4] and CBCS [5] at a matched distortion budget.

    All methods are constrained by the same distortion measure and budget;
    the table reports the mean power saving and mean backlight factor of
    each method over the image set, plus HEBS's advantage in percentage
    points (the paper claims roughly +15 pp over the best prior technique at
    a 10% budget).
    """
    images = images if images is not None else benchmark_images()
    pipeline = pipeline or default_pipeline(measure=measure)
    engine = Engine()
    methods = {
        "hebs": HEBSAlgorithm(pipeline, adaptive=True, name="hebs"),
        "dls-brightness": BaselineAlgorithm(DLSBrightness(measure=measure)),
        "dls-contrast": BaselineAlgorithm(DLSContrast(measure=measure)),
        "cbcs": BaselineAlgorithm(CBCS(measure=measure)),
    }

    savings: dict[str, list[float]] = {name: [] for name in methods}
    factors: dict[str, list[float]] = {name: [] for name in methods}
    distortions: dict[str, list[float]] = {name: [] for name in methods}

    for image in images.values():
        for name, method in methods.items():
            result = engine.process(image, max_distortion, algorithm=method)
            savings[name].append(result.power_saving_percent)
            factors[name].append(result.backlight_factor)
            distortions[name].append(result.distortion)

    best_baseline = max(
        float(np.mean(savings[name])) for name in methods if name != "hebs")
    table = Table(
        title=(f"HEBS vs prior techniques at {max_distortion:g}% distortion "
               f"({measure} measure)"),
        columns=("method", "mean_saving%", "mean_backlight", "mean_distortion%",
                 "advantage_pp"),
    )
    rows = []
    for name in methods:
        mean_saving = float(np.mean(savings[name]))
        rows.append({
            "method": name,
            "mean_saving%": mean_saving,
            "mean_backlight": float(np.mean(factors[name])),
            "mean_distortion%": float(np.mean(distortions[name])),
            "advantage_pp": (mean_saving - best_baseline) if name == "hebs"
            else 0.0,
        })
    return table.with_rows(rows)


# --------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------- #
def ablation_plc_segments(
    image_name: str = "lena",
    target_range: int = 128,
    segment_counts: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
) -> Table:
    """Ablation: PLC segment count versus approximation error and distortion.

    Quantifies the Sec. 4.1 design trade-off: few segments are cheap in
    hardware (few controllable sources) but approximate the exact GHE
    transformation poorly.
    """
    image = benchmark_images(names=(image_name,))[image_name.lower()]
    pipeline = default_pipeline()
    table = Table(
        title=(f"PLC segment-count ablation on {image_name!r} "
               f"(dynamic range {target_range})"),
        columns=("segments", "plc_mse", "distortion%", "power_saving%"),
        precision=4,
    )
    rows = []
    for count in segment_counts:
        variant = pipeline.with_config(n_segments=int(count),
                                       driver_sources=max(int(count), 2))
        result = variant.process_with_range(image, target_range)
        rows.append({
            "segments": int(count),
            "plc_mse": result.coarse_curve.mean_squared_error,
            "distortion%": result.distortion,
            "power_saving%": result.power_saving_percent,
        })
    return table.with_rows(rows)


def ablation_equalization_methods(
    target_range: int = 150,
    image_names: Sequence[str] = ("lena", "peppers", "baboon", "pout"),
    n_segments: int = 8,
) -> Table:
    """Ablation: GHE versus the alternative equalization methods (Sec. 6).

    For a fixed target dynamic range, compares plain GHE against clipped
    (contrast-limited) equalization and bi-histogram equalization: achieved
    distortion, the flatness of the resulting histogram (the Eq. 4 objective)
    and the mean-brightness shift.  The power saving is identical by
    construction (it only depends on the target range), so the comparison is
    purely about image quality.
    """
    from repro.core.equalization_variants import get_equalizer
    from repro.core.plc import coarsen_transform, kband_spreading_function
    from repro.quality.distortion import effective_distortion

    images = benchmark_images(names=tuple(image_names))
    table = Table(
        title=(f"Equalization-method ablation at dynamic range {target_range}"),
        columns=("method", "mean_distortion%", "mean_objective",
                 "mean_brightness_shift"),
        precision=3,
    )
    rows = []
    for method in ("ghe", "clipped", "bbhe"):
        equalizer = get_equalizer(method)
        distortions = []
        objectives = []
        shifts = []
        for image in images.values():
            result = equalizer(image, 0, target_range)
            coarse = coarsen_transform(result.transform, n_segments)
            transform = kband_spreading_function(coarse, levels=image.levels)
            transformed = transform.apply(image)
            distortions.append(effective_distortion(image, transformed))
            objectives.append(result.objective)
            shifts.append(abs(transformed.mean() / target_range
                              - image.mean() / (image.levels - 1)))
        rows.append({
            "method": method,
            "mean_distortion%": float(np.mean(distortions)),
            "mean_objective": float(np.mean(objectives)),
            "mean_brightness_shift": float(np.mean(shifts)),
        })
    return table.with_rows(rows)


def interface_encoding_study(
    image_names: Sequence[str] = ("lena", "baboon", "pout", "testpat"),
    pipeline: HEBS | None = None,
    target_range: int = 150,
) -> Table:
    """Study: video-bus encodings with and without HEBS (Sec. 1, refs. [2][3]).

    The paper's introduction splits LCD power work into interface-encoding
    techniques and backlight-scaling techniques.  This study shows they
    compose: for each benchmark the bus transition count is reported for the
    original and the HEBS-transformed frame under the binary, Gray and
    bus-invert encodings, together with the display power with and without
    backlight scaling.
    """
    from repro.display.interface import VideoBusModel

    pipeline = pipeline or default_pipeline()
    images = benchmark_images(names=tuple(image_names))
    encodings = ("binary", "gray", "bus-invert")
    models = {name: VideoBusModel(encoding=name) for name in encodings}

    table = Table(
        title="Bus-encoding x backlight-scaling study (per-frame energy, "
              "normalized units)",
        columns=("image", "variant", "binary", "gray", "bus-invert",
                 "display_power"),
        precision=4,
    )
    rows = []
    for name, image in images.items():
        result = pipeline.process_with_range(image, target_range)
        for variant, frame, display_power in (
            ("original", image.to_grayscale(),
             result.reference_power.total),
            ("hebs", result.transformed, result.power.total),
        ):
            row = {
                "image": TABLE1_DISPLAY_NAMES.get(name, name),
                "variant": variant,
                "display_power": display_power,
            }
            for encoding in encodings:
                row[encoding] = models[encoding].frame_energy(frame)
            rows.append(row)
    return table.with_rows(rows)


def ablation_distortion_measures(
    measures: Sequence[str] = ("effective", "uqi", "ssim", "rmse"),
    max_distortion: float = 10.0,
    image_names: Sequence[str] = ("lena", "peppers", "baboon", "pout"),
) -> Table:
    """Ablation: how the choice of distortion measure changes the outcome.

    Re-characterizes the distortion curve with each measure and reports the
    dynamic range / power saving the pipeline then selects for the same
    nominal budget.  (Sec. 6 lists "alternative distortion measures" as
    future work.)
    """
    images = benchmark_images(names=tuple(image_names))
    table = Table(
        title=f"Distortion-measure ablation at a {max_distortion:g}% budget",
        columns=("measure", "selected_range", "mean_backlight",
                 "mean_saving%"),
    )
    rows = []
    for measure in measures:
        curve = build_distortion_curve(benchmark_images(), measure=measure)
        pipeline = HEBS(curve)
        selected_range = pipeline.select_range(max_distortion)
        results = [pipeline.process(image, max_distortion)
                   for image in images.values()]
        rows.append({
            "measure": measure,
            "selected_range": selected_range,
            "mean_backlight": float(np.mean(
                [r.backlight_factor for r in results])),
            "mean_saving%": float(np.mean(
                [r.power_saving_percent for r in results])),
        })
    return table.with_rows(rows)
