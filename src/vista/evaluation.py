"""Held-out-pixel error metrics and multi-model comparison reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .io import write_table

# Two-sided 95% normal quantile, used for the margin error bars.
Z95 = 1.959963984540054
# Margins and win counts are taken against BASELINE, loss counts against FULL_MODEL.
BASELINE = "soft"
FULL_MODEL = "full"


# numpy's pairwise sums add in one order at any thread count, unlike BLAS's dot.
@np.errstate(over="ignore")
def _truth_norm(truth_values: np.ndarray, what: str = "the truth"):
    denom = math.sqrt(np.add.reduce(np.square(truth_values)))
    if denom == 0.0:
        raise ValueError("truth is zero on the evaluation mask")
    if not math.isfinite(denom):
        raise ValueError(f"{what} is not finite on the evaluation mask")
    return denom


@np.errstate(over="ignore")
def _scores(truth_values: np.ndarray, imputed_values: np.ndarray, truth_norm, what: str) -> tuple:
    """(RSE in percent, MSE) of gathered pixels from one residual; a non-finite RSE is an error."""
    squares = float(np.add.reduce(np.square(imputed_values - truth_values)))
    score = 100.0 * (math.sqrt(squares) / truth_norm)
    if not math.isfinite(score):
        raise ValueError(f"{what} is not finite on the evaluation mask")
    return score, squares / truth_values.size


def rse(truth: np.ndarray, imputed: np.ndarray, eval_mask: np.ndarray) -> float:
    """Relative squared error on the evaluation pixels, in percent.

    Frobenius norm of the masked residual over the Frobenius norm of the
    masked truth, times 100. A non-finite value on the mask is an error.
    """
    truth = np.asarray(truth, dtype=float)
    imputed = np.asarray(imputed, dtype=float)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if truth.shape != imputed.shape or truth.shape != eval_mask.shape:
        raise ValueError("truth, imputation, and mask shapes must match")
    pixels = np.flatnonzero(eval_mask)
    if not pixels.size:
        raise ValueError("evaluation mask is empty")
    truth_values = truth.take(pixels)
    return _scores(truth_values, imputed.take(pixels), _truth_norm(truth_values),
                   "the imputation")[0]


def margin_confidence(margins: np.ndarray) -> tuple:
    """Mean margin with its 95% normal-approximation interval over frames."""
    margins = np.asarray(margins, dtype=float)
    center = float(margins.mean())
    if margins.size < 2:
        return center, center, center
    half = Z95 * float(margins.std(ddof=1)) / np.sqrt(margins.size)
    return center, center - half, center + half


@dataclass
class EvalReport:
    """Per-frame and aggregate metrics for a set of models on shared eval masks."""

    models: list
    frame_rse: dict = field(default_factory=dict)
    frame_mse: dict = field(default_factory=dict)
    mean_rse: dict = field(default_factory=dict)
    mean_mse: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    margin_ci: dict = field(default_factory=dict)  # name -> (mean, lo, hi)
    better_than_baseline: dict = field(default_factory=dict)
    worse_than_full: dict = field(default_factory=dict)


def compare_models(results: dict, truth, eval_masks) -> EvalReport:
    """Score every model on identical evaluation masks.

    ``results`` maps model name to its (T, m, n) imputation. Each input,
    the truth and the (boolean) masks included, is anything with a
    ``shape`` that iterates frame by frame: a (T, m, n) array, or an
    ``io.FrameReader`` (a mask reader opened with ``check="mask"``). Shapes
    are checked before any frame is read, and then all inputs are read
    together, one frame at a time.
    Margins are taken against the ``BASELINE`` model (positive means better
    than the baseline); ties count as "not better". Win counts against the
    baseline and loss counts against ``FULL_MODEL`` are only filled in when
    those models are present; a non-finite value on the masks is an error.
    """
    if truth.shape != eval_masks.shape:
        raise ValueError("truth and evaluation masks must share one shape")
    report = EvalReport(models=list(results))
    T = truth.shape[0]
    for name, frames in results.items():
        if frames.shape != truth.shape:
            raise ValueError(f"model {name!r} frames have shape {frames.shape}, "
                             f"expected {truth.shape}")
        report.frame_rse[name] = np.empty(T)
        report.frame_mse[name] = np.empty(T)
    # One pass over the frames: each frame's evaluation pixels are located
    # once and the truth there is scored against every model. Flat indices
    # gather faster than a boolean mask, in the same order.
    for t, (truth_frame, mask, *model_frames) in enumerate(
            zip(truth, eval_masks, *results.values())):
        pixels = np.flatnonzero(mask)
        if not pixels.size:
            raise ValueError(f"evaluation mask is empty at frame {t}")
        truth_values = truth_frame.take(pixels)
        truth_norm = _truth_norm(truth_values, f"frame {t} of the truth")
        for name, frame in zip(results, model_frames):
            report.frame_rse[name][t], report.frame_mse[name][t] = _scores(
                truth_values, frame.take(pixels), truth_norm, f"frame {t} of model {name!r}")
    for name in results:
        report.mean_rse[name] = float(report.frame_rse[name].mean())
        report.mean_mse[name] = float(report.frame_mse[name].mean())
    if BASELINE in results:
        base = report.frame_rse[BASELINE]
        for name in results:
            margins = base - report.frame_rse[name]
            report.margins[name] = margins
            report.margin_ci[name] = margin_confidence(margins)
            report.better_than_baseline[name] = int(np.count_nonzero(margins > 0))
    if FULL_MODEL in results:
        full = report.frame_rse[FULL_MODEL]
        for name in results:
            report.worse_than_full[name] = int(
                np.count_nonzero(report.frame_rse[name] > full))
    return report


def write_frame_metrics(path, report: EvalReport) -> None:
    """One CSV row per (model, frame): model, t, rse_pct, mse."""
    write_table(path, ["model", "t", "rse_pct", "mse"], (
        [name, t, format(r, ".17g"), format(e, ".17g")] for name in report.models
        for t, (r, e) in enumerate(zip(report.frame_rse[name], report.frame_mse[name]))))


def write_summary(path, report: EvalReport) -> None:
    """One CSV row per model with aggregate metrics and win/loss counts."""
    write_table(path, ["model", "rse_pct", "mse", "better_than_baseline", "worse_than_full"], (
        [name, format(report.mean_rse[name], ".17g"), format(report.mean_mse[name], ".17g"),
         report.better_than_baseline.get(name, ""), report.worse_than_full.get(name, "")]
        for name in report.models))


def write_margins(path, report: EvalReport, level: str = "") -> None:
    """Plot-ready margins vs the baseline: model, level, mean, ci_lo, ci_hi."""
    write_table(path, ["model", "level", "margin_mean", "ci_lo", "ci_hi"], (
        [name, level, *(format(v, ".17g") for v in report.margin_ci[name])]
        for name in report.models if name != BASELINE and name in report.margin_ci))
