"""Held-out-pixel error metrics and multi-model comparison reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# Two-sided 95% normal quantile, used for the margin error bars.
Z95 = 1.959963984540054
# Margins and win counts are taken against BASELINE, loss counts against FULL_MODEL.
BASELINE = "soft"
FULL_MODEL = "full"


def _gather(truth, imputed, eval_mask) -> tuple:
    """The evaluation pixels of truth and imputation, after the shape and empty-mask checks."""
    truth = np.asarray(truth, dtype=float)
    imputed = np.asarray(imputed, dtype=float)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if truth.shape != imputed.shape or truth.shape != eval_mask.shape:
        raise ValueError("truth, imputation, and mask shapes must match")
    pixels = np.flatnonzero(eval_mask)
    if not pixels.size:
        raise ValueError("evaluation mask is empty")
    return truth.take(pixels), imputed.take(pixels)


def _truth_norm(truth_values: np.ndarray):
    denom = np.linalg.norm(truth_values)
    if denom == 0.0:
        raise ValueError("truth is zero on the evaluation mask")
    return denom


def _scores(truth_values: np.ndarray, imputed_values: np.ndarray, truth_norm) -> tuple:
    """(RSE in percent, MSE) of gathered evaluation pixels, both from one residual."""
    diff = imputed_values - truth_values
    return 100.0 * float(np.linalg.norm(diff) / truth_norm), float(np.mean(diff * diff))


def rse(truth: np.ndarray, imputed: np.ndarray, eval_mask: np.ndarray) -> float:
    """Relative squared error on the evaluation pixels, in percent.

    Frobenius norm of the masked residual over the Frobenius norm of the
    masked truth, times 100.
    """
    truth_values, imputed_values = _gather(truth, imputed, eval_mask)
    return _scores(truth_values, imputed_values, _truth_norm(truth_values))[0]


def mse(truth: np.ndarray, imputed: np.ndarray, eval_mask: np.ndarray) -> float:
    """Mean squared residual over the evaluation pixels."""
    truth_values, imputed_values = _gather(truth, imputed, eval_mask)
    # The MSE needs no truth norm (and allows zero truth); the RSE is dropped.
    return _scores(truth_values, imputed_values, 1.0)[1]


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
    margin_mean: dict = field(default_factory=dict)
    margin_ci: dict = field(default_factory=dict)
    better_than_baseline: dict = field(default_factory=dict)
    worse_than_full: dict = field(default_factory=dict)


def compare_models(results: dict, truth: np.ndarray, eval_masks: np.ndarray) -> EvalReport:
    """Score every model on identical evaluation masks.

    ``results`` maps model name to its (T, m, n) imputation. Margins are
    taken against the ``BASELINE`` model (positive means better than the
    baseline); ties count as "not better". Win counts against the baseline
    and loss counts against ``FULL_MODEL`` are only filled in when those
    models are present.
    """
    truth = np.asarray(truth, dtype=float)
    eval_masks = np.asarray(eval_masks, dtype=bool)
    if truth.shape != eval_masks.shape:
        raise ValueError("truth and evaluation masks must share one shape")
    models = {}
    for name, frames in results.items():
        frames = np.asarray(frames, dtype=float)
        if frames.shape != truth.shape:
            raise ValueError(f"model {name!r} frames have shape {frames.shape}, "
                             f"expected {truth.shape}")
        models[name] = frames
    report = EvalReport(models=list(results))
    T = truth.shape[0]
    for name in models:
        report.frame_rse[name] = np.empty(T)
        report.frame_mse[name] = np.empty(T)
    # One pass over the frames: each frame's evaluation pixels are located
    # once and the truth there is scored against every model. Flat indices
    # gather faster than a boolean mask, in the same order.
    for t in range(T):
        pixels = np.flatnonzero(eval_masks[t])
        if not pixels.size:
            raise ValueError(f"evaluation mask is empty at frame {t}")
        truth_values = truth[t].take(pixels)
        truth_norm = _truth_norm(truth_values)
        for name, frames in models.items():
            report.frame_rse[name][t], report.frame_mse[name][t] = _scores(
                truth_values, frames[t].take(pixels), truth_norm)
    for name in models:
        report.mean_rse[name] = float(report.frame_rse[name].mean())
        report.mean_mse[name] = float(report.frame_mse[name].mean())
    if BASELINE in results:
        base = report.frame_rse[BASELINE]
        for name in results:
            margins = base - report.frame_rse[name]
            report.margins[name] = margins
            center, lo, hi = margin_confidence(margins)
            report.margin_mean[name] = center
            report.margin_ci[name] = (lo, hi)
            report.better_than_baseline[name] = int(np.count_nonzero(margins > 0))
    if FULL_MODEL in results:
        full = report.frame_rse[FULL_MODEL]
        for name in results:
            report.worse_than_full[name] = int(
                np.count_nonzero(report.frame_rse[name] > full))
    return report


def write_frame_metrics(path, report: EvalReport) -> None:
    """One CSV row per (model, frame): model, t, rse_pct, mse."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "t", "rse_pct", "mse"])
        for name in report.models:
            for t, (r, e) in enumerate(zip(report.frame_rse[name], report.frame_mse[name])):
                writer.writerow([name, t, format(r, ".17g"), format(e, ".17g")])


def write_summary(path, report: EvalReport) -> None:
    """One CSV row per model with aggregate metrics and win/loss counts."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "rse_pct", "mse", "better_than_baseline", "worse_than_full"])
        for name in report.models:
            writer.writerow([
                name,
                format(report.mean_rse[name], ".17g"),
                format(report.mean_mse[name], ".17g"),
                report.better_than_baseline.get(name, ""),
                report.worse_than_full.get(name, ""),
            ])


def write_margins(path, report: EvalReport, level: str = "") -> None:
    """Plot-ready margins vs the baseline: model, level, mean, ci_lo, ci_hi."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "level", "margin_mean", "ci_lo", "ci_hi"])
        for name in report.models:
            if name == BASELINE or name not in report.margin_mean:
                continue
            lo, hi = report.margin_ci[name]
            writer.writerow([name, level, format(report.margin_mean[name], ".17g"),
                             format(lo, ".17g"), format(hi, ".17g")])
