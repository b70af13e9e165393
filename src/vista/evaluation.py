"""Held-out-pixel error metrics and multi-model comparison reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .io import _in_chunks, write_table

# Two-sided 95% normal quantile, used for the margin error bars.
Z95 = 1.959963984540054
# Margins and win counts are taken against BASELINE, loss counts against FULL_MODEL.
BASELINE = "soft"
FULL_MODEL = "full"


# numpy's pairwise sums add in one order at any thread count, unlike BLAS's dot.
# Callers hold np.errstate(over="ignore"): a square that overflows gives an
# infinite norm, which is reported as not finite.
def _truth_norm(truth_values: np.ndarray, squares: np.ndarray, what: str = "the truth"):
    "The norm of the gathered truth, squared into ``squares`` (of the same length)."
    denom = math.sqrt(np.add.reduce(np.square(truth_values, out=squares)))
    if denom == 0.0:
        raise ValueError("truth is zero on the evaluation mask")
    if not math.isfinite(denom):
        raise ValueError(f"{what} is not finite on the evaluation mask")
    return denom


def _scores(truth_values: np.ndarray, imputed_values: np.ndarray, truth_norm, what: str) -> tuple:
    """(RSE in percent, MSE) of gathered pixels from one residual, formed in ``imputed_values``
    (overwritten); a non-finite RSE is an error."""
    residual = np.subtract(imputed_values, truth_values, out=imputed_values)
    squares = float(np.add.reduce(np.square(residual, out=residual)))
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
    truth_values, imputed_values = truth.take(pixels), imputed.take(pixels)
    with np.errstate(over="ignore"):
        truth_norm = _truth_norm(truth_values, np.empty_like(truth_values))
        return _scores(truth_values, imputed_values, truth_norm, "the imputation")[0]


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
    the truth and the (boolean) masks included, is a (T, m, n) array or an
    ``io.FrameReader`` (a mask reader opened with ``check="mask"``). Shapes
    are checked before any frame is read. The frames are then scored in
    contiguous chunks, one per usable core (see ``vista.chunks``), each
    reading all inputs together, one frame at a time; with a reader that
    cannot seek, such as a pipe, in one chunk. Of failing frames, the
    lowest frame's error is raised.
    A frame whose evaluation mask is empty is skipped: its per-frame scores
    and margins are NaN for every model, and the means, margin intervals and
    counts are taken over the other frames. A mask empty in every frame is an
    error. Margins are taken against the ``BASELINE`` model (positive means
    better than the baseline); ties count as "not better". Win counts against
    the baseline and loss counts against ``FULL_MODEL`` are only filled in
    when those models are present; a non-finite value on the masks is an error.
    """
    if truth.shape != eval_masks.shape:
        raise ValueError("truth and evaluation masks must share one shape")
    report = EvalReport(models=list(results))
    T, m, n = truth.shape
    for name, frames in results.items():
        if frames.shape != truth.shape:
            raise ValueError(f"model {name!r} frames have shape {frames.shape}, "
                             f"expected {truth.shape}")
        report.frame_rse[name] = np.full(T, math.nan)
        report.frame_mse[name] = np.full(T, math.nan)
    kept = np.ones(T, dtype=bool)
    sources = [truth, eval_masks, *results.values()]
    readers = [source for source in sources if not isinstance(source, np.ndarray)]

    # Each chunk slices the arrays and reads its frame range of each reader
    # into one of its buffers. A frame's evaluation pixels are located once
    # and the truth there is scored against every model, through two gather
    # buffers the chunk reuses. Flat indices gather faster than a boolean
    # mask, in the same order; they are in range, and ``take`` in "clip"
    # mode writes its ``out`` directly, where "raise" gathers into a copy.
    def work(lo, hi, truth_gather, model_gather, *buffers):
        buffers = iter(buffers)
        ranges = [source[lo:hi] if isinstance(source, np.ndarray)
                  else source._read(lo, repeat(next(buffers), hi - lo)) for source in sources]
        with np.errstate(over="ignore"):
            for t, (truth_frame, mask, *model_frames) in enumerate(zip(*ranges), lo):
                pixels = np.flatnonzero(mask)
                if not pixels.size:
                    kept[t] = False
                    continue
                truth_values = truth_frame.take(pixels, out=truth_gather[:pixels.size], mode="clip")
                values = model_gather[:pixels.size]
                truth_norm = _truth_norm(truth_values, values, f"frame {t} of the truth")
                for name, frame in zip(results, model_frames):
                    report.frame_rse[name][t], report.frame_mse[name][t] = _scores(
                        truth_values, frame.take(pixels, out=values, mode="clip"), truth_norm,
                        f"frame {t} of model {name!r}")

    _in_chunks(work, truth.shape, readers, (m * n,), (m * n,), *[(m, n)] * len(readers))
    if not kept.any():
        raise ValueError("evaluation mask is empty")
    # A skipped frame's NaN compares false, so the counts below leave it out.
    for name in results:
        report.mean_rse[name] = float(report.frame_rse[name][kept].mean())
        report.mean_mse[name] = float(report.frame_mse[name][kept].mean())
    if BASELINE in results:
        base = report.frame_rse[BASELINE]
        for name in results:
            margins = base - report.frame_rse[name]
            report.margins[name] = margins
            report.margin_ci[name] = margin_confidence(margins[kept])
            report.better_than_baseline[name] = int(np.count_nonzero(margins > 0))
    if FULL_MODEL in results:
        full = report.frame_rse[FULL_MODEL]
        for name in results:
            report.worse_than_full[name] = int(
                np.count_nonzero(report.frame_rse[name] > full))
    return report


def _mean_rse(imputed: np.ndarray, truth_values: np.ndarray, masks: np.ndarray) -> float:
    """``compare_models({"point": imputed}, truth, masks).mean_rse["point"]``, bit for bit, from
    ``truth_values = truth[masks]`` alone: its C order puts each frame's evaluation pixels in one
    segment, in the order the flat indices gather them. Every frame of ``masks`` holds a pixel."""
    frame_rse, end = np.empty(len(masks)), 0
    with np.errstate(over="ignore"):
        for t, (frame, mask) in enumerate(zip(imputed, masks)):
            pixels = np.flatnonzero(mask)
            values, end = truth_values[end:end + pixels.size], end + pixels.size
            truth_norm = _truth_norm(values, np.empty_like(values), f"frame {t} of the truth")
            frame_rse[t] = _scores(values, frame.take(pixels), truth_norm,
                                   f"frame {t} of model 'point'")[0]
    return float(frame_rse.mean())


def write_frame_metrics(path, report: EvalReport) -> None:
    """One CSV row per (model, scored frame): model, t, rse_pct, mse; skipped frames have none."""
    write_table(path, ["model", "t", "rse_pct", "mse"], (
        [name, t, format(r, ".17g"), format(e, ".17g")] for name in report.models
        for t, (r, e) in enumerate(zip(report.frame_rse[name], report.frame_mse[name]))
        if not math.isnan(r)))


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
