"""Power-transform and standardization of observed pixels, with exact inversion.

Forward path: add a small positive offset (pixel values of 0 are legal),
apply the power transform (y**lam - 1)/lam (log for lam = 0), then
standardize with one (mean, std) pair pooled over all observed pixels of
the video plus every pixel of its auxiliary companion. The inverse undoes
all three steps and clamps values that fall outside the invertible domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .video import AuxiliaryVideo, MaskedVideo


@dataclass(frozen=True)
class TransformParams:
    boxcox_lambda: float
    mean: float
    std: float
    offset: float
    fitted_on: str

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError("std must be positive")


def _check_exponent(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"power-transform exponent must be finite, got {lam!r}")


def boxcox(values, lam: float):
    """Power transform of strictly positive values; natural log at lam = 0."""
    _check_exponent(lam)
    array = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~(array > 0))
    if bad.size:
        raise ValueError(f"power transform needs positive values; entry {bad[0]} "
                         f"is {array.ravel()[bad[0]]!r}")
    if lam == 0.0:
        out = np.log(array)
    else:
        out = (np.power(array, lam) - 1.0) / lam
    return out if out.ndim else float(out)


def boxcox_inverse(values, lam: float):
    """Inverse power transform; values outside the domain clamp to the boundary.

    Returns (array, clamp count).
    """
    array = np.asarray(values, dtype=float)
    if lam == 0.0:
        return np.exp(array), 0
    argument = lam * array + 1.0
    clamped = int(np.count_nonzero(argument <= 0))
    floor = 0.0 if lam > 0 else np.finfo(float).tiny
    return np.power(np.maximum(argument, floor), 1.0 / lam), clamped


def fit_transform(video: MaskedVideo, aux, lam: float,
                  offset: float = 1e-3):
    """Transform a video (and optional auxiliary) and fit the pooled standardization.

    Returns (transformed MaskedVideo, transformed AuxiliaryVideo or None,
    TransformParams). The same (mean, std) standardizes both datasets, so
    their values stay directly comparable inside the solver.
    """
    _check_exponent(lam)
    if aux is not None:
        aux.check_matches(video)
    shifted = video.frames[video.masks] + offset
    if not (shifted > 0).all():
        t, i, j = _first_bad_pixel(video, offset)
        raise ValueError(f"pixel (t={t}, i={i}, j={j}) is non-positive after offset {offset}")
    observed = boxcox(shifted, lam)
    aux_values = None
    if aux is not None:
        if not (aux.frames + offset > 0).all():
            flat = int(np.argmin(aux.frames))
            raise ValueError(f"auxiliary pixel at flat index {flat} is non-positive "
                             f"after offset {offset}")
        aux_values = boxcox(aux.frames.ravel() + offset, lam)
    pooled = observed if aux_values is None else np.concatenate([observed, aux_values])
    mean = float(pooled.mean())
    std = float(pooled.std())
    if std == 0.0:
        raise ValueError("observed pixels have zero variance; cannot standardize")
    params = TransformParams(
        boxcox_lambda=lam, mean=mean, std=std, offset=offset,
        fitted_on=f"{observed.size} observed + {0 if aux_values is None else aux_values.size} auxiliary pixels",
    )
    frames = np.zeros_like(video.frames)
    frames[video.masks] = (observed - mean) / std
    out_video = MaskedVideo(frames, video.masks)
    out_aux = None
    if aux is not None:
        out_aux = AuxiliaryVideo(((aux_values - mean) / std).reshape(aux.frames.shape))
    return out_video, out_aux, params


def invert(frames: np.ndarray, params: TransformParams):
    """Map transformed values back to the original scale.

    De-standardizes, inverts the power transform (clamping values outside
    the invertible domain and counting them), removes the offset, and
    clamps the final result at zero. Returns (frames, clamp count).
    """
    frames = np.asarray(frames, dtype=float)
    raw, clamped = boxcox_inverse(frames * params.std + params.mean, params.boxcox_lambda)
    return np.maximum(raw - params.offset, 0.0), clamped


def suggest_boxcox_lambda(values, grid=None) -> float:
    """Coarse profile-likelihood grid search for the transform exponent.

    Utility only; the pipeline never auto-selects an exponent.
    """
    values = np.asarray(values, dtype=float).ravel()
    if np.any(values <= 0):
        raise ValueError("exponent search needs positive values")
    if grid is None:
        grid = np.linspace(-1.0, 2.0, 31)
    log_sum = float(np.sum(np.log(values)))
    n = values.size
    best_lam, best_llf = None, -np.inf
    for lam in grid:
        transformed = boxcox(values, float(lam))
        var = float(np.var(transformed))
        if var <= 0:
            continue
        llf = (lam - 1.0) * log_sum - 0.5 * n * np.log(var)
        if llf > best_llf:
            best_lam, best_llf = float(lam), llf
    if best_lam is None:
        raise ValueError("no exponent in the grid gave a usable transform")
    return best_lam


def _first_bad_pixel(video: MaskedVideo, offset: float):
    t, i, j = np.argwhere(video.masks & ~(video.frames + offset > 0))[0]
    return int(t), int(i), int(j)
