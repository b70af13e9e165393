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

    def __post_init__(self):
        # An overflowed fit (std = inf) would map every pixel to 0.
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.std) and self.std > 0):
            raise ValueError(f"std must be finite and positive, got {self.std!r}")


def fit_transform(video: MaskedVideo, aux, lam: float,
                  offset: float = 1e-3):
    """Transform a video (and optional auxiliary) and fit the pooled standardization.

    Returns (transformed MaskedVideo, transformed AuxiliaryVideo or None,
    TransformParams). The same (mean, std) standardizes both datasets, so
    their values stay directly comparable inside the solver.
    """
    if not (offset > 0 and math.isfinite(offset)):
        raise ValueError(f"power-transform offset must be finite and positive, got {offset!r}")
    if not math.isfinite(lam):
        raise ValueError(f"power-transform exponent must be finite, got {lam!r}")
    if aux is not None:
        aux.check_matches(video)
    # One buffer holds the observed pixels in C order, then every auxiliary
    # pixel: the contiguous values a concatenation of the two parts would
    # hold, so the pooled mean and std are bit-equal to that reduction's.
    observed = int(np.count_nonzero(video.masks))
    pooled = np.empty(observed + (0 if aux is None else aux.frames.size))
    np.compress(video.masks.ravel(), video.frames.ravel(), out=pooled[:observed])
    if aux is not None:
        pooled[observed:] = aux.frames.ravel()
    pooled += offset
    bad = np.flatnonzero(~(pooled > 0))
    if bad.size:
        k = int(bad[0])
        if k < observed:
            kind, flat = "pixel", np.flatnonzero(video.masks)[k]
        else:
            kind, flat = "auxiliary pixel", k - observed
        t, i, j = np.unravel_index(flat, video.masks.shape)
        raise ValueError(f"{kind} (t={t}, i={i}, j={j}) is non-positive after offset {offset}")
    if lam == 0.0:
        np.log(pooled, out=pooled)
    else:
        np.power(pooled, lam, out=pooled)
        pooled -= 1.0
        pooled /= lam
    mean = float(pooled.mean())
    std = float(pooled.std())
    if std == 0.0:
        raise ValueError("pooled pixels have zero variance; cannot standardize")
    params = TransformParams(boxcox_lambda=lam, mean=mean, std=std, offset=offset)
    pooled -= mean
    pooled /= std
    frames = np.zeros_like(video.frames)
    frames[video.masks] = pooled[:observed]
    out_aux = None if aux is None else AuxiliaryVideo(pooled[observed:].reshape(aux.frames.shape))
    return MaskedVideo(frames, video.masks), out_aux, params


def invert(frames: np.ndarray, params: TransformParams):
    """Map transformed values back to the original scale, overwriting ``frames``.

    De-standardizes, inverts the power transform (clamping values outside
    the invertible domain and counting them), removes the offset, and
    clamps the final result at zero. ``frames`` must be a writable float
    array; pass a copy to keep it. Returns (frames, clamp count).
    """
    lam = params.boxcox_lambda
    frames *= params.std
    frames += params.mean
    clamped = 0
    if lam == 0.0:
        np.exp(frames, out=frames)
    else:
        frames *= lam
        frames += 1.0
        clamped = int(np.count_nonzero(frames <= 0))
        np.maximum(frames, 0.0 if lam > 0 else np.finfo(float).tiny, out=frames)
        np.power(frames, 1.0 / lam, out=frames)
    frames -= params.offset
    np.maximum(frames, 0.0, out=frames)
    return frames, clamped
