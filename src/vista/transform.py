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


def _power(values: np.ndarray, lam: float) -> None:
    "Apply (y**lam - 1)/lam, or log for lam = 0, to ``values`` in place."
    if lam == 0.0:
        np.log(values, out=values)
    else:
        np.power(values, lam, out=values)
        values -= 1.0
        values /= lam


def _transformed(source: np.ndarray, params: TransformParams) -> np.ndarray:
    "A new array: ``source`` offset, power-transformed and standardized by ``params``."
    out = source + params.offset
    # The pooled pass already reported any overflow of a pooled pixel; a
    # missing pixel (the bare offset) may overflow here, and is zeroed later.
    with np.errstate(over="ignore"):
        _power(out, params.boxcox_lambda)
    out -= params.mean
    out /= params.std
    return out


def fit_transform(video: MaskedVideo, aux, lam: float,
                  offset: float = 1e-3):
    """Transform a video (and optional auxiliary) and fit the pooled standardization.

    Returns (transformed MaskedVideo, transformed AuxiliaryVideo or None,
    TransformParams). The same (mean, std) standardizes both datasets, so
    their values stay directly comparable inside the solver. The transformed
    video shares ``video``'s read-only masks.
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
    # It is filled a frame at a time and reduced in place.
    observed = int(np.count_nonzero(video.masks))
    pooled = np.empty(observed + (0 if aux is None else aux.frames.size))
    start = 0
    for frame, mask in zip(video.frames, video.masks):
        stop = start + int(np.count_nonzero(mask))
        pooled[start:stop] = frame[mask]
        start = stop
    if aux is not None:
        pooled[observed:] = aux.frames.ravel()
    pooled += offset
    positive = pooled > 0
    if not positive.all():
        k = int(np.argmin(positive))  # the first pixel that is not
        if k < observed:
            kind, flat = "pixel", np.flatnonzero(video.masks)[k]
        else:
            kind, flat = "auxiliary pixel", k - observed
        t, i, j = np.unravel_index(flat, video.masks.shape)
        raise ValueError(f"{kind} (t={t}, i={i}, j={j}) is non-positive after offset {offset}")
    del positive
    _power(pooled, lam)
    # A constant population's computed std can be a rounding residue above 0.
    if pooled.min() == pooled.max():
        raise ValueError("pooled pixels have zero variance; cannot standardize")
    # np.mean's and np.std's own steps, in place: the same sums of the same
    # values in the same order, so the same two floats.
    mean = float(np.add.reduce(pooled) / pooled.size)
    pooled -= mean
    np.square(pooled, out=pooled)
    std = float(np.sqrt(np.add.reduce(pooled) / pooled.size))
    del pooled
    params = TransformParams(boxcox_lambda=lam, mean=mean, std=std, offset=offset)
    # Each output is built from its source by the steps its pooled pixels
    # took, so it holds the values they held, and is adopted, not copied.
    transformed = MaskedVideo._adopt(_transformed(video.frames, params), video.masks)
    out_aux = None if aux is None else AuxiliaryVideo._adopt(_transformed(aux.frames, params))
    return transformed, out_aux, params


def invert(frames: np.ndarray, params: TransformParams):
    """Map transformed values back to the original scale, overwriting ``frames``.

    De-standardizes, inverts the power transform (clamping values outside
    the invertible domain and counting them), removes the offset, and
    clamps the final result at zero. ``frames`` must be a writable float
    array of one or more dimensions; pass a copy to keep it. Returns
    (frames, clamp count).
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
        # Counted a frame at a time: one frame's boolean temporary, not (T, m, n).
        clamped = sum(int(np.count_nonzero(frame <= 0)) for frame in frames)
        np.maximum(frames, 0.0 if lam > 0 else np.finfo(float).tiny, out=frames)
        np.power(frames, 1.0 / lam, out=frames)
    frames -= params.offset
    np.maximum(frames, 0.0, out=frames)
    return frames, clamped
