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

from .video import AuxiliaryVideo, MaskedVideo, _writable


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


def _check_power(lam: float, offset: float) -> None:
    if not (offset > 0 and math.isfinite(offset)):
        raise ValueError(f"power-transform offset must be finite and positive, got {offset!r}")
    if not math.isfinite(lam):
        raise ValueError(f"power-transform exponent must be finite, got {lam!r}")


def fit_transform(video: MaskedVideo, aux, lam: float,
                  offset: float = 1e-3):
    """Transform a video (and optional auxiliary) and fit the pooled standardization.

    Returns (transformed MaskedVideo, transformed AuxiliaryVideo or None,
    TransformParams). The same (mean, std) standardizes both datasets, so
    their values stay directly comparable inside the solver. The transformed
    video shares ``video``'s read-only masks. Each output is built in a copy
    of its input's frames, so ``video`` and ``aux`` are left as they are,
    unless the input's holder gave it up (``vista.video._give_up``): then it
    is built in the frames' own buffer, which the input lets go.
    """
    _check_power(lam, offset)
    if aux is not None:
        aux.check_matches(video)
    # Each output is built in place, a frame at a time. A missing pixel holds
    # the bare offset and is zeroed when the output is adopted.
    outputs = [_writable(video)] + ([] if aux is None else [_writable(aux)])
    # Every output frame in pooled order: (t, frame, its mask or None, its name in an error).
    pooled = [(t, frame, video.masks[t], "pixel") for t, frame in enumerate(outputs[0])]
    if aux is not None:
        pooled += [(t, frame, None, "auxiliary pixel") for t, frame in enumerate(outputs[1])]
    # No overflow warns, in a power, a sum or a square: a non-finite moment fails below.
    # The moments are sums of per-frame sums, added in frame order, so a
    # frame-chunked pass can reproduce them bit for bit.
    with np.errstate(over="ignore"):
        total, count, low, high = 0.0, 0, np.inf, -np.inf
        for t, frame, mask, kind in pooled:
            frame += offset
            bad = frame <= 0 if mask is None else (frame <= 0) & mask
            if bad.any():
                i, j = np.unravel_index(np.argmax(bad), bad.shape)
                raise ValueError(f"{kind} (t={t}, i={i}, j={j}) is non-positive after offset {offset}")
            _power(frame, lam)
            values = frame.ravel() if mask is None else frame[mask]
            total += np.add.reduce(values)
            count += values.size
            low, high = min(low, values.min()), max(high, values.max())
        mean = float(total / count)
        # Checked before the deviations, which an overflowed pixel would make NaN,
        # and before the spread, which an all-overflowed pool (inf == inf) lacks.
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean!r}")
        # A constant population's computed std can be a rounding residue above 0.
        if low == high:
            raise ValueError("pooled pixels have zero variance; cannot standardize")
        squares = 0.0
        for _, frame, mask, _ in pooled:
            frame -= mean
            squares += np.add.reduce(np.square(frame.ravel() if mask is None else frame[mask]))
    params = TransformParams(boxcox_lambda=lam, mean=mean, std=float(np.sqrt(squares / count)),
                             offset=offset)
    for frames in outputs:
        frames /= params.std
    transformed = MaskedVideo._adopt(outputs[0], video.masks)
    out_aux = None if aux is None else AuxiliaryVideo._adopt(outputs[1])
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
