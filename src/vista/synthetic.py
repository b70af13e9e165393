"""Synthetic smooth test videos: a positive rank-4 background plus a moving bump.

The background is four separable components (zonal, diurnal, semidiurnal,
constant) whose latitude profiles are projected onto a low spherical-
harmonic degree band, so every frame is rank <= 4 and nearly band-limited;
slowly varying weights animate it. The bump is a compact Gaussian blob
circulating just inside the default dayside bounding box, so structured
missingness centered on that box periodically hides it. The frames are
built in frame chunks (``chunks._frame_chunks``), each frame the same way in
any chunk, so the video does not depend on the chunk count. Run
``python -m vista.synthetic out.vmc`` to write the default demo video.
"""

from __future__ import annotations

import sys

import numpy as np

from .chunks import _frame_chunks
from .missingness import default_bbox, perimeter_path
from .spherical import _norm_assoc_legendre
from .video import Dims


def _bandlimited(profile: np.ndarray, theta: np.ndarray, azimuthal_order: int,
                 degree_cap: int) -> np.ndarray:
    """Least-squares projection of a latitude profile onto degrees <= degree_cap."""
    table = _norm_assoc_legendre(degree_cap, np.cos(theta))
    columns = np.stack([table[l, azimuthal_order]
                        for l in range(azimuthal_order, degree_cap + 1)], axis=1)
    coef, *_ = np.linalg.lstsq(columns, profile, rcond=None)
    return columns @ coef


def make_demo_video(m: int = 60, n: int = 90, frames: int = 24, seed: int = 11,
                    bump_amplitude: float = 16.0, bump_sigma: float = 8.0,
                    degree_cap: int = 6) -> np.ndarray:
    """Fully observed (frames, m, n) video, strictly positive everywhere.

    Frame t is the sum over the four components k, in k order, of
    (weight · row profile) · column profile, then the bump.
    """
    for name, value in (("rows", m), ("cols", n), ("frames", frames)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    lat = 90.0 - 180.0 * (np.arange(m) + 0.5) / m
    theta = np.pi * (np.arange(m) + 0.5) / m
    azimuth = 2.0 * np.pi * (np.arange(n) + 0.5) / n

    row_profiles = np.stack([
        _bandlimited(np.exp(-(lat / 38.0) ** 2), theta, 0, degree_cap),
        _bandlimited(np.exp(-((lat - 8.0) / 22.0) ** 2), theta, 1, degree_cap),
        _bandlimited(np.exp(-((lat - 55.0) / 14.0) ** 2)
                     + np.exp(-((lat + 55.0) / 14.0) ** 2), theta, 2, degree_cap),
        np.ones(m),
    ])
    col_profiles = np.stack([
        np.ones(n),
        np.cos(azimuth - 2.0 * np.pi * 13.0 / 24.0),
        np.cos(2.0 * (azimuth - 2.0 * np.pi * 12.0 / 24.0)),
        np.ones(n),
    ])
    t_grid = np.arange(frames)
    weights = np.stack([
        22.0 * (1.0 + 0.15 * np.sin(2.0 * np.pi * t_grid / frames)),
        13.0 * (1.0 + 0.20 * np.cos(2.0 * np.pi * t_grid / frames + 0.7)),
        4.0 * np.ones(frames),
        10.0 * np.ones(frames),
    ])
    scaled = weights.T[:, :, None] * row_profiles  # (frames, 4, m)

    # Bump path: the dayside bounding-box perimeter inset by up to 6 cells,
    # advanced 6 cells per frame from a seeded start. Squared distances to
    # each frame's centre, the columns wrapping around: integers, exact as floats.
    r0, r1, c0, c1 = default_bbox(m, n)
    inset = max(0, min(6, (r1 - r0 - 1) // 2, (c1 - c0 - 1) // 2))
    path = perimeter_path((r0 + inset, r1 - inset, c0 + inset, c1 - inset))
    start = int(rng.integers(len(path)))
    centres = path[(start + 6 * t_grid) % len(path)]
    row_dist2 = ((np.arange(m) - centres[:, :1]) ** 2).astype(float)
    col_dist = np.abs(np.arange(n) - centres[:, 1:])
    col_dist2 = (np.minimum(col_dist, n - col_dist) ** 2).astype(float)

    video = np.empty((frames, m, n))
    minima = np.empty(frames)

    def work(lo, hi, term):
        for t in range(lo, hi):
            # The first term is stored, not added to 0: that differs only for a -0.0
            # term, and the constant component's +10 then gives the same bits.
            frame = np.multiply(scaled[t, 0, :, None], col_profiles[0], out=video[t])
            for k in range(1, 4):
                frame += np.multiply(scaled[t, k, :, None], col_profiles[k], out=term)
            # -d2 / (2σ²), with the sign on the divisor: the same bits, one pass fewer.
            np.add(row_dist2[t, :, None], col_dist2[t], out=term)
            np.divide(term, -(2.0 * bump_sigma ** 2), out=term)
            frame += np.multiply(bump_amplitude, np.exp(term, out=term), out=term)
            minima[t] = frame.min()

    _frame_chunks(work, Dims(m, n, frames), (m, n), blas=False)
    if minima.min() <= 0:
        raise ValueError("demo video parameters produced non-positive values")
    return video


def main(argv=None) -> int:
    "A bad value or an unwritable output prints one line and returns 2."
    import argparse

    from . import io as vio

    parser = argparse.ArgumentParser(description="Write a synthetic demo video.")
    parser.add_argument("output", help="output video file")
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--cols", type=int, default=90)
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    try:
        vio.write_frames(args.output,
                         make_demo_video(args.rows, args.cols, args.frames, args.seed))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"vista.synthetic: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(f"wrote {args.frames}x{args.rows}x{args.cols} demo video to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
