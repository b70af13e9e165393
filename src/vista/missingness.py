"""Synthetic missingness on fully observed videos, plus observed-pixel holdout.

Four patterns:

* ``random``          -- per frame, i.i.d. pixel drops at the given fraction.
* ``temporal``        -- frame 0 gets a random scatter mask which then shifts
                         cyclically by ``shift`` columns per frame.
* ``random-patch``    -- per frame, a square patch centered at a uniformly
                         drawn point of the bounding-box perimeter.
* ``temporal-patch``  -- one random perimeter start, then the patch center
                         advances ``shift`` perimeter cells per frame,
                         anti-clockwise with north up.

Patches crop at the top/bottom frame edges and wrap in the column
direction (longitude is periodic). Everything is a pure function of the
spec and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .video import MaskedVideo, check_shape

PATTERNS = ("random", "temporal", "random-patch", "temporal-patch")


def check_fraction(value: float, name: str) -> None:
    """Raise unless ``value`` lies strictly inside (0, 1); NaN is rejected."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


@dataclass(frozen=True)
class MissingnessSpec:
    pattern: str
    fraction: float = 0.5
    patch_size: int = 45
    shift: int = 6
    rng_seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if not self.pattern.endswith("patch"):  # each pattern checks only the field it reads
            check_fraction(self.fraction, "fraction")
        elif self.patch_size < 1:
            raise ValueError("patch_size must be at least 1")
        if self.shift < 1:
            raise ValueError("shift must be at least 1")


def default_bbox(m: int, n: int) -> tuple:
    """Bounding box around the high-value dayside region, inclusive indices.

    Rows span latitudes +45..-45 assuming rows cover +90..-90; columns span
    local times 7..21 assuming columns cover 0..24.
    """
    r0 = int(round(0.25 * (m - 1)))
    r1 = int(round(0.75 * (m - 1)))
    c0 = int(round(7.0 / 24.0 * (n - 1)))
    c1 = int(round(21.0 / 24.0 * (n - 1)))
    return r0, r1, c0, c1


def perimeter_path(bbox: tuple) -> np.ndarray:
    """Perimeter cells of the box in anti-clockwise order (north up), as (k, 2) indices.

    Starts at the top-left corner: down the west edge, east along the south
    edge, up the east edge, west along the north edge.
    """
    r0, r1, c0, c1 = bbox
    if r0 == r1 and c0 == c1:
        return np.array([[r0, c0]])
    cells = []
    for r in range(r0, r1 + 1):
        cells.append((r, c0))
    for c in range(c0 + 1, c1 + 1):
        cells.append((r1, c))
    if r1 > r0:
        for r in range(r1 - 1, r0 - 1, -1):
            cells.append((r, c1))
    if c1 > c0:
        for c in range(c1 - 1, c0, -1):
            cells.append((r0, c))
    return np.array(cells)


def _stamp_patch(dropped: np.ndarray, center, size: int) -> None:
    m, n = dropped.shape
    ci, cj = center
    rows = np.arange(ci - size // 2, ci - size // 2 + size)
    rows = rows[(rows >= 0) & (rows < m)]
    cols = np.arange(cj - size // 2, cj - size // 2 + size) % n
    dropped[np.ix_(rows, cols)] = True


def generate(spec: MissingnessSpec, dims) -> tuple:
    """Dropped-pixel masks for the given (m, n, T); True marks a dropped pixel.

    Returns (dropped, centers) where centers is the (T, 2) array of patch
    centers for the patch patterns and None for the scattered ones.
    """
    m, n, T = dims
    rng = np.random.default_rng(spec.rng_seed)
    dropped = np.zeros((T, m, n), dtype=bool)
    centers = None
    if spec.pattern == "random":
        for t in range(T):
            dropped[t] = rng.random((m, n)) < spec.fraction
    elif spec.pattern == "temporal":
        first = rng.random((m, n)) < spec.fraction
        for t in range(T):
            dropped[t] = np.roll(first, spec.shift * t, axis=1)
    else:
        if spec.patch_size > m or spec.patch_size > n:
            raise ValueError(f"patch size {spec.patch_size} exceeds frame dims ({m}, {n})")
        path = perimeter_path(default_bbox(m, n))
        centers = np.empty((T, 2), dtype=int)
        if spec.pattern == "random-patch":
            for t in range(T):
                centers[t] = path[rng.integers(len(path))]
                _stamp_patch(dropped[t], centers[t], spec.patch_size)
        else:
            start = int(rng.integers(len(path)))
            for t in range(T):
                centers[t] = path[(start + spec.shift * t) % len(path)]
                _stamp_patch(dropped[t], centers[t], spec.patch_size)
    return dropped, centers


def apply(frames: np.ndarray, spec: MissingnessSpec) -> tuple:
    """Drop pixels of a fully observed (T, m, n) video per the spec.

    Returns (MaskedVideo, dropped) where dropped marks exactly the pixels
    withheld from the masked video.
    """
    frames = np.asarray(frames, dtype=float)
    check_shape(frames)
    if not np.isfinite(frames).all():
        raise ValueError("input video must be fully observed")
    dropped, _ = generate(spec, (frames.shape[1], frames.shape[2], frames.shape[0]))
    return MaskedVideo(frames, ~dropped), dropped


def holdout(video: MaskedVideo, fraction: float, seed) -> tuple:
    """Per frame, move a round-to-nearest fraction of observed pixels to a test set.

    Returns (train MaskedVideo, test masks); train and test partition the
    observed set of every frame exactly.
    """
    check_fraction(fraction, "holdout fraction")
    m, n, T = video.dims
    rng = np.random.default_rng(seed)
    test = np.zeros((T, m, n), dtype=bool)
    for t in range(T):
        observed = np.flatnonzero(video.masks[t].ravel())
        if observed.size < 5:
            raise ValueError(f"frame {t} has only {observed.size} observed pixels; need at least 5")
        count = int(np.floor(fraction * observed.size + 0.5))
        if count in (0, observed.size):
            raise ValueError(f"holdout fraction {fraction!r} moves {count} of the "
                             f"{observed.size} observed pixels of frame {t}; the test and "
                             "training sets each need at least one")
        chosen = rng.choice(observed, size=count, replace=False)
        rows, cols = np.unravel_index(chosen, (m, n))
        test[t, rows, cols] = True
    train = MaskedVideo(video.frames, video.masks & ~test)
    return train, test
