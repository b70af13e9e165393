"""Real spherical-harmonics basis, ridge fitting of masked frames, rendering.

The basis is the real orthonormal one: zonal terms for m = 0, sqrt(2) times
cosine terms for m > 0 and sine terms for m < 0, built on fully normalized
associated Legendre functions evaluated by the standard three-term
recurrence (Condon-Shortley phase absorbed). Coefficients are stored flat
in the order (0,0), (1,-1), (1,0), (1,1), (2,-2), ... so that (l, m) lives
at index l*(l+1) + m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .video import AuxiliaryVideo, MaskedVideo


def coeff_count(l_max: int) -> int:
    return (l_max + 1) ** 2


def coeff_index(l: int, m: int) -> int:
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds degree l = {l}")
    return l * (l + 1) + m


@dataclass(frozen=True)
class SphericalGrid:
    """Separable angular grid: one colatitude per row, one azimuth per column."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if theta.ndim != 1 or phi.ndim != 1:
            raise ValueError("theta and phi must be one-dimensional")
        if np.any(theta <= 0) or np.any(theta >= np.pi):
            raise ValueError("colatitudes must lie strictly inside (0, pi)")
        if np.any(np.diff(theta) <= 0) or np.any(np.diff(phi) <= 0):
            raise ValueError("grid axes must be strictly monotone")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def shape(self):
        return len(self.theta), len(self.phi)

    @classmethod
    def from_shape(cls, m: int, n: int) -> "SphericalGrid":
        """Cell-centered global grid: m latitude rows (north to south), n longitude columns."""
        theta = np.pi * (np.arange(m) + 0.5) / m
        phi = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return cls(theta, phi)


@dataclass(frozen=True)
class ShModel:
    """Truncated expansion: flat coefficient vector for all degrees l <= l_max."""

    l_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if self.l_max < 0:
            raise ValueError("l_max must be non-negative")
        if coeffs.shape != (coeff_count(self.l_max),):
            raise ValueError(
                f"expected {coeff_count(self.l_max)} coefficients, got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)


def _norm_assoc_legendre(l_max: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values P[l, m] for all m <= l <= l_max.

    Normalized so that the resulting real harmonics integrate to one over
    the sphere; evaluated by upward recurrence in l for each m, which is
    stable for the moderate degrees used here.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((l_max + 1, l_max + 1) + x.shape)
    sine = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    diagonal = np.full_like(x, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(l_max + 1):
        if m > 0:
            diagonal = diagonal * sine * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        out[m, m] = diagonal
        if m + 1 <= l_max:
            out[m + 1, m] = np.sqrt(2.0 * m + 3.0) * x * diagonal
        for l in range(m + 2, l_max + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[l, m] = a * (x * out[l - 1, m] - b * out[l - 2, m])
    return out


def basis_matrix(grid: SphericalGrid, l_max: int) -> np.ndarray:
    """Design matrix: one row per grid cell (row-major), one column per (l, m).

    Exploits the separable grid: each column is an outer product of a
    Legendre profile over rows and a trigonometric profile over columns.
    """
    rows, cols = grid.shape
    legendre = _norm_assoc_legendre(l_max, np.cos(grid.theta))
    design = np.empty((coeff_count(l_max), rows, cols))
    ones = np.ones(cols)
    for l in range(l_max + 1):
        design[coeff_index(l, 0)] = np.outer(legendre[l, 0], ones)
    # The m != 0 columns share trig profiles, so build each profile once.
    for m in range(1, l_max + 1):
        cos_profile = np.sqrt(2.0) * np.cos(m * grid.phi)
        sin_profile = np.sqrt(2.0) * np.sin(m * grid.phi)
        for l in range(m, l_max + 1):
            design[coeff_index(l, m)] = np.outer(legendre[l, m], cos_profile)
            design[coeff_index(l, -m)] = np.outer(legendre[l, m], sin_profile)
    return design.reshape(coeff_count(l_max), rows * cols).T


def fit_frame(frame: np.ndarray, mask: np.ndarray, grid: SphericalGrid,
              l_max: int, v: float) -> ShModel:
    """Ridge least-squares fit of the observed pixels of one frame."""
    _check_ridge(v)
    frame = np.asarray(frame, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if frame.shape != mask.shape:
        raise ValueError(f"frame shape {frame.shape} does not match mask shape {mask.shape}")
    if not mask.any():
        raise ValueError("cannot fit a frame with zero observed pixels")
    design = basis_matrix(grid, l_max)
    coeffs = _fit_frames(design, np.where(mask, frame, 0.0)[None], mask[None], v)
    return ShModel(l_max=l_max, coeffs=coeffs[0])


def _check_ridge(v: float) -> None:
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"ridge weight v must be finite and non-negative, got {v!r}")


def _fit_frames(design: np.ndarray, frames: np.ndarray, masks: np.ndarray,
                v: float) -> np.ndarray:
    """Ridge coefficients of T masked frames at once, as a (T, K) array.

    ``frames`` must be 0 at missing pixels. The Gram of the full design is
    formed once; each frame subtracts the Gram of its missing rows, or forms
    the Gram of its observed rows when those are fewer.
    """
    full_gram = design.T @ design
    flat = masks.reshape(len(masks), -1)
    grams = np.empty((len(flat),) + full_gram.shape)
    for t, observed in enumerate(flat):
        missing = np.flatnonzero(~observed)
        if 2 * missing.size <= observed.size:
            rows = design[missing]
            grams[t] = full_gram - rows.T @ rows
        else:
            rows = design[observed]
            grams[t] = rows.T @ rows
    grams += v * np.eye(design.shape[1])
    # The Cholesky factorization only checks definiteness: a fit with fewer
    # independent observed pixels than coefficients and no ridge must fail
    # rather than return an arbitrary solution.
    try:
        np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"spherical-harmonics fit is singular: {exc}") from exc
    rhs = frames.reshape(len(flat), -1) @ design
    return np.linalg.solve(grams, rhs[..., None])[..., 0]


def render(model: ShModel, grid: SphericalGrid, clamp_negative: bool = True) -> np.ndarray:
    """Evaluate the expansion on the whole grid; negative values clamp to 0 by default."""
    values = (basis_matrix(grid, model.l_max) @ model.coeffs).reshape(grid.shape)
    if clamp_negative:
        values = np.maximum(values, 0.0)
    return values


def build_auxiliary(video: MaskedVideo, l_max: int = 11, v: float = 0.1) -> AuxiliaryVideo:
    """Per-frame fit-and-render of a masked video on its cell-centered global grid."""
    _check_ridge(v)
    m, n, T = video.dims
    design = basis_matrix(SphericalGrid.from_shape(m, n), l_max)
    coeffs = _fit_frames(design, video.frames, video.masks, v)
    frames = (coeffs @ design.T).reshape(T, m, n)
    return AuxiliaryVideo(np.maximum(frames, 0.0, out=frames))
