"""Real spherical-harmonics basis, ridge fitting of masked frames, rendering.

The basis is the real orthonormal one: zonal terms for m = 0, sqrt(2) times
cosine terms for m > 0 and sine terms for m < 0, built on fully normalized
associated Legendre functions evaluated by the standard three-term
recurrence (Condon-Shortley phase absorbed). Coefficients are stored flat
in the order (0,0), (1,-1), (1,0), (1,1), (2,-2), ... so that (l, m) lives
at index l*(l+1) + m.

On a grid of one colatitude per row and one azimuth per column, every basis
function is a latitude profile times a longitude profile (the separation
behind Driscoll & Healy, Adv. Appl. Math. 1994). The fit works from those
two one-dimensional tables and never forms the (rows*cols, K) design matrix:
each frame's masked Gram is assembled one block per pair of orders from a
single matmul of the masks with the products of the longitude profiles, and
the right-hand side and the render pass through the longitude table and then
the latitude table. Its cost, O(T rows cols P + T rows K^2) for P =
(2 l_max + 1)(l_max + 1) order pairs, does not depend on how many pixels
are missing. ``basis_matrix`` builds the design matrix from the same tables
for callers that want it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .solver import _one_blas_thread
from .video import AuxiliaryVideo, MaskedVideo

_CHUNK = 16  # frames fitted per batch in build_auxiliary


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
            raise ValueError(f"l_max must be non-negative, got {self.l_max!r}")
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


class _Tables(NamedTuple):
    """The basis as latitude and longitude tables, coefficients grouped by order.

    ``lon`` is (cols, 2 l_max + 1): column l_max + m holds 1 for m = 0,
    sqrt(2) cos(m phi) for m > 0 and sqrt(2) sin(|m| phi) for m < 0.
    Coefficients run order by order (m = -l_max..l_max, and l = |m|..l_max
    within an order); ``blocks[o]`` is the slice of order column o, and
    ``lat[o]`` is its (len(block), rows) array of normalized Legendre values,
    one row per coefficient. ``canonical[k]`` is the index l(l+1)+m of
    coefficient k. The basis value of coefficient k = blocks[o][q] at cell
    (i, j) is ``lat[o][q, i] * lon[j, o]``.
    """

    lat: list
    lon: np.ndarray
    blocks: list
    canonical: np.ndarray


def _tables(grid: SphericalGrid, l_max: int) -> _Tables:
    if l_max < 0:
        raise ValueError(f"spherical-harmonics degree cap must be non-negative, got {l_max!r}")
    legendre = _norm_assoc_legendre(l_max, np.cos(grid.theta))
    orders = range(-l_max, l_max + 1)
    lon = np.empty((len(grid.phi), len(orders)))
    lon[:, l_max] = 1.0
    for m in range(1, l_max + 1):
        lon[:, l_max + m] = np.sqrt(2.0) * np.cos(m * grid.phi)
        lon[:, l_max - m] = np.sqrt(2.0) * np.sin(m * grid.phi)
    lat = [np.ascontiguousarray(legendre[abs(m):, abs(m)]) for m in orders]
    bounds = np.cumsum([0] + [len(block) for block in lat])
    canonical = np.array([coeff_index(l, m) for m in orders for l in range(abs(m), l_max + 1)])
    return _Tables(lat, lon, [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])], canonical)


def basis_matrix(grid: SphericalGrid, l_max: int) -> np.ndarray:
    """Design matrix: one row per grid cell (row-major), one column per (l, m).

    Each column is the outer product of a latitude and a longitude profile
    from the separable tables that the fit uses; the fit never forms this
    matrix.
    """
    tables = _tables(grid, l_max)
    rows, cols = grid.shape
    design = np.empty((rows, cols, coeff_count(l_max)))
    for o, (lat, block) in enumerate(zip(tables.lat, tables.blocks)):
        design[:, :, tables.canonical[block]] = lat.T[:, None, :] * tables.lon[None, :, o, None]
    return design.reshape(rows * cols, -1)


@_one_blas_thread()
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
    tables = _tables(grid, l_max)
    coeffs = np.empty(coeff_count(l_max))
    coeffs[tables.canonical] = _fit(tables, np.where(mask, frame, 0.0)[None], mask[None], v)[0]
    return ShModel(l_max=l_max, coeffs=coeffs)


def _check_ridge(v: float) -> None:
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"ridge weight v must be finite and non-negative, got {v!r}")


def _fit(tables: _Tables, frames: np.ndarray, masks: np.ndarray, v: float) -> np.ndarray:
    """Ridge coefficients of T masked frames at once, as a (T, K) array in table order.

    ``frames`` must be 0 at missing pixels. For the p-th pair of orders
    a <= b, ``weights[p, t, i]`` sums ``lon[j, a] * lon[j, b]`` over the
    observed columns j of row i of frame t: one matmul of the masks with a
    (cols, pairs) table. Gram block (a, b) of frame t is then
    ``lat[a] diag(weights[p, t]) lat[b]'``. The right-hand side contracts
    ``frames @ lon`` with ``lat`` order by order.
    """
    lat, lon, blocks, _ = tables
    T, rows, cols = frames.shape
    K = blocks[-1].stop
    first, second = np.triu_indices(lon.shape[1])
    weights = ((lon[:, first] * lon[:, second]).T
               @ masks.reshape(T * rows, cols).T.astype(float)).reshape(-1, T, rows)
    grams = np.empty((T, K, K))
    for w, a, b in zip(weights, first, second):
        # One 2-D matmul over all T frames: (T*ka, rows) @ (rows, kb).
        block = ((lat[a] * w[:, None, :]).reshape(-1, rows) @ lat[b].T).reshape(T, -1, len(lat[b]))
        grams[:, blocks[a], blocks[b]] = block
        grams[:, blocks[b], blocks[a]] = block.swapaxes(1, 2)
    projected = frames @ lon
    rhs = np.empty((T, K))
    for o, block in enumerate(blocks):
        rhs[:, block] = projected[:, :, o] @ lat[o].T
    grams += v * np.eye(K)
    # The Cholesky factorization only checks definiteness: a fit with fewer
    # independent observed pixels than coefficients and no ridge must fail
    # rather than return an arbitrary solution. With v > 0 every Gram is at
    # least v I, so only v = 0 is checked.
    if v == 0:
        try:
            np.linalg.cholesky(grams)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"spherical-harmonics fit is singular: {exc}") from exc
    return np.linalg.solve(grams, rhs[..., None])[..., 0]


@_one_blas_thread()  # as solve: its matmuls and solves change bits with the thread count
def build_auxiliary(video: MaskedVideo, l_max: int = 11, v: float = 0.1) -> AuxiliaryVideo:
    """Per-frame fit-and-render of a masked video on its cell-centered global grid.

    Frames are fitted and rendered a few at a time from the separable tables,
    so the work does not depend on how many pixels are missing and the
    temporaries do not grow with T.
    """
    _check_ridge(v)
    m, n, T = video.dims
    tables = _tables(SphericalGrid.from_shape(m, n), l_max)
    frames = np.empty((T, m, n))
    for start in range(0, T, _CHUNK):
        part = slice(start, start + _CHUNK)
        coeffs = _fit(tables, video.frames[part], video.masks[part], v)
        profiles = np.empty((len(coeffs), m, tables.lon.shape[1]))
        for o, block in enumerate(tables.blocks):
            profiles[:, :, o] = coeffs[:, block] @ tables.lat[o]
        np.matmul(profiles, tables.lon.T, out=frames[part])
    return AuxiliaryVideo._adopt(np.maximum(frames, 0.0, out=frames))
