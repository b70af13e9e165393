"""Joint low-rank completion of a masked matrix sequence.

Minimizes, over per-frame factor pairs (left_t, right_t),

    sum_t  1/2 ||masked residual of frame t||_F^2
         + lambda1/2 (||left_t||_F^2 + ||right_t||_F^2)
         + lambda2/2 ||left_t right_t' - left_{t-1} right_{t-1}'||_F^2   (t >= 2)
         + lambda3/2 ||aux_t - left_t right_t'||_F^2

by cyclic majorization-minimization alternating least squares. Each factor
update replaces the masked residual with a filled-in residual that is an
upper bound, tight at the current iterate, which turns the step into a
multi-target ridge regression sharing one r-by-r Gram system across all
target rows. The per-sweep objective is therefore non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .video import FactorSequence, MaskedVideo, PenaltyConfig

_TINY = np.finfo(float).tiny


@dataclass
class SolverState:
    """Mutable per-run state: factors plus convergence diagnostics.

    ``objective_history[k]`` is the objective after k sweeps (entry 0 is the
    value at initialization, recorded by the first sweep).
    ``change_history[k]`` holds the per-frame squared relative change of the
    imputation products over sweep k+1.
    ``phase_history`` and ``factor_history`` are only populated when
    :func:`sweep` is called with ``record_phases`` or ``record_factors``.
    """

    factors: FactorSequence
    sweeps: int = 0
    converged: bool = False
    objective_history: list = field(default_factory=list)
    change_history: list = field(default_factory=list)
    phase_history: list = field(default_factory=list)
    factor_history: list = field(default_factory=list)


@dataclass
class ImputedVideo:
    """Final imputation frames plus the surviving rank per frame."""

    frames: np.ndarray
    effective_ranks: np.ndarray


def objective(video: MaskedVideo, aux, factors: FactorSequence, cfg: PenaltyConfig) -> float:
    """Evaluate the four-term objective at the given factors.

    Each frame's product is formed in a reused (m, n) buffer, and each
    residual exactly, as a difference in another.
    """
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    left, right = factors.left, factors.right
    buffer, product, prev_product = (np.empty(video.frames.shape[1:]) for _ in range(3))
    flat = buffer.reshape(-1)
    total = 0.5 * cfg.lambda1 * float(np.vdot(left, left) + np.vdot(right, right))
    for t in range(video.dims.T):
        np.matmul(left[t], right[t].T, out=product)
        np.subtract(video.frames[t], product, out=buffer)
        np.multiply(buffer, video.masks[t], out=buffer)
        total += 0.5 * float(flat @ flat)
        if t > 0 and cfg.lambda2 != 0.0:
            np.subtract(product, prev_product, out=buffer)
            total += 0.5 * cfg.lambda2 * float(flat @ flat)
        if cfg.lambda3 != 0.0:
            np.subtract(aux.frames[t], product, out=buffer)
            total += 0.5 * cfg.lambda3 * float(flat @ flat)
        product, prev_product = prev_product, product
    return total


def _systems(basis: np.ndarray, aux, cfg: PenaltyConfig, flip: bool) -> tuple:
    # Within a half-cycle the fixed factor does not change, so everything that
    # depends only on it is built at once, in batched calls: the inverse of
    # weight_t B_t'B_t + lambda1 I, the neighbour cross Grams B_t' B_{t+1} that
    # carry the lambda2 terms, and the auxiliary right-hand sides lambda3 aux_t B_t.
    T, _, r = basis.shape
    frames = np.arange(T)
    weight = 1.0 + cfg.lambda2 * np.add(frames > 0, frames < T - 1, dtype=int) + cfg.lambda3
    grams = np.matmul(np.swapaxes(basis, 1, 2), basis)
    grams *= weight[:, None, None]
    grams += cfg.lambda1 * np.eye(r)
    cross = np.matmul(np.swapaxes(basis[:-1], 1, 2), basis[1:])
    aux_rhs = None
    if cfg.lambda3 != 0.0:
        aux_rhs = np.matmul(np.swapaxes(aux.frames, 1, 2) if flip else aux.frames, basis)
        aux_rhs *= cfg.lambda3
    return np.linalg.inv(grams), cross, aux_rhs


def _update(t: int, solved: np.ndarray, basis: np.ndarray, filled: np.ndarray,
            cfg: PenaltyConfig, flip: bool, systems: tuple) -> np.ndarray:
    # Minimizer of frame t's majorized surrogate in solved[t], basis fixed:
    # X = (label B) (weight B'B + lambda1 I)^-1, with the inverse, the cross
    # Grams and the auxiliary term taken from ``systems`` (see _systems). The
    # right-factor update is the left-factor update of the transposed frame
    # (flip). The label is never formed: each lambda2 neighbor s contributes
    # solved[s] (basis[s]' B), which is its product applied to B through an
    # r-by-r Gram.
    inverse, cross, aux_rhs = systems
    rhs = (filled.T if flip else filled) @ basis[t]
    if aux_rhs is not None:
        rhs += aux_rhs[t]
    if cfg.lambda2 != 0.0:
        if t > 0:
            rhs += cfg.lambda2 * (solved[t - 1] @ cross[t - 1])
        if t < len(cross):
            rhs += cfg.lambda2 * (solved[t + 1] @ cross[t].T)
    return rhs @ inverse[t]


def update_left(t: int, left: np.ndarray, right: np.ndarray,
                video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the left factor."""
    filled = np.where(video.masks[t], video.frames[t], left[t] @ right[t].T)
    return _update(t, left, right, filled, cfg, flip=False,
                   systems=_systems(right, aux, cfg, flip=False))


def update_right(t: int, left: np.ndarray, right: np.ndarray,
                 video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the right factor."""
    filled = np.where(video.masks[t], video.frames[t], left[t] @ right[t].T)
    return _update(t, right, left, filled, cfg, flip=True,
                   systems=_systems(left, aux, cfg, flip=True))


def sweep(state: SolverState, video: MaskedVideo, aux, cfg: PenaltyConfig,
          record_phases: bool = False, record_factors: bool = False) -> SolverState:
    """Run one full update cycle over all left factors, then all right factors.

    Appends the post-sweep objective and the per-frame squared relative
    change of the imputation products to the state histories. With
    ``record_phases`` the objective is also evaluated after the left
    half-cycle, and with ``record_factors`` a snapshot of the factors is
    kept per sweep.

    The sweep works in (m, n) scratch and allocates no (T, m, n) array.
    Each half-cycle first builds every frame's r-by-r system from its fixed
    factor. Each update then forms its frame's current product in one
    buffer, overwrites the observed pixels with the frame, and solves. A
    frame's change is taken as soon as its right factor is updated, against
    the product of a copy of the factors made at the start of the sweep.
    """
    factors = state.factors
    left, right = factors.left, factors.right
    if not state.objective_history:
        state.objective_history.append(objective(video, aux, factors, cfg))
    if record_factors and not state.factor_history:
        state.factor_history.append(factors.copy())

    start = factors.copy()
    filled, before = np.empty(video.frames.shape[1:]), np.empty(video.frames.shape[1:])
    changes = np.empty(video.dims.T)
    phases = []
    for solved, basis, flip in ((left, right, False), (right, left, True)):
        systems = _systems(basis, aux, cfg, flip)
        for t in range(video.dims.T):
            np.matmul(left[t], right[t].T, out=filled)
            np.copyto(filled, video.frames[t], where=video.masks[t])
            solved[t] = _update(t, solved, basis, filled, cfg, flip, systems)
            if flip:
                np.matmul(start.left[t], start.right[t].T, out=before)
                norm = max(float(np.vdot(before, before)), _TINY)
                before -= np.matmul(left[t], right[t].T, out=filled)
                changes[t] = float(np.vdot(before, before)) / norm
        if record_phases or flip:
            phases.append(objective(video, aux, factors, cfg))

    state.change_history.append(changes)
    state.objective_history.append(phases[-1])
    if record_phases:
        state.phase_history.append(tuple(phases))
    if record_factors:
        state.factor_history.append(factors.copy())
    state.sweeps += 1
    return state


def check_convergence(state: SolverState, tol: float) -> bool:
    """True iff the largest per-frame squared relative change fell below tol."""
    if not state.change_history:
        raise ValueError("convergence is undefined before the first sweep")
    return bool(np.max(state.change_history[-1]) < tol)


def check_rank(rank: int, m: int, n: int) -> None:
    if rank > min(m, n):
        raise ValueError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")


def _check_factors(factors: FactorSequence, video: MaskedVideo) -> None:
    if factors.dims != video.dims:
        raise ValueError(f"factor dims {factors.dims} do not match video dims {video.dims}")
    check_rank(factors.rank, video.dims.m, video.dims.n)


def finalize(factors: FactorSequence, video: MaskedVideo, shrinkage: float) -> ImputedVideo:
    """Terminal spectral cleanup of the factored imputation.

    Per frame: fill in the frame with the factor product, project it onto
    the column space of the right factor (an orthonormal basis from its QR,
    which spans the product's row space whenever the left factor has full
    column rank), then soft-threshold the singular values of the projection
    by ``shrinkage``. The effective rank is the number of singular values
    that survive. The factors must match the video's dims, and the rank may
    not exceed min(m, n).
    """
    _check_factors(factors, video)
    frames = np.matmul(factors.left, np.swapaxes(factors.right, 1, 2))
    np.copyto(frames, video.frames, where=video.masks)
    effective = np.empty(len(frames), dtype=int)
    for t in range(len(frames)):
        right_basis, _ = np.linalg.qr(factors.right[t])
        projected = frames[t] @ right_basis
        try:
            u, sigma, rt = np.linalg.svd(projected, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"SVD of projected frame failed on frame {t}: {exc}") from exc
        sigma = np.maximum(sigma - shrinkage, 0.0)
        frames[t] = (u * sigma) @ (rt @ right_basis.T)
        effective[t] = int(np.count_nonzero(sigma))
    return ImputedVideo(frames, effective)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def init_factors(m: int, n: int, T: int, rank: int, seed) -> FactorSequence:
    """Seeded start: per-frame orthonormal-column factor pairs (QR of Gaussians)."""
    check_rank(rank, m, n)
    rng = np.random.default_rng(seed)
    left = np.empty((T, m, rank))
    right = np.empty((T, n, rank))
    for t in range(T):
        left[t] = _orthonormal_columns(rng, m, rank)
        right[t] = _orthonormal_columns(rng, n, rank)
    return FactorSequence(left, right)


def _spectral_start(video: MaskedVideo, aux, cfg: PenaltyConfig) -> FactorSequence:
    # One Soft-Impute step per frame (Mazumder, Hastie & Tibshirani, JMLR 2010)
    # without its threshold: fill the missing pixels from the auxiliary frame,
    # or with 0, take a rank-r randomized SVD with two power iterations (Halko,
    # Martinsson & Tropp, SIAM Review 2011, Alg. 4.4) and split the square roots
    # of its singular values between the two factors. Shrinking them by lambda1
    # here would zero whole columns, and a zero column is a fixed point of
    # _update (its right-hand side is filled @ 0), so lambda2 could never grow
    # a weak frame back toward its neighbours.
    m, n, T = video.dims
    rank = cfg.rank
    check_rank(rank, m, n)
    k = min(rank + 5, m, n)
    rng = np.random.default_rng(cfg.rng_seed)
    left = np.empty((T, m, rank))
    right = np.empty((T, n, rank))
    for t in range(T):
        filled = video.frames[t]  # missing pixels are stored as 0
        if aux is not None:
            filled = np.where(video.masks[t], filled, aux.frames[t])
        q, _ = np.linalg.qr(filled @ rng.standard_normal((n, k)))
        for _ in range(2):
            q, _ = np.linalg.qr(filled.T @ q)
            q, _ = np.linalg.qr(filled @ q)
        u, sigma, vt = np.linalg.svd(q.T @ filled, full_matrices=False)
        root = np.sqrt(sigma[:rank])
        left[t] = (q @ u[:, :rank]) * root
        right[t] = vt[:rank].T * root
    return FactorSequence(left, right)


def solve(video: MaskedVideo, aux, cfg: PenaltyConfig, factors: FactorSequence = None):
    """Run the completion loop to convergence or the sweep budget.

    Parameters
    ----------
    video : MaskedVideo
        Frames to complete.
    aux : AuxiliaryVideo or None
        Fully observed companion data; required iff ``cfg.lambda3 > 0``.
    cfg : PenaltyConfig
        Penalty weights and iteration controls; ``lambda1`` must be positive.
    factors : FactorSequence, optional
        Starting factors. When omitted, each frame starts from the rank-r
        truncated SVD of the frame with its missing pixels filled from
        ``aux`` (or with 0 when ``aux`` is None), computed by a randomized
        SVD seeded with ``cfg.rng_seed``; each factor takes the singular
        vectors scaled by the square roots of the singular values.

    Returns
    -------
    (ImputedVideo, SolverState)
        The spectrally cleaned imputation and the final state. A run that
        exhausts ``max_iter`` is not an error; ``state.converged`` is False.
        A sweep that ends with a non-finite objective or per-frame change
        raises ValueError, naming the sweep and the first such frame.
    """
    if cfg.lambda1 <= 0:
        raise ValueError("the solver requires lambda1 > 0")
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    if factors is None:
        factors = _spectral_start(video, aux, cfg)
    else:
        _check_factors(factors, video)
    state = SolverState(factors=factors.copy())
    for _ in range(cfg.max_iter):
        sweep(state, video, aux, cfg)
        bad = np.flatnonzero(~np.isfinite(state.change_history[-1]))
        if bad.size or not np.isfinite(state.objective_history[-1]):
            frame = f"; first non-finite change on frame {bad[0]}" if bad.size else ""
            raise ValueError(f"solver diverged at sweep {state.sweeps}: "
                             f"objective {state.objective_history[-1]!r}{frame}")
        if check_convergence(state, cfg.tol):
            state.converged = True
            break
    return finalize(state.factors, video, cfg.lambda1), state
