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
    ``workspace`` holds two (T, m, n) buffers that :func:`sweep` refills
    every sweep, so that no sweep allocates them afresh; it carries no
    information from one sweep to the next.
    """

    factors: FactorSequence
    sweeps: int = 0
    converged: bool = False
    objective_history: list = field(default_factory=list)
    change_history: list = field(default_factory=list)
    phase_history: list = field(default_factory=list)
    factor_history: list = field(default_factory=list)
    workspace: tuple = field(default=None, repr=False, compare=False)


@dataclass
class ImputedVideo:
    """Final imputation frames plus the surviving rank per frame."""

    frames: np.ndarray
    effective_ranks: np.ndarray


def objective(video: MaskedVideo, aux, factors: FactorSequence, cfg: PenaltyConfig,
              products: np.ndarray = None) -> float:
    """Evaluate the four-term objective at the given factors.

    ``products``, when given, must hold every ``left[t] @ right[t].T`` as one
    (T, m, n) array; the sweep passes its cache so that no product is formed
    twice. Each residual is formed exactly, as a difference in one reused
    (m, n) buffer.
    """
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    left, right = factors.left, factors.right
    buffer = np.empty(video.frames.shape[1:])
    flat = buffer.reshape(-1)
    total = 0.5 * cfg.lambda1 * float(np.vdot(left, left) + np.vdot(right, right))
    prev_product = None
    for t in range(video.dims.T):
        product = left[t] @ right[t].T if products is None else products[t]
        np.subtract(video.frames[t], product, out=buffer)
        np.multiply(buffer, video.masks[t], out=buffer)
        total += 0.5 * float(flat @ flat)
        if t > 0 and cfg.lambda2 != 0.0:
            np.subtract(product, prev_product, out=buffer)
            total += 0.5 * cfg.lambda2 * float(flat @ flat)
        if cfg.lambda3 != 0.0:
            np.subtract(aux.frames[t], product, out=buffer)
            total += 0.5 * cfg.lambda3 * float(flat @ flat)
        prev_product = product
    return total


def _update(t: int, solved: np.ndarray, basis: np.ndarray, filled: np.ndarray,
            aux, cfg: PenaltyConfig, flip: bool) -> np.ndarray:
    # Minimizer of frame t's majorized surrogate in solved[t], basis fixed:
    # (weight B'B + lambda1 I) X' = (label B)'. The right-factor update is the
    # left-factor update of the transposed frame (flip). The label is never
    # formed: each lambda2 neighbor s contributes solved[s] (basis[s]' B),
    # which is its product applied to B through an r-by-r Gram.
    b = basis[t]
    T = solved.shape[0]
    rhs = (filled.T if flip else filled) @ b
    if cfg.lambda3 != 0.0:
        rhs += cfg.lambda3 * ((aux.frames[t].T if flip else aux.frames[t]) @ b)
    if cfg.lambda2 != 0.0:
        for s in (t - 1, t + 1):
            if 0 <= s < T:
                rhs += cfg.lambda2 * (solved[s] @ (basis[s].T @ b))
    weight = 1.0 + cfg.lambda2 * (int(t > 0) + int(t < T - 1)) + cfg.lambda3
    gram = weight * (b.T @ b) + cfg.lambda1 * np.eye(b.shape[1])
    return np.linalg.solve(gram, rhs.T).T


def update_left(t: int, left: np.ndarray, right: np.ndarray,
                video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the left factor."""
    filled = np.where(video.masks[t], video.frames[t], left[t] @ right[t].T)
    return _update(t, left, right, filled, aux, cfg, flip=False)


def update_right(t: int, left: np.ndarray, right: np.ndarray,
                 video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the right factor."""
    filled = np.where(video.masks[t], video.frames[t], left[t] @ right[t].T)
    return _update(t, right, left, filled, aux, cfg, flip=True)


def sweep(state: SolverState, video: MaskedVideo, aux, cfg: PenaltyConfig,
          record_phases: bool = False, record_factors: bool = False) -> SolverState:
    """Run one full update cycle over all left factors, then all right factors.

    Appends the post-sweep objective and the per-frame squared relative
    change of the imputation products to the state histories. With
    ``record_phases`` the objective is also evaluated after the left
    half-cycle, and with ``record_factors`` a snapshot of the factors is
    kept per sweep.

    One (T, m, n) cache holds every frame's current product. Each update
    overwrites its own entry with the fill-in, solves, and then refreshes
    the entry, so the cache matches the factors between updates; the change
    statistic and the objective are taken from it.
    """
    factors = state.factors
    left, right = factors.left, factors.right
    T = video.dims.T
    if state.workspace is None or state.workspace[0].shape != video.frames.shape:
        state.workspace = (np.empty(video.frames.shape), np.empty(video.frames.shape))
    cache, start = state.workspace
    np.matmul(left, np.swapaxes(right, 1, 2), out=cache)
    if not state.objective_history:
        state.objective_history.append(objective(video, aux, factors, cfg, products=cache))
    if record_factors and not state.factor_history:
        state.factor_history.append(factors.copy())

    np.copyto(start, cache)
    start_norms = np.maximum(np.einsum("tij,tij->t", start, start), _TINY)
    phases = []
    for solved, basis, flip in ((left, right, False), (right, left, True)):
        for t in range(T):
            np.putmask(cache[t], video.masks[t], video.frames[t])
            solved[t] = _update(t, solved, basis, cache[t], aux, cfg, flip)
            np.matmul(left[t], right[t].T, out=cache[t])
        if record_phases or flip:
            phases.append(objective(video, aux, factors, cfg, products=cache))

    delta = np.subtract(cache, start, out=start)
    state.change_history.append(np.einsum("tij,tij->t", delta, delta) / start_norms)
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


def _check_rank(rank: int, m: int, n: int) -> None:
    if rank > min(m, n):
        raise ValueError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")


def _check_factors(factors: FactorSequence, video: MaskedVideo) -> None:
    if factors.dims != video.dims:
        raise ValueError(f"factor dims {factors.dims} do not match video dims {video.dims}")
    _check_rank(factors.rank, video.dims.m, video.dims.n)


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
    np.putmask(frames, video.masks, video.frames)
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
    _check_rank(rank, m, n)
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
    _check_rank(rank, m, n)
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
    state.workspace = None
    return finalize(state.factors, video, cfg.lambda1), state
