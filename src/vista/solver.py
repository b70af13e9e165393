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

from .video import FactorSequence, MaskedVideo, PenaltyConfig, fill_in

_TINY = np.finfo(float).tiny


@dataclass
class SolverState:
    """Mutable per-run state: factors plus convergence diagnostics.

    ``objective_history[k]`` is the objective after k sweeps (entry 0 is the
    value at initialization). ``change_history[k]`` holds the per-frame
    squared relative change of the imputation products over sweep k+1.
    The optional histories are only populated when the corresponding
    ``record_*`` flag is passed to :func:`sweep` or :func:`solve`.
    """

    factors: FactorSequence
    sweeps: int = 0
    converged: bool = False
    objective_history: list = field(default_factory=list)
    change_history: list = field(default_factory=list)
    phase_history: list = field(default_factory=list)
    update_history: list = field(default_factory=list)
    factor_history: list = field(default_factory=list)


@dataclass
class ImputedVideo:
    """Final imputation frames plus the surviving rank per frame."""

    frames: np.ndarray
    effective_ranks: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        self.effective_ranks = np.asarray(self.effective_ranks, dtype=int)


def objective(video: MaskedVideo, aux, factors: FactorSequence, cfg: PenaltyConfig,
              products: np.ndarray = None) -> float:
    """Evaluate the four-term objective at the given factors.

    ``products``, when given, must hold ``factors.products()``; the sweep
    passes its cache so that no product is formed twice.
    """
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    left, right = factors.left, factors.right
    total = 0.0
    prev_product = None
    for t in range(video.dims.T):
        product = left[t] @ right[t].T if products is None else products[t]
        resid = video.masks[t] * (video.frames[t] - product)
        total += 0.5 * float(np.sum(resid * resid))
        total += 0.5 * cfg.lambda1 * float(np.sum(left[t] ** 2) + np.sum(right[t] ** 2))
        if t > 0 and cfg.lambda2 != 0.0:
            diff = product - prev_product
            total += 0.5 * cfg.lambda2 * float(np.sum(diff * diff))
        if cfg.lambda3 != 0.0:
            diff = aux.frames[t] - product
            total += 0.5 * cfg.lambda3 * float(np.sum(diff * diff))
        prev_product = product
    return total


def _label(t: int, products, video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    # products[s] is frame s's current imputation, for s = t and its neighbors.
    label = np.where(video.masks[t], video.frames[t], products[t])
    if cfg.lambda2 != 0.0:
        for s in (t - 1, t + 1):
            if 0 <= s < video.dims.T:
                label += cfg.lambda2 * products[s]
    if cfg.lambda3 != 0.0:
        label += cfg.lambda3 * aux.frames[t]
    return label


def weighted_label(t: int, left: np.ndarray, right: np.ndarray,
                   video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Composite regression target for updating frame t's factors.

    Blends the filled-in frame, the lambda2-weighted neighbor imputations,
    and the lambda3-weighted auxiliary frame, all evaluated at the factor
    values currently stored in ``left``/``right``. Mid-sweep those arrays
    hold already-updated factors for earlier frames and pre-update factors
    for later ones, which is exactly what the cyclic scheme requires.
    """
    window = range(max(t - 1, 0), min(t + 2, left.shape[0]))
    return _label(t, {s: left[s] @ right[s].T for s in window}, video, aux, cfg)


def _ridge_solve(label: np.ndarray, basis: np.ndarray, t: int, T: int,
                 cfg: PenaltyConfig) -> np.ndarray:
    # Shared r-by-r SPD system: (1 + lambda2*(#neighbors) + lambda3) B'B + lambda1 I.
    weight = 1.0 + cfg.lambda2 * (int(t > 0) + int(t < T - 1)) + cfg.lambda3
    gram = weight * (basis.T @ basis) + cfg.lambda1 * np.eye(basis.shape[1])
    return np.linalg.solve(gram, (label @ basis).T).T


def update_left(t: int, left: np.ndarray, right: np.ndarray,
                video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the left factor."""
    label = weighted_label(t, left, right, video, aux, cfg)
    return _ridge_solve(label, right[t], t, left.shape[0], cfg)


def update_right(t: int, left: np.ndarray, right: np.ndarray,
                 video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Closed-form minimizer of frame t's majorized surrogate in the right factor."""
    label = weighted_label(t, left, right, video, aux, cfg)
    return _ridge_solve(label.T, left[t], t, left.shape[0], cfg)


def sweep(state: SolverState, video: MaskedVideo, aux, cfg: PenaltyConfig,
          record_phases: bool = False, record_updates: bool = False,
          record_factors: bool = False) -> SolverState:
    """Run one full update cycle over all left factors, then all right factors.

    Appends the post-sweep objective and the per-frame squared relative
    change of the imputation products to the state histories. With
    ``record_updates`` the objective is re-evaluated after every single
    factor update (expensive; meant for descent diagnostics on small
    problems), with ``record_phases`` only after each half-cycle, and with
    ``record_factors`` a snapshot of the factors is kept per sweep.

    One (T, m, n) cache holds every frame's current product. Each update
    reads its fill-in and its neighbors from the cache and then refreshes
    its own entry, so the cache always matches the factors; the change
    statistic and the objective are taken from it.
    """
    factors = state.factors
    left, right = factors.left, factors.right
    T = video.dims.T
    cache = factors.products()
    if not state.objective_history:
        state.objective_history.append(objective(video, aux, factors, cfg, products=cache))
    if record_factors and not state.factor_history:
        state.factor_history.append(factors.copy())

    start = cache.copy()
    start_norms = np.maximum(np.sum(start * start, axis=(1, 2)), _TINY)
    updates = [] if record_updates else None
    phases = []
    # The right-factor update is the left-factor update of the transposed frame.
    for solved, basis, flip in ((left, right, False), (right, left, True)):
        for t in range(T):
            label = _label(t, cache, video, aux, cfg)
            solved[t] = _ridge_solve(label.T if flip else label, basis[t], t, T, cfg)
            np.matmul(left[t], right[t].T, out=cache[t])
            if record_updates:
                updates.append(objective(video, aux, factors, cfg, products=cache))
        if record_updates:
            phases.append(updates[-1])
        elif record_phases or flip:
            phases.append(objective(video, aux, factors, cfg, products=cache))

    delta = np.subtract(cache, start, out=start)
    state.change_history.append(np.sum(delta * delta, axis=(1, 2)) / start_norms)
    state.objective_history.append(phases[-1])
    if record_phases or record_updates:
        state.phase_history.append(tuple(phases))
    if record_updates:
        state.update_history.append(updates)
    if record_factors:
        state.factor_history.append(factors.copy())
    state.sweeps += 1
    return state


def check_convergence(state: SolverState, tol: float) -> bool:
    """True iff the largest per-frame squared relative change fell below tol."""
    if not state.change_history:
        raise ValueError("convergence is undefined before the first sweep")
    return bool(np.max(state.change_history[-1]) < tol)


def finalize(factors: FactorSequence, video: MaskedVideo, shrinkage: float) -> ImputedVideo:
    """Terminal spectral cleanup of the factored imputation.

    Per frame: fill in the frame with the factor product, project it onto
    the product's right singular vectors, then soft-threshold the singular
    values of the projection by ``shrinkage``. The effective rank is the
    number of singular values that survive.
    """
    m, n, T = factors.dims
    rank = min(factors.rank, m, n)
    frames = np.empty((T, m, n))
    effective = np.empty(T, dtype=int)
    for t in range(T):
        product = factors.product(t)
        try:
            _, _, vt = np.linalg.svd(product, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"SVD of factor product failed on frame {t}: {exc}") from exc
        right_basis = vt[:rank].T
        filled = fill_in(video.frames[t], video.masks[t], factors.left[t], factors.right[t])
        projected = filled @ right_basis
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
    if rank > min(m, n):
        raise ValueError(f"rank {rank} exceeds min(m, n) = {min(m, n)}")
    rng = np.random.default_rng(seed)
    left = np.empty((T, m, rank))
    right = np.empty((T, n, rank))
    for t in range(T):
        left[t] = _orthonormal_columns(rng, m, rank)
        right[t] = _orthonormal_columns(rng, n, rank)
    return FactorSequence(left, right)


def solve(video: MaskedVideo, aux, cfg: PenaltyConfig, factors: FactorSequence = None,
          record_phases: bool = False, record_updates: bool = False,
          record_factors: bool = False):
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
        Starting factors; a seeded orthonormal start is drawn when omitted.

    Returns
    -------
    (ImputedVideo, SolverState)
        The spectrally cleaned imputation and the final state. A run that
        exhausts ``max_iter`` is not an error; ``state.converged`` is False.
    """
    if cfg.lambda1 <= 0:
        raise ValueError("the solver requires lambda1 > 0")
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    m, n, T = video.dims
    if factors is None:
        factors = init_factors(m, n, T, cfg.rank, cfg.rng_seed)
    elif factors.dims != video.dims:
        raise ValueError(f"factor dims {factors.dims} do not match video dims {video.dims}")
    state = SolverState(factors=factors.copy())
    state.objective_history.append(objective(video, aux, state.factors, cfg))
    for _ in range(cfg.max_iter):
        sweep(state, video, aux, cfg, record_phases=record_phases,
              record_updates=record_updates, record_factors=record_factors)
        if check_convergence(state, cfg.tol):
            state.converged = True
            break
    return finalize(state.factors, video, cfg.lambda1), state
