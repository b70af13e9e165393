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

Within a half-cycle the fixed factors do not change, so each frame's label,
its change statistic and its objective terms depend on no other frame. Those
passes run as contiguous frame chunks (see ``vista.chunks``), one per usable
core, on plain threads with numpy's bundled OpenBLAS held at one thread; only
the lambda2 recurrence and the sums over frames run in order on the calling
thread. Every output is therefore the same for any core count and any BLAS
thread setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chunks import _frame_chunks, _one_blas_thread
from .video import FactorSequence, MaskedVideo, PenaltyConfig, _writable

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


@_one_blas_thread()
def objective(video: MaskedVideo, aux, factors: FactorSequence, cfg: PenaltyConfig) -> float:
    """Evaluate the four-term objective at the given factors.

    Each frame's product is formed in a reused (m, n) buffer, and each
    residual exactly, as a difference in another. The sum is the one
    ``sweep`` records, term for term.
    """
    if cfg.lambda3 > 0 and aux is None:
        raise ValueError("lambda3 > 0 requires an auxiliary video")
    if aux is not None:
        aux.check_matches(video)
    return _objective(video, aux, factors, cfg)[0]


def _objective(video: MaskedVideo, aux, factors: FactorSequence, cfg: PenaltyConfig,
               start: FactorSequence = None) -> tuple:
    # (objective, per-frame changes or None). Each frame's terms, and with
    # ``start`` the squared relative change of its product from start's, come
    # from one frame pass that forms the product once; a chunk that begins
    # at lo > 0 re-forms frame lo-1's product for the lambda2 term. The terms
    # are then summed in frame order.
    left, right = factors.left, factors.right
    T = video.dims.T
    terms = np.zeros((T, 3))
    changes = None if start is None else np.empty(T)

    def work(lo, hi, product, prev_product, buffer):
        flat = buffer.reshape(-1)
        if lo > 0 and cfg.lambda2 != 0.0:
            np.matmul(left[lo - 1], right[lo - 1].T, out=prev_product)
        for t in range(lo, hi):
            np.matmul(left[t], right[t].T, out=product)
            np.subtract(video.frames[t], product, out=buffer)
            np.multiply(buffer, video.masks[t], out=buffer)
            terms[t, 0] = flat @ flat
            if t > 0 and cfg.lambda2 != 0.0:
                np.subtract(product, prev_product, out=buffer)
                terms[t, 1] = flat @ flat
            if cfg.lambda3 != 0.0:
                np.subtract(aux.frames[t], product, out=buffer)
                terms[t, 2] = flat @ flat
            if start is not None:
                np.matmul(start.left[t], start.right[t].T, out=buffer)
                norm = max(float(np.vdot(buffer, buffer)), _TINY)
                buffer -= product
                changes[t] = float(np.vdot(buffer, buffer)) / norm
            product, prev_product = prev_product, product

    shape = video.frames.shape[1:]
    _frame_chunks(work, video.dims, shape, shape, shape)
    total = 0.5 * cfg.lambda1 * float(np.vdot(left, left) + np.vdot(right, right))
    for t, (fit, temporal, aux_fit) in enumerate(terms.tolist()):
        total += 0.5 * fit
        if t > 0 and cfg.lambda2 != 0.0:
            total += 0.5 * cfg.lambda2 * temporal
        if cfg.lambda3 != 0.0:
            total += 0.5 * cfg.lambda3 * aux_fit
    return total, changes


def _systems(basis: np.ndarray, cfg: PenaltyConfig) -> tuple:
    # Within a half-cycle the fixed factor does not change, so everything that
    # depends only on it is built at once, in batched calls: the inverse of
    # weight_t B_t'B_t + lambda1 I, and the neighbour cross Grams B_t' B_{t+1}
    # that carry the lambda2 terms.
    T, _, r = basis.shape
    frames = np.arange(T)
    weight = 1.0 + cfg.lambda2 * np.add(frames > 0, frames < T - 1, dtype=int) + cfg.lambda3
    grams = np.matmul(np.swapaxes(basis, 1, 2), basis)
    grams *= weight[:, None, None]
    grams += cfg.lambda1 * np.eye(r)
    cross = np.matmul(np.swapaxes(basis[:-1], 1, 2), basis[1:])
    return np.linalg.inv(grams), cross


def _labels(video: MaskedVideo, aux, left: np.ndarray, right: np.ndarray, cfg: PenaltyConfig,
            flip: bool) -> np.ndarray:
    # Every frame's label for the half-cycle that solves for the left factors
    # (the right ones with flip), in one frame pass from the factors at the
    # half-cycle's start: the product with the observed pixels overwritten by
    # the frame, applied to the fixed factor, plus lambda3 aux_t B_t, on the
    # transposed frames when flip.
    basis = left if flip else right
    labels = np.empty((right if flip else left).shape)

    def work(lo, hi, filled, term):
        for t in range(lo, hi):
            np.matmul(left[t], right[t].T, out=filled)
            np.copyto(filled, video.frames[t], where=video.masks[t])
            np.matmul(filled.T if flip else filled, basis[t], out=labels[t])
            if cfg.lambda3 != 0.0:
                frame = aux.frames[t]
                np.matmul(frame.T if flip else frame, basis[t], out=term)
                term *= cfg.lambda3
                labels[t] += term

    _frame_chunks(work, video.dims, video.frames.shape[1:], labels.shape[1:])
    return labels


def _update(t: int, solved: np.ndarray, label: np.ndarray, cfg: PenaltyConfig,
            systems: tuple) -> np.ndarray:
    # Minimizer of frame t's majorized surrogate in solved[t], basis fixed:
    # X = (label B) (weight B'B + lambda1 I)^-1, with the inverse and the cross
    # Grams taken from ``systems`` (see _systems) and the frame's own terms
    # from ``label`` (see _labels), which is added to in place. The right-factor
    # update is the left-factor update of the transposed frame. Each lambda2
    # neighbor s contributes solved[s] (basis[s]' B), which is its product
    # applied to B through an r-by-r Gram.
    inverse, cross = systems
    rhs = label
    if cfg.lambda2 != 0.0:
        if t > 0:
            rhs += cfg.lambda2 * (solved[t - 1] @ cross[t - 1])
        if t < len(cross):
            rhs += cfg.lambda2 * (solved[t + 1] @ cross[t].T)
    return rhs @ inverse[t]


def update_left(t: int, left: np.ndarray, right: np.ndarray,
                video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Frame t's closed-form left-factor step; forms every frame's label, as the sweep does."""
    labels = _labels(video, aux, left, right, cfg, flip=False)
    return _update(t, left, labels[t], cfg, _systems(right, cfg))


def update_right(t: int, left: np.ndarray, right: np.ndarray,
                 video: MaskedVideo, aux, cfg: PenaltyConfig) -> np.ndarray:
    """Frame t's closed-form right-factor step; forms every frame's label, as the sweep does."""
    labels = _labels(video, aux, left, right, cfg, flip=True)
    return _update(t, right, labels[t], cfg, _systems(left, cfg))


@_one_blas_thread()
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
    factor and, in a frame pass, every frame's label from its product with
    the observed pixels overwritten by the frame. The lambda2 recurrence then
    solves the frames in order. After the right half-cycle one more frame
    pass forms each frame's product once, for both its objective terms and
    its change against the product of a copy of the factors made at the
    start of the sweep. The frame passes run in chunks (see the module
    docstring); the recorded values do not depend on how many.
    """
    factors = state.factors
    if not state.objective_history:
        state.objective_history.append(objective(video, aux, factors, cfg))
    if record_factors and not state.factor_history:
        state.factor_history.append(factors.copy())

    start = factors.copy()
    for solved, basis, flip in ((factors.left, factors.right, False),
                                (factors.right, factors.left, True)):
        systems = _systems(basis, cfg)
        labels = _labels(video, aux, factors.left, factors.right, cfg, flip)
        for t in range(video.dims.T):
            solved[t] = _update(t, solved, labels[t], cfg, systems)
        if record_phases and not flip:
            left_phase = objective(video, aux, factors, cfg)
    total, changes = _objective(video, aux, factors, cfg, start)

    state.change_history.append(changes)
    state.objective_history.append(total)
    if record_phases:
        state.phase_history.append((left_phase, total))
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


@_one_blas_thread()
def finalize(factors: FactorSequence, video: MaskedVideo, shrinkage: float) -> ImputedVideo:
    """Terminal spectral cleanup of the factored imputation.

    Per frame: fill in the frame with the factor product, project it onto
    the column space of the right factor (an orthonormal basis from its QR,
    which spans the product's row space whenever the left factor has full
    column rank), then soft-threshold the singular values of the projection
    by ``shrinkage``. The effective rank is the number of singular values
    that survive. The factors must match the video's dims, and the rank may
    not exceed min(m, n). The frames are cleaned in chunks (see the module
    docstring), in place in a copy of the video's frames, or in their own
    buffer if the video's holder gave it up (``vista.video._give_up``): the
    product, formed in an (m, n) scratch, goes into the missing pixels only.
    """
    _check_factors(factors, video)
    left, right = factors.left, factors.right
    dims, masks, frames = video.dims, video.masks, _writable(video)
    effective = np.empty(len(frames), dtype=int)

    def work(lo, hi, product):
        for t in range(lo, hi):
            frame = frames[t]
            np.matmul(left[t], right[t].T, out=product)
            np.copyto(frame, product, where=~masks[t])
            right_basis, _ = np.linalg.qr(right[t])
            projected = frame @ right_basis
            try:
                u, sigma, rt = np.linalg.svd(projected, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"SVD of projected frame failed on frame {t}: {exc}") from exc
            sigma = np.maximum(sigma - shrinkage, 0.0)
            np.matmul(u * sigma, rt @ right_basis.T, out=frame)
            effective[t] = int(np.count_nonzero(sigma))

    _frame_chunks(work, dims, frames.shape[1:])
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
    tests = np.random.default_rng(cfg.rng_seed).standard_normal((T, n, k))  # in frame order
    left = np.empty((T, m, rank))
    right = np.empty((T, n, rank))

    def work(lo, hi, buffer):
        for t in range(lo, hi):
            filled = video.frames[t]  # missing pixels are stored as 0
            if aux is not None:
                filled = buffer
                np.copyto(filled, aux.frames[t])
                np.copyto(filled, video.frames[t], where=video.masks[t])
            q, _ = np.linalg.qr(filled @ tests[t])
            for _ in range(2):
                q, _ = np.linalg.qr(filled.T @ q)
                q, _ = np.linalg.qr(filled @ q)
            u, sigma, vt = np.linalg.svd(q.T @ filled, full_matrices=False)
            root = np.sqrt(sigma[:rank])
            left[t] = (q @ u[:, :rank]) * root
            right[t] = vt[:rank].T * root

    _frame_chunks(work, video.dims, (m, n))
    return FactorSequence(left, right)


@_one_blas_thread()
def solve(video: MaskedVideo, aux, cfg: PenaltyConfig, factors: FactorSequence = None):
    """Run the completion loop to convergence or the sweep budget.

    Parameters
    ----------
    video : MaskedVideo
        Frames to complete, left as they are unless the video's holder gave
        it up (``vista.video._give_up``): then the imputation is built in the
        frames' own buffer, which the video lets go (see ``finalize``).
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
