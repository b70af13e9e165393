import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista import chunks, solver, spherical
from vista.solver import (
    SolverState,
    check_convergence,
    finalize,
    init_factors,
    objective,
    solve,
    sweep,
    update_left,
    update_right,
)
from vista.video import AuxiliaryVideo, FactorSequence, MaskedVideo, PenaltyConfig, _give_up

from conftest import observed_video, random_aux, random_video
import oracles


def make_state(factors):
    return SolverState(factors=factors.copy())


# ---------------------------------------------------------------- objective

def test_objective_zero_factors_is_masked_energy(rng):
    video = random_video(rng, 4, 5, 3)
    factors = FactorSequence(np.zeros((3, 4, 2)), np.zeros((3, 5, 2)))
    cfg = PenaltyConfig(lambda1=0.7, lambda2=0.3, lambda3=0.0, rank=2)
    expected = 0.5 * np.sum(video.frames[video.masks] ** 2)
    assert objective(video, None, factors, cfg) == pytest.approx(expected, rel=1e-12)


def test_objective_exact_fit_no_penalties_is_zero(rng):
    left = rng.normal(size=(1, 4, 2))
    right = rng.normal(size=(1, 5, 2))
    video = observed_video((left[0] @ right[0].T)[None])
    cfg = PenaltyConfig(lambda1=0.0, lambda2=0.0, lambda3=0.0, rank=2)
    assert objective(video, None, FactorSequence(left, right), cfg) == pytest.approx(0.0, abs=1e-14)


def test_objective_matches_literal_evaluator_frozen():
    rng = np.random.default_rng(42)
    frames = rng.normal(size=(2, 3, 3))
    masks = rng.random((2, 3, 3)) > 0.4
    masks[0, 0, 0] = True
    masks[1, 0, 0] = True
    aux_frames = rng.normal(size=(2, 3, 3))
    left = rng.normal(size=(2, 3, 1))
    right = rng.normal(size=(2, 3, 1))
    video = MaskedVideo(frames, masks)
    aux = AuxiliaryVideo(aux_frames)
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.2, rank=1)
    value = objective(video, aux, FactorSequence(left, right), cfg)
    assert value == pytest.approx(11.686158310826022, rel=1e-12)
    literal = oracles.objective_literal(frames, masks, aux_frames, left, right, 0.5, 0.1, 0.2)
    assert value == pytest.approx(literal, rel=1e-12)


def test_objective_requires_aux_when_lambda3_positive(rng):
    video = random_video(rng, 3, 3, 2)
    factors = FactorSequence(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)))
    cfg = PenaltyConfig(lambda1=0.5, lambda3=0.1, rank=1)
    with pytest.raises(ValueError):
        objective(video, None, factors, cfg)


# ----------------------------------------------------------- weighted label

def test_weighted_label_single_frame_boundary(rng):
    video = random_video(rng, 4, 4, 1)
    aux = random_aux(rng, video)
    left = rng.normal(size=(1, 4, 2))
    right = rng.normal(size=(1, 4, 2))
    cfg = PenaltyConfig(lambda1=0.9, lambda2=5.0, lambda3=0.3, rank=2)
    label = oracles.weighted_label(0, left, right, video, aux, cfg)
    filled = np.where(video.masks[0], video.frames[0], left[0] @ right[0].T)
    np.testing.assert_allclose(label, filled + 0.3 * aux.frames[0], rtol=1e-13)


def test_weighted_label_reduces_to_filled_matrix(rng):
    video = random_video(rng, 4, 5, 3)
    left = rng.normal(size=(3, 4, 2))
    right = rng.normal(size=(3, 5, 2))
    cfg = PenaltyConfig(lambda1=0.9, rank=2)
    label = oracles.weighted_label(1, left, right, video, None, cfg)
    np.testing.assert_array_equal(
        label, np.where(video.masks[1], video.frames[1], left[1] @ right[1].T))


def test_weighted_label_middle_frame_frozen_hand_case():
    frames = np.array([[[1.0, 2.0], [3.0, 4.0]],
                       [[2.0, 0.0], [0.0, 1.0]],
                       [[0.5, 1.5], [2.5, 3.5]]])
    masks = np.array([[[True, False], [True, True]],
                      [[True, False], [False, True]],
                      [[False, True], [True, False]]])
    aux_frames = np.array([[[0.1, 0.2], [0.3, 0.4]],
                           [[0.5, 0.6], [0.7, 0.8]],
                           [[0.9, 1.0], [1.1, 1.2]]])
    left = np.array([[[1.0], [2.0]], [[0.5], [-1.0]], [[2.0], [0.5]]])
    right = np.array([[[1.0], [-1.0]], [[0.5], [2.0]], [[-0.5], [1.0]]])
    video = MaskedVideo(frames, masks)
    aux = AuxiliaryVideo(aux_frames)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.1, lambda3=0.2, rank=1)
    label = oracles.weighted_label(1, left, right, video, aux, cfg)
    np.testing.assert_allclose(label, [[2.1, 1.22], [-0.185, 1.01]], atol=1e-12)


# ----------------------------------------------------------- factor updates

def test_update_left_ridge_onto_identity_design():
    frame = np.array([[2.0, 0.0], [0.0, 2.0]])
    video = observed_video(frame[None])
    left = np.zeros((1, 2, 2))
    right = np.eye(2)[None, :, :]
    cfg = PenaltyConfig(lambda1=1e-9, rank=2)
    updated = update_left(0, left, right, video, None, cfg)
    np.testing.assert_allclose(updated, frame, atol=1e-6)


def test_update_right_ridge_onto_identity_design():
    frame = np.array([[2.0, 0.0], [0.0, 2.0]])
    video = observed_video(frame[None])
    left = np.eye(2)[None, :, :]
    right = np.zeros((1, 2, 2))
    cfg = PenaltyConfig(lambda1=1e-9, rank=2)
    updated = update_right(0, left, right, video, None, cfg)
    np.testing.assert_allclose(updated, frame.T, atol=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_left_matches_dense_quadratic_minimizer(seed):
    rng = np.random.default_rng(seed)
    video = random_video(rng, 4, 3, 2)
    aux = random_aux(rng, video)
    left = rng.normal(size=(2, 4, 2))
    right = rng.normal(size=(2, 3, 2))
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=2)
    for t in range(2):
        updated = update_left(t, left.copy(), right.copy(), video, aux, cfg)
        reference = oracles.quadratic_argmin(
            lambda cand: oracles.surrogate_left(cand, t, left, right, video.frames,
                                                video.masks, aux.frames, 0.9, 0.05, 0.01),
            (4, 2))
        np.testing.assert_allclose(updated, reference, rtol=1e-10)


@pytest.mark.parametrize("seed", [3, 4])
def test_update_right_matches_dense_quadratic_minimizer(seed):
    rng = np.random.default_rng(seed)
    video = random_video(rng, 3, 5, 2)
    aux = random_aux(rng, video)
    left = rng.normal(size=(2, 3, 2))
    right = rng.normal(size=(2, 5, 2))
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=2)
    for t in range(2):
        updated = update_right(t, left.copy(), right.copy(), video, aux, cfg)
        reference = oracles.quadratic_argmin(
            lambda cand: oracles.surrogate_right(cand, t, left, right, video.frames,
                                                 video.masks, aux.frames, 0.9, 0.05, 0.01),
            (5, 2))
        np.testing.assert_allclose(updated, reference, rtol=1e-10)


def test_updates_do_not_increase_their_surrogate(rng):
    video = random_video(rng, 5, 6, 3)
    aux = random_aux(rng, video)
    left = rng.normal(size=(3, 5, 2))
    right = rng.normal(size=(3, 6, 2))
    cfg = PenaltyConfig(lambda1=0.4, lambda2=0.2, lambda3=0.1, rank=2)
    args = (video.frames, video.masks, aux.frames, 0.4, 0.2, 0.1)
    for t in range(3):
        new_left = update_left(t, left.copy(), right.copy(), video, aux, cfg)
        assert (oracles.surrogate_left(new_left, t, left, right, *args)
                <= oracles.surrogate_left(left[t], t, left, right, *args) + 1e-12)
        new_right = update_right(t, left.copy(), right.copy(), video, aux, cfg)
        assert (oracles.surrogate_right(new_right, t, left, right, *args)
                <= oracles.surrogate_right(right[t], t, left, right, *args) + 1e-12)


def test_update_zeroes_surrogate_gradient(rng):
    video = random_video(rng, 4, 4, 2)
    aux = random_aux(rng, video)
    left = rng.normal(size=(2, 4, 2))
    right = rng.normal(size=(2, 4, 2))
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=2)
    t = 1

    def grad_norm(point):
        h = 1e-5
        grad = np.zeros_like(point)
        for idx in np.ndindex(point.shape):
            plus = point.copy(); plus[idx] += h
            minus = point.copy(); minus[idx] -= h
            grad[idx] = (oracles.surrogate_left(plus, t, left, right, video.frames,
                                                video.masks, aux.frames, 0.9, 0.05, 0.01)
                         - oracles.surrogate_left(minus, t, left, right, video.frames,
                                                  video.masks, aux.frames, 0.9, 0.05, 0.01)) / (2 * h)
        return np.linalg.norm(grad)

    updated = update_left(1, left.copy(), right.copy(), video, aux, cfg)
    assert grad_norm(updated) < 1e-6 * max(1.0, grad_norm(left[1]))


# -------------------------------------------------------------------- sweep

def test_sweep_objective_strictly_decreases_from_random_init(rng):
    video = random_video(rng, 10, 12, 4, missing=0.4)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.0, rank=3, rng_seed=1)
    state = make_state(init_factors(10, 12, 4, 3, 1))
    for _ in range(20):
        sweep(state, video, None, cfg)
    history = np.array(state.objective_history)
    assert np.all(np.diff(history) < 0)
    assert all(np.all(changes >= 0) for changes in state.change_history)


def test_sweep_objective_matches_recomputation_from_factors(rng):
    video = random_video(rng, 7, 9, 5)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.6, lambda2=0.3, lambda3=0.1, rank=3, rng_seed=4)
    state = make_state(init_factors(7, 9, 5, 3, 4))
    for _ in range(4):
        sweep(state, video, aux, cfg)
        assert state.objective_history[-1] == objective(video, aux, state.factors, cfg)


@pytest.mark.parametrize("T, lam2, lam3", [(1, 0.3, 0.1), (5, 0.0, 0.0), (5, 0.3, 0.1)])
def test_sweep_change_matches_dense_recomputation(rng, T, lam2, lam3):
    # Factors changed between two sweeps are the next sweep's start: a sweep
    # keeps no state of its own, so its change is measured from them.
    video = random_video(rng, 7, 9, T)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.6, lambda2=lam2, lambda3=lam3, rank=3, rng_seed=4)
    state = make_state(init_factors(7, 9, T, 3, 4))
    starts = []
    for k in range(4):
        if k:
            state.factors.right[...] += 0.1 * rng.normal(size=state.factors.right.shape)
        starts.append(state.factors.copy())
        sweep(state, video, aux, cfg, record_factors=True)

    def products(factors):
        return np.matmul(factors.left, np.swapaxes(factors.right, 1, 2))

    for k, changes in enumerate(state.change_history):
        before, after = products(starts[k]), products(state.factor_history[k + 1])
        dense = np.sum((after - before) ** 2, axis=(1, 2)) / np.sum(before ** 2, axis=(1, 2))
        np.testing.assert_allclose(changes, dense, rtol=1e-12, atol=0)


def test_sweep_and_solve_allocate_no_video_sized_array_beyond_the_output(rng):
    # One (T, m, n) float array is the unit: the state holds only factors and
    # histories after its sweeps, and solve's peak is finalize's output.
    video = random_video(rng, 40, 50, 30)
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.0, rank=2, rng_seed=1, max_iter=5)
    size = video.frames.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = make_state(init_factors(40, 50, 30, 2, 1))
        for _ in range(3):
            sweep(state, video, None, cfg)
        held = tracemalloc.get_traced_memory()[0] - base
        del state
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve(video, None, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < 0.5 * size
    assert peak < 1.5 * size


def test_solve_builds_in_its_video_only_when_given_up(rng):
    # A caller's video and auxiliary keep their bytes and stay read-only. A
    # given-up video (vista.video._give_up) gets the same imputation built
    # in its own buffer, which it lets go.
    video = random_video(rng, 12, 15, 5)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.05, rank=3, rng_seed=1, max_iter=5)
    before = [video.frames.copy(), video.masks.copy(), aux.frames.copy()]
    imputed, state = solve(video, aux, cfg)
    for array, copy in zip((video.frames, video.masks, aux.frames), before):
        assert array.tobytes() == copy.tobytes()
        assert not array.flags.writeable
    spare = _give_up(MaskedVideo(video.frames, video.masks))
    buffer = spare.frames
    again, again_state = solve(spare, aux, cfg)
    assert again.frames.tobytes() == imputed.frames.tobytes()
    assert again.frames is buffer and buffer.flags.writeable and spare.frames is None
    assert again_state.objective_history == state.objective_history


def test_sweep_update_chain_is_non_increasing(rng):
    # Every single factor update, taken in the sweep's cyclic order (all left
    # factors, then all right factors), must not raise the objective.
    video = random_video(rng, 6, 7, 3)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.05, rank=2, rng_seed=2)
    factors = init_factors(6, 7, 3, 2, 2)
    chain = [objective(video, aux, factors, cfg)]
    for _ in range(5):
        for update, solved in ((update_left, factors.left), (update_right, factors.right)):
            for t in range(3):
                solved[t] = update(t, factors.left, factors.right, video, aux, cfg)
                chain.append(objective(video, aux, factors, cfg))
    diffs = np.diff(chain)
    assert np.all(diffs <= 1e-9 * (1.0 + np.abs(chain[:-1])))


def test_sweep_matches_independent_softimpute_reference(rng):
    # With zero temporal and auxiliary weights, each frame must follow the
    # plain alternating-ridge completion exactly, frame by frame.
    T, m, n, r = 3, 8, 9, 2
    video = random_video(rng, m, n, T, missing=0.5)
    cfg = PenaltyConfig(lambda1=0.9, rank=r, rng_seed=5)
    start = init_factors(m, n, T, r, 5)
    state = make_state(start)
    n_sweeps = 10
    references = [
        oracles.softimpute_als_reference(video.frames[t], video.masks[t], 0.9,
                                         start.left[t], start.right[t], n_sweeps)
        for t in range(T)
    ]
    for k in range(n_sweeps):
        sweep(state, video, None, cfg)
        for t in range(T):
            ref_left, ref_right = references[t][k]
            mine = state.factors.left[t] @ state.factors.right[t].T
            theirs = ref_left @ ref_right.T
            np.testing.assert_allclose(mine, theirs, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("T", [1, 2, 5])
def test_sweep_matches_literal_cyclic_sweep(T):
    # The sweep never forms a label; the oracle does, from the factors as
    # they stand mid-sweep, so stale neighbor Grams would show here.
    rng = np.random.default_rng(30 + T)
    m, n, r = 7, 6, 3
    video = random_video(rng, m, n, T, missing=0.4)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.7, lambda2=0.4, lambda3=0.2, rank=r)
    start = init_factors(m, n, T, r, 11)
    state = make_state(start)
    left, right = start.left, start.right
    for _ in range(3):
        sweep(state, video, aux, cfg)
        left, right = oracles.cyclic_sweep_literal(video.frames, video.masks, aux.frames,
                                                   left, right, 0.7, 0.4, 0.2)
    np.testing.assert_allclose(state.factors.left, left, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(state.factors.right, right, rtol=1e-10, atol=1e-12)


def test_sweep_at_numerical_fixed_point_changes_nothing(rng):
    video = random_video(rng, 5, 4, 2, missing=0.3)
    cfg = PenaltyConfig(lambda1=1.0, lambda2=0.1, lambda3=0.0, rank=2,
                        max_iter=4000, tol=1e-300, rng_seed=3)
    state = make_state(init_factors(5, 4, 2, 2, 3))
    for _ in range(600):
        sweep(state, video, None, cfg)
    before_left = state.factors.left.copy()
    before_right = state.factors.right.copy()
    sweep(state, video, None, cfg)
    assert np.abs(state.factors.left - before_left).max() < 1e-12
    assert np.abs(state.factors.right - before_right).max() < 1e-12
    assert state.objective_history[-2] - state.objective_history[-1] < 1e-12


# -------------------------------------------------------------- convergence

def test_check_convergence_semantics():
    factors = FactorSequence(np.zeros((3, 2, 1)), np.zeros((3, 2, 1)))
    state = SolverState(factors=factors)
    with pytest.raises(ValueError):
        check_convergence(state, 1e-5)
    tau = 1e-4
    state.change_history.append(np.array([0.0, 0.0, 0.0]))
    assert check_convergence(state, tau)
    state.change_history.append(np.array([tau / 2, 2 * tau, 0.0]))
    assert not check_convergence(state, tau)
    state.change_history.append(np.array([tau / 2, tau / 2, 0.99 * tau]))
    assert check_convergence(state, tau)


# ----------------------------------------------------------------- finalize

def test_finalize_zero_shrinkage_keeps_full_rank(rng):
    left = rng.normal(size=(1, 5, 2))
    right = rng.normal(size=(1, 4, 2))
    factors = FactorSequence(left, right)
    video = random_video(rng, 5, 4, 1, missing=0.4)
    out = finalize(factors, video, 0.0)
    reference, rank = oracles.finalize_literal(left[0], right[0], video.frames[0],
                                               video.masks[0], 0.0)
    np.testing.assert_allclose(out.frames[0], reference, atol=1e-12)
    assert out.effective_ranks[0] == rank == 2


def test_finalize_total_shrinkage_zeroes_frame(rng):
    left = 1e-3 * rng.normal(size=(1, 5, 2))
    right = 1e-3 * rng.normal(size=(1, 4, 2))
    frames = 1e-3 * rng.normal(size=(1, 5, 4))
    video = observed_video(frames)
    out = finalize(FactorSequence(left, right), video, 10.0)
    np.testing.assert_array_equal(out.frames[0], np.zeros((5, 4)))
    assert out.effective_ranks[0] == 0


def test_finalize_matches_stepwise_oracle_frozen():
    rng = np.random.default_rng(7)
    left = rng.normal(size=(5, 2))
    right = rng.normal(size=(4, 2))
    frame = rng.normal(size=(5, 4))
    mask = rng.random((5, 4)) > 0.3
    video = MaskedVideo(frame[None], mask[None])
    out = finalize(FactorSequence(left[None], right[None]), video, 0.3)
    reference, rank = oracles.finalize_literal(left, right, frame, mask, 0.3)
    np.testing.assert_allclose(out.frames[0], reference, atol=1e-12)
    assert np.linalg.norm(out.frames[0]) == pytest.approx(1.7493040191340763, rel=1e-12)
    assert out.effective_ranks[0] == rank == 2
    np.testing.assert_allclose(
        out.frames[0][0], [-0.013428, 0.49323162, -0.35216015, -0.2201323], atol=1e-8)


def test_finalize_rank_deficient_product_uses_right_factor_span():
    # A zero column in the left factor leaves the product with rank r - 1;
    # the basis is still the span of the right factor.
    rng = np.random.default_rng(17)
    left = rng.normal(size=(2, 6, 3))
    right = rng.normal(size=(2, 5, 3))
    left[1, :, 1] = 0.0
    frames = rng.normal(size=(2, 6, 5))
    masks = rng.random((2, 6, 5)) > 0.3
    masks[:, 0, 0] = True
    video = MaskedVideo(frames, masks)
    out = finalize(FactorSequence(left, right), video, 0.3)
    for t in range(2):
        reference, rank = oracles.finalize_projector_literal(left[t], right[t], video.frames[t],
                                                             video.masks[t], 0.3)
        np.testing.assert_allclose(out.frames[t], reference, atol=1e-12)
        assert out.effective_ranks[t] == rank


def test_finalize_and_solve_reject_rank_above_min_dims(rng):
    video = random_video(rng, 3, 5, 2)
    factors = FactorSequence(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)))
    with pytest.raises(ValueError, match="rank 4 exceeds min"):
        finalize(factors, video, 0.5)
    with pytest.raises(ValueError, match="rank 4 exceeds min"):
        solve(video, None, PenaltyConfig(lambda1=0.9, rank=4), factors=factors)


@pytest.mark.parametrize("m, n, T", [(5, 3, 2), (3, 5, 3), (3, 4, 2)])
def test_finalize_and_solve_reject_factors_of_other_dims(rng, m, n, T):
    # (5, 3, 2) has as many pixels as the (3, 5, 2) video, so a flat fill
    # would accept it silently.
    video = random_video(rng, 3, 5, 2)
    factors = FactorSequence(rng.normal(size=(T, m, 2)), rng.normal(size=(T, n, 2)))
    message = (rf"factor dims Dims\(m={m}, n={n}, T={T}\) do not match "
               r"video dims Dims\(m=3, n=5, T=2\)")
    with pytest.raises(ValueError, match=message):
        finalize(factors, video, 0.5)
    with pytest.raises(ValueError, match=message):
        solve(video, None, PenaltyConfig(lambda1=0.9, rank=2), factors=factors)


# -------------------------------------------------------------------- solve

def test_solve_recovers_rank_one_video():
    rng = np.random.default_rng(9)
    u = rng.normal(size=6)
    v = rng.normal(size=7)
    frames = np.repeat((np.outer(u, v))[None], 4, axis=0)
    video = observed_video(frames)
    cfg = PenaltyConfig(lambda1=1e-6, rank=2, max_iter=300, tol=1e-14, rng_seed=0)
    imputed, state = solve(video, None, cfg)
    rel = np.linalg.norm(imputed.frames - frames) / np.linalg.norm(frames)
    assert rel < 1e-3


def test_solve_single_frame_matches_reference_softimpute(rng):
    video = random_video(rng, 7, 6, 1, missing=0.4)
    cfg = PenaltyConfig(lambda1=0.9, rank=2, max_iter=200, tol=1e-12, rng_seed=4)
    start = init_factors(7, 6, 1, 2, 4)
    imputed, state = solve(video, None, cfg, factors=start)
    history = oracles.softimpute_als_reference(video.frames[0], video.masks[0], 0.9,
                                               start.left[0], start.right[0], state.sweeps)
    ref_left, ref_right = history[-1]
    reference, _ = oracles.finalize_literal(ref_left, ref_right, video.frames[0],
                                            video.masks[0], 0.9)
    rel = np.linalg.norm(imputed.frames[0] - reference) / np.linalg.norm(reference)
    assert rel < 1e-6


def test_solve_objective_never_above_init(rng):
    video = random_video(rng, 6, 8, 3)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=2,
                        max_iter=30, tol=1e-12, rng_seed=6)
    _, state = solve(video, aux, cfg)
    assert state.objective_history[-1] <= state.objective_history[0]


def test_solve_flags_non_convergence(rng):
    video = random_video(rng, 6, 8, 3)
    cfg = PenaltyConfig(lambda1=0.9, rank=2, max_iter=2, tol=1e-16, rng_seed=6)
    _, state = solve(video, None, cfg)
    assert state.sweeps == 2 and not state.converged


def test_solve_rejects_zero_lambda1(rng):
    video = random_video(rng, 4, 4, 2)
    with pytest.raises(ValueError):
        solve(video, None, PenaltyConfig(lambda1=0.0, rank=2))


def test_solve_rejects_missing_aux(rng):
    video = random_video(rng, 4, 4, 2)
    with pytest.raises(ValueError):
        solve(video, None, PenaltyConfig(lambda1=0.9, lambda3=0.1, rank=2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_fails_at_the_first_diverged_sweep(rng):
    # Products of factors near 1e200 overflow, so every iterate after the
    # start is inf or nan; without the guard all 20 sweeps run on them.
    video = random_video(rng, 6, 7, 3)
    start = init_factors(6, 7, 3, 2, 1)
    factors = FactorSequence(1e200 * start.left, 1e200 * start.right)
    with pytest.raises(ValueError, match=r"^solver diverged at sweep 1: objective (inf|nan); "
                                         r"first non-finite change on frame 0$"):
        solve(video, None, PenaltyConfig(lambda1=0.9, rank=2, max_iter=20), factors)


@settings(max_examples=30, deadline=None)
@given(sizes=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
       unit=st.sampled_from("mnT"), with_aux=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_solve_descends_on_degenerate_shapes(sizes, unit, with_aux, seed):
    # One of m, n, T is 1 and the rank is min(m, n), so the start's randomized
    # SVD takes k = min(m, n) columns and is exact: its objective is that of
    # the split SVD of each filled frame. The descent tolerance is that of
    # test_sweep_update_chain_is_non_increasing.
    m, n, T = (1 if name == unit else size for name, size in zip("mnT", sizes))
    rng = np.random.default_rng(seed)
    video = random_video(rng, m, n, T)
    aux = random_aux(rng, video) if with_aux else None
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.05 if with_aux else 0.0,
                        rank=min(m, n), max_iter=10, tol=1e-300, rng_seed=seed)
    _, state = solve(video, aux, cfg)
    chain = np.array(state.objective_history)
    assert np.all(np.diff(chain) <= 1e-9 * (1.0 + np.abs(chain[:-1])))
    filled = video.frames if aux is None else np.where(video.masks, video.frames, aux.frames)
    u, sigma, vt = np.linalg.svd(filled, full_matrices=False)
    root = np.sqrt(sigma)[:, None, :]
    split = FactorSequence(u * root, np.swapaxes(vt, 1, 2) * root)
    assert chain[0] == pytest.approx(objective(video, aux, split, cfg), rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ spectral start

def test_solve_start_is_bit_identical_for_the_same_seed(rng):
    video = random_video(rng, 9, 11, 4)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=3, max_iter=3, rng_seed=7)
    (first, state_a), (second, state_b) = solve(video, aux, cfg), solve(video, aux, cfg)
    assert state_a.objective_history == state_b.objective_history
    np.testing.assert_array_equal(state_a.factors.left, state_b.factors.left)
    np.testing.assert_array_equal(state_a.factors.right, state_b.factors.right)
    np.testing.assert_array_equal(first.frames, second.frames)


def test_solve_on_a_frame_below_lambda1():
    # Every singular value of frame 2 lies below lambda1. The start keeps its
    # columns (unshrunk), so the sweeps decide: alone (lambda2 = 0) the frame
    # shrinks to exactly 0 with effective rank 0, and with lambda2 > 0 it
    # follows its neighbours to the minimum that a random start reaches. A
    # start shrunk by lambda1 would hold that frame at 0 for good.
    rng = np.random.default_rng(3)
    T, m, n, r = 6, 20, 30, 3
    u, v = rng.normal(size=(m, r)), rng.normal(size=(n, r))
    frames = np.stack([u @ np.diag([3.0, 2.0, 1.0 + 0.1 * t]) @ v.T for t in range(T)])
    frames[2] *= 0.01
    video = MaskedVideo(frames, rng.random(frames.shape) < 0.6)
    assert np.linalg.svd(video.frames[2], compute_uv=False).max() < 0.9
    for lam2 in (0.0, 0.5):
        cfg = PenaltyConfig(lambda1=0.9, lambda2=lam2, rank=r, max_iter=5000, tol=1e-10,
                            rng_seed=1)
        imputed, state = solve(video, None, cfg)
        _, reference = solve(video, None, cfg, factors=init_factors(m, n, T, r, 1))
        final, best = state.objective_history[-1], reference.objective_history[-1]
        assert state.converged and abs(final - best) <= 1e-3 * best
        if lam2 == 0.0:
            np.testing.assert_array_equal(imputed.frames[2], 0.0)
            assert imputed.effective_ranks[2] == 0
        else:
            assert np.linalg.norm(imputed.frames[2]) > 1.0
            assert imputed.effective_ranks[2] == r


@pytest.fixture(scope="module")
def demo_problem():
    from vista.missingness import MissingnessSpec, apply
    from vista.spherical import build_auxiliary
    from vista.synthetic import make_demo_video

    spec = MissingnessSpec(pattern="temporal-patch", patch_size=30, shift=6, rng_seed=3)
    video, _ = apply(make_demo_video(60, 90, 24, seed=11), spec)
    return video, build_auxiliary(video, l_max=6, v=0.1)


@pytest.mark.parametrize("lam2, lam3", [(0.0, 0.0), (0.05, 0.01)], ids=["soft", "full"])
def test_spectral_start_reaches_the_random_start_minimum(demo_problem, lam2, lam3):
    # Both starts run to the same tight stop, so the gap measures where each
    # start leads and not where the default stop cuts the run.
    from vista.transform import fit_transform

    video, aux_raw = demo_problem
    transformed, aux, _ = fit_transform(video, aux_raw if lam3 > 0 else None, 0.5)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=lam2, lambda3=lam3, rank=8, max_iter=20000,
                        tol=1e-10, rng_seed=5)
    _, spectral = solve(transformed, aux, cfg)
    _, reference = solve(transformed, aux, cfg, factors=init_factors(60, 90, 24, 8, 5))
    assert spectral.converged and reference.converged
    final, best = spectral.objective_history[-1], reference.objective_history[-1]
    assert abs(final - best) <= 1e-3 * best


# --------------------------------------------------------------- invariants

def test_fill_in_bound_holds_with_equality_at_current(rng):
    # Masked residual <= filled-in residual, equality when the candidate
    # equals the fill-in source.
    for _ in range(25):
        m, n, r = 5, 6, 2
        frame = rng.normal(size=(m, n))
        mask = rng.random((m, n)) > 0.5
        current = rng.normal(size=(m, r))
        candidate = rng.normal(size=(m, r))
        basis = rng.normal(size=(n, r))
        filled = np.where(mask, frame, current @ basis.T)
        masked = np.sum((mask * (frame - candidate @ basis.T)) ** 2)
        surrogate = np.sum((filled - candidate @ basis.T) ** 2)
        assert masked <= surrogate + 1e-12
        at_current = np.sum((filled - current @ basis.T) ** 2)
        masked_current = np.sum((mask * (frame - current @ basis.T)) ** 2)
        assert abs(at_current - masked_current) <= 1e-12 * (1.0 + masked_current)


def test_surrogate_tight_at_current_iterate(rng):
    video = random_video(rng, 5, 6, 3)
    aux = random_aux(rng, video)
    left = rng.normal(size=(3, 5, 2))
    right = rng.normal(size=(3, 6, 2))
    for t in range(3):
        q_true = oracles.partial_objective_left(left[t], t, left, right, video.frames,
                                                video.masks, aux.frames, 0.9, 0.05, 0.01)
        q_sur = oracles.surrogate_left(left[t], t, left, right, video.frames,
                                       video.masks, aux.frames, 0.9, 0.05, 0.01)
        assert abs(q_true - q_sur) <= 1e-10 * (1.0 + abs(q_true))


def test_per_sweep_descent_lower_bound(rng):
    video = random_video(rng, 6, 7, 4)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.8, lambda2=0.2, lambda3=0.05, rank=2, rng_seed=8)
    state = make_state(init_factors(6, 7, 4, 2, 8))
    for _ in range(8):
        sweep(state, video, aux, cfg, record_factors=True)
    T = 4
    for k in range(state.sweeps):
        drop = state.objective_history[k] - state.objective_history[k + 1]
        old = state.factor_history[k]
        new = state.factor_history[k + 1]
        bound = 0.0
        for t in range(T):
            inner = 1.0 if 1 <= t <= T - 2 else 0.0
            coef = 1.0 + cfg.lambda2 * (1.0 + inner) + cfg.lambda3
            d_left = old.left[t] - new.left[t]
            d_right = old.right[t] - new.right[t]
            bound += 0.5 * cfg.lambda1 * (np.sum(d_left ** 2) + np.sum(d_right ** 2))
            bound += 0.5 * coef * (np.sum((d_left @ old.right[t].T) ** 2)
                                   + np.sum((new.left[t] @ d_right.T) ** 2))
        assert drop >= bound - 1e-9


def test_min_sweep_drop_obeys_rate_bound(rng):
    video = random_video(rng, 8, 9, 3)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.1, rank=2, max_iter=50,
                        tol=1e-300, rng_seed=9)
    _, state = solve(video, None, cfg)
    K = state.sweeps
    drops = -np.diff(state.objective_history)
    assert drops.min() >= -1e-9
    assert drops.min() <= (state.objective_history[0] - state.objective_history[-1]) / K + 1e-9


def test_rate_corollaries_with_empirical_gram_bounds(rng):
    # The factor-change rate corollaries hold with trajectory-measured
    # bounds on the factor Gram spectra standing in for the assumed ones.
    video = random_video(rng, 7, 8, 3)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.15, lambda3=0.0, rank=2,
                        max_iter=40, tol=1e-300, rng_seed=14)
    state = SolverState(factors=init_factors(7, 8, 3, 2, 14))
    for _ in range(cfg.max_iter):
        sweep(state, video, None, cfg, record_factors=True)
    eigs = []
    for snap in state.factor_history:
        for t in range(3):
            eigs.extend(np.linalg.eigvalsh(snap.left[t].T @ snap.left[t]))
            eigs.extend(np.linalg.eigvalsh(snap.right[t].T @ snap.right[t]))
    lower, upper = min(eigs), max(eigs)
    assert lower > 0
    K = state.sweeps
    budget = (state.objective_history[0] - state.objective_history[-1]) / K
    factor_changes = []
    product_changes = []
    for k in range(K):
        old, new = state.factor_history[k], state.factor_history[k + 1]
        factor_changes.append(sum(
            np.sum((old.left[t] - new.left[t]) ** 2)
            + np.sum((old.right[t] - new.right[t]) ** 2) for t in range(3)))
        product_changes.append(sum(
            np.sum(((old.left[t] - new.left[t]) @ old.right[t].T) ** 2)
            + np.sum((new.left[t] @ (old.right[t] - new.right[t]).T) ** 2)
            for t in range(3)))
    coef = 1.0 + cfg.lambda2 + cfg.lambda3
    assert min(factor_changes) <= 2.0 * budget / (coef * lower + cfg.lambda1) + 1e-9
    assert min(product_changes) <= 2.0 * upper * budget / (coef * upper + cfg.lambda1) + 1e-9


def test_orthonormal_init_satisfies_trace_norm_identity():
    factors = init_factors(7, 6, 3, 3, seed=12)
    for t in range(3):
        product = factors.left[t] @ factors.right[t].T
        nuclear = np.linalg.svd(product, compute_uv=False).sum()
        split = 0.5 * (np.sum(factors.left[t] ** 2) + np.sum(factors.right[t] ** 2))
        assert nuclear == pytest.approx(split, rel=1e-12)
        assert nuclear == pytest.approx(3.0, rel=1e-12)


def test_resymmetrized_factors_satisfy_trace_norm_identity(rng):
    left = rng.normal(size=(5, 3))
    right = rng.normal(size=(6, 3))
    u, sigma, vt = np.linalg.svd(left @ right.T, full_matrices=False)
    balanced_left = u[:, :3] * np.sqrt(sigma[:3])
    balanced_right = vt[:3].T * np.sqrt(sigma[:3])
    nuclear = np.linalg.svd(balanced_left @ balanced_right.T, compute_uv=False).sum()
    split = 0.5 * (np.sum(balanced_left ** 2) + np.sum(balanced_right ** 2))
    assert nuclear == pytest.approx(split, rel=1e-12)


def test_init_factors_deterministic_and_orthonormal():
    a = init_factors(6, 5, 2, 3, seed=21)
    b = init_factors(6, 5, 2, 3, seed=21)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    for t in range(2):
        np.testing.assert_allclose(a.left[t].T @ a.left[t], np.eye(3), atol=1e-12)
        np.testing.assert_allclose(a.right[t].T @ a.right[t], np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        init_factors(4, 3, 1, 4, seed=0)


# ------------------------------------------------------------- frame chunks

def _run_in_chunks(count, video, aux, cfg):
    with mock.patch.object(chunks, "_chunks", lambda dims: count):
        return solve(video, aux, cfg)


@settings(max_examples=40, deadline=None)
@given(sizes=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 7)),
       unit=st.sampled_from("mn-"), full_rank=st.booleans(), with_aux=st.booleans(),
       lam2=st.sampled_from([0.0, 0.1]), count=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_frame_chunks_match_one_chunk_bit_for_bit(sizes, unit, full_rank, with_aux, lam2,
                                                  count, seed):
    # Chunk a > 0 of the objective pass re-forms frame a-1's product for the
    # lambda2 term; more chunks than frames leaves some of them empty.
    m, n, T = (1 if name == unit else size for name, size in zip("mnT", sizes))
    rng = np.random.default_rng(seed)
    video = random_video(rng, m, n, T)
    aux = random_aux(rng, video) if with_aux else None
    cfg = PenaltyConfig(lambda1=0.5, lambda2=lam2, lambda3=0.05 if with_aux else 0.0,
                        rank=min(m, n) if full_rank else 1, max_iter=3, tol=1e-300,
                        rng_seed=seed)
    one, one_state = _run_in_chunks(1, video, aux, cfg)
    many, many_state = _run_in_chunks(count, video, aux, cfg)
    np.testing.assert_array_equal(many_state.factors.left, one_state.factors.left)
    np.testing.assert_array_equal(many_state.factors.right, one_state.factors.right)
    assert many_state.objective_history == one_state.objective_history
    np.testing.assert_array_equal(many_state.change_history, one_state.change_history)
    np.testing.assert_array_equal(many.frames, one.frames)
    np.testing.assert_array_equal(many.effective_ranks, one.effective_ranks)


def test_many_chunks_under_fast_thread_switching_match_one_chunk(rng):
    # More chunks than cores, switching threads as often as the interpreter
    # allows: a chunk that wrote outside its frames would show here.
    video = random_video(rng, 20, 30, 12)
    aux = random_aux(rng, video)
    cfg = PenaltyConfig(lambda1=0.5, lambda2=0.1, lambda3=0.05, rank=4, max_iter=4, tol=1e-300)
    one, one_state = _run_in_chunks(1, video, aux, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many, many_state = _run_in_chunks(8, video, aux, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert many_state.objective_history == one_state.objective_history
    np.testing.assert_array_equal(many_state.change_history, one_state.change_history)
    np.testing.assert_array_equal(many_state.factors.left, one_state.factors.left)
    np.testing.assert_array_equal(many.frames, one.frames)


_THREADS_CHILD = """
import hashlib
import numpy as np
from vista.evaluation import compare_models
from vista.solver import solve
from vista.spherical import build_auxiliary
from vista.synthetic import make_demo_video
from vista.video import AuxiliaryVideo, MaskedVideo, PenaltyConfig

truth = make_demo_video(120, 180, 6, seed=3)
video = MaskedVideo(truth, np.random.default_rng(4).random(truth.shape) >= 0.3)
aux = AuxiliaryVideo(np.roll(truth, 1, axis=0))
cfg = PenaltyConfig(lambda1=0.5, lambda2=0.05, lambda3=0.01, rank=5, max_iter=8, tol=1e-300,
                    rng_seed=2)
imputed, state = solve(video, aux, cfg)
print(np.array(state.objective_history).tobytes().hex())
print(np.concatenate(state.change_history).tobytes().hex())
print(hashlib.sha256(imputed.frames.tobytes()).hexdigest())
print(hashlib.sha256(build_auxiliary(video, l_max=11, v=0.1).frames.tobytes()).hexdigest())
report = compare_models({"full": imputed.frames}, truth, np.ones(truth.shape, dtype=bool))
print(report.frame_rse["full"].tobytes().hex())
"""


def test_solve_is_byte_identical_at_one_and_at_default_blas_threads():
    # OpenBLAS splits dot products above 10000 entries, and the matmuls and
    # factorizations of the spherical-harmonics fit, over its threads. solve
    # and build_auxiliary hold it at one thread; evaluation sums its squares
    # with numpy's pairwise sum (21600 pixels a frame here), not with BLAS.
    src = Path(solver.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(src)
    outputs = [subprocess.run([sys.executable, "-c", _THREADS_CHILD], capture_output=True,
                              text=True, check=True, env={**env, **extra}).stdout
               for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert outputs[0].count("\n") == 5
    assert outputs[0] == outputs[1]


@pytest.fixture
def blas():
    """numpy's OpenBLAS (get, set), with its thread count put back after the test."""
    pair = chunks._blas_threads()
    if pair is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    before = pair[0]()
    yield pair
    pair[1](before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_restores_the_blas_thread_count(rng, blas, monkeypatch):
    get, set_ = blas
    seen = []
    count = chunks._chunks

    def counting(dims):
        seen.append(get())
        return count(dims)

    # Built before the spy: MaskedVideo runs a chunked pass that calls no BLAS.
    video = random_video(rng, 6, 7, 3)
    monkeypatch.setattr(chunks, "_chunks", counting)
    set_(2)
    solve(video, None, PenaltyConfig(lambda1=0.9, rank=2, max_iter=3))
    assert get() == 2 and seen and set(seen) == {1}

    start = init_factors(6, 7, 3, 2, 1)
    diverging = FactorSequence(1e200 * start.left, 1e200 * start.right)
    with pytest.raises(ValueError, match="diverged"):
        solve(video, None, PenaltyConfig(lambda1=0.9, rank=2, max_iter=3), diverging)
    assert get() == 2

    start.right[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="on frame 1"):
        finalize(start, video, 0.9)
    assert get() == 2

    fitted = []
    fit = spherical._fit

    def counting_fit(*args):
        fitted.append(get())
        return fit(*args)

    monkeypatch.setattr(spherical, "_fit", counting_fit)
    spherical.build_auxiliary(video, l_max=1, v=0.1)
    assert get() == 2 and fitted == [1]
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        spherical.build_auxiliary(video, l_max=11, v=0.0)
    assert get() == 2 and fitted == [1, 1]


def test_finalize_raises_the_lowest_failing_frame_after_every_chunk(rng, monkeypatch):
    monkeypatch.setattr(chunks, "_chunks", lambda dims: 3)
    video = random_video(rng, 6, 7, 6)
    factors = init_factors(6, 7, 6, 2, 1)
    factors.right[3, 0, 0] = factors.right[5, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="on frame 3"):
        finalize(factors, video, 0.9)


def test_blas_lookup_waits_for_the_first_solve_and_leaves_scipy_alone():
    src = Path(solver.__file__).resolve().parents[1]
    code = """
import sys
import numpy as np
import vista.cli
from vista import chunks, solver
from vista.video import MaskedVideo, PenaltyConfig
from vista.evaluation import compare_models
frames = np.random.default_rng(0).random((2, 4, 5))
compare_models({"soft": frames}, frames, frames > 0.3)
assert chunks._blas_threads.cache_info().currsize == 0
solver.solve(MaskedVideo(frames, frames > 0.3), None, PenaltyConfig(lambda1=0.9, rank=2))
assert chunks._blas_threads.cache_info().currsize == 1
assert not [name for name in sys.modules if name.startswith("scipy")]
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
