import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from vista.spherical import (
    ShModel,
    SphericalGrid,
    basis_matrix,
    build_auxiliary,
    coeff_count,
    coeff_index,
    fit_frame,
)
from vista.video import MaskedVideo

from conftest import observed_video, random_video

import oracles


def basis_value(l, m, theta, phi):
    """One production basis function at one point: basis_matrix on a one-cell grid."""
    return basis_matrix(SphericalGrid([theta], [phi]), l)[0, coeff_index(l, m)]


def quadrature_grid(n_theta=48, n_phi=96):
    """Gauss-Legendre colatitudes with weights plus a uniform azimuth grid."""
    nodes, weights = leggauss(n_theta)
    theta = np.arccos(nodes)[::-1]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    cell = np.outer(weights[::-1], np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    return SphericalGrid(theta, phi), cell


def test_coeff_indexing():
    assert coeff_count(11) == 144
    assert coeff_index(0, 0) == 0
    assert coeff_index(2, -2) == 4
    assert coeff_index(2, 2) == 8
    with pytest.raises(ValueError):
        coeff_index(1, 2)


def test_constant_mode_value():
    # Unit-norm constant mode: quadrature of its square over the sphere is one.
    value = basis_value(0, 0, 0.7, 1.3)
    assert value == pytest.approx(0.2820948, abs=1e-7)
    grid, cell = quadrature_grid()
    column = basis_matrix(grid, 0)[:, 0]
    assert np.sum(cell * column ** 2) == pytest.approx(1.0, rel=1e-12)


def test_zonal_degree_one_vanishes_at_equator():
    assert basis_value(1, 0, np.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_discrete_orthonormality():
    grid, cell = quadrature_grid()
    design = basis_matrix(grid, 8)
    gram = design.T @ (design * cell[:, None])
    assert np.abs(gram - np.eye(coeff_count(8))).max() < 1e-6


@pytest.mark.parametrize("l,m", [(1, 0), (3, 2), (5, -4), (7, 7), (11, -11), (11, 3)])
def test_basis_matches_scipy_reference(l, m):
    rng = np.random.default_rng(coeff_index(l, m))
    for _ in range(5):
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        assert basis_value(l, m, theta, phi) == pytest.approx(
            oracles.real_sph_harm_scipy(l, m, theta, phi), rel=1e-10, abs=1e-12)


def test_fit_constant_frame_loads_only_constant_mode():
    grid = SphericalGrid.from_shape(20, 30)
    frame = np.full((20, 30), 2.5)
    model = fit_frame(frame, np.ones((20, 30), bool), grid, 4, 0.0)
    assert model.coeffs[coeff_index(0, 0)] == pytest.approx(2.5 * np.sqrt(4.0 * np.pi), rel=1e-10)
    rest = model.coeffs.copy()
    rest[0] = 0.0
    assert np.abs(rest).max() < 1e-8


def test_fit_recovers_bandlimited_frame_and_round_trips():
    rng = np.random.default_rng(17)
    grid = SphericalGrid.from_shape(40, 80)
    l_max = 7
    coeffs = rng.normal(size=coeff_count(l_max))
    frame = (basis_matrix(grid, l_max) @ coeffs).reshape(40, 80)
    model = fit_frame(frame, np.ones((40, 80), bool), grid, l_max, 0.0)
    assert np.linalg.norm(model.coeffs - coeffs) / np.linalg.norm(coeffs) < 1e-6
    np.testing.assert_allclose(oracles.render(model, grid, clamp_negative=False), frame,
                               atol=1e-5)


def test_fit_with_mask_uses_only_observed_pixels(rng):
    grid = SphericalGrid.from_shape(24, 36)
    coeffs = rng.normal(size=coeff_count(3))
    frame = (basis_matrix(grid, 3) @ coeffs).reshape(24, 36)
    corrupted = frame.copy()
    mask = rng.random((24, 36)) > 0.4
    corrupted[~mask] = 1e6
    model = fit_frame(corrupted, mask, grid, 3, 0.0)
    assert np.linalg.norm(model.coeffs - coeffs) / np.linalg.norm(coeffs) < 1e-8


@pytest.mark.parametrize("missing", [0.2, 0.8])
def test_fit_matches_ridge_on_observed_rows(rng, missing):
    # A few missing pixels and a few observed ones: the separable Gram's cost
    # does not depend on which, and neither may its result.
    grid = SphericalGrid.from_shape(18, 30)
    frame = rng.normal(size=(18, 30))
    mask = rng.random((18, 30)) > missing
    rows = basis_matrix(grid, 4)[mask.ravel()]
    gram = rows.T @ rows + 0.3 * np.eye(rows.shape[1])
    expected = np.linalg.solve(gram, rows.T @ frame[mask])
    model = fit_frame(frame, mask, grid, 4, 0.3)
    np.testing.assert_allclose(model.coeffs, expected, rtol=1e-10, atol=1e-12)


def _mask(kind, rng, m, n):
    if kind == "patch":
        mask = np.ones((m, n), bool)
        mask[m // 4: m // 4 + max(1, m // 2), n // 3: n // 3 + max(1, n // 2)] = False
        mask[0, 0] = True
    elif kind == "random 60%":
        mask = rng.random((m, n)) > 0.6
        mask[-1, -1] = True
    elif kind == "full":
        mask = np.ones((m, n), bool)
    else:  # one observed pixel
        mask = np.zeros((m, n), bool)
        mask[m // 2, n // 2] = True
    return mask


def _assert_close(actual, expected):
    # rtol 1e-10, with the frame's scale as the floor for values near zero.
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-10 * max(np.abs(expected).max(), 1e-300))


@pytest.mark.parametrize("kind", ["patch", "random 60%", "full", "one pixel"])
@pytest.mark.parametrize("m,n", [(13, 24), (12, 25), (1, 9), (8, 1), (1, 1)])
@pytest.mark.parametrize("l_max", [0, 1, 6])
def test_separable_fit_matches_dense_design_oracle(rng, kind, m, n, l_max):
    grid = SphericalGrid.from_shape(m, n)
    design = basis_matrix(grid, l_max)
    frames = 1.0 + np.abs(rng.normal(size=(3, m, n)))
    masks = np.stack([_mask(kind, rng, m, n) for _ in range(3)])
    frames[~masks] = 0.0
    v = 0.1
    _assert_close(build_auxiliary(MaskedVideo(frames, masks), l_max, v).frames,
                  oracles.sh_auxiliary(design, frames, masks, v))
    # fit_frame returns the coefficients in canonical l(l+1)+m order.
    expected = oracles.sh_ridge_fit(design, frames[:1], masks[:1], v)[0]
    _assert_close(fit_frame(frames[0], masks[0], grid, l_max, v).coeffs, expected)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 9), n=st.integers(1, 9), T=st.integers(1, 3), l_max=st.integers(0, 4),
       v=st.sampled_from([0.05, 1.0]), seed=st.integers(0, 2**32 - 1),
       missing=st.floats(0.0, 0.95))
def test_separable_fit_matches_dense_oracle_on_any_shape_and_mask(m, n, T, l_max, v, seed,
                                                                   missing):
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(T, m, n))
    masks = rng.random((T, m, n)) >= missing
    masks[:, rng.integers(m), rng.integers(n)] = True
    frames[~masks] = 0.0
    expected = oracles.sh_auxiliary(basis_matrix(SphericalGrid.from_shape(m, n), l_max),
                                    frames, masks, v)
    _assert_close(build_auxiliary(MaskedVideo(frames, masks), l_max, v).frames, expected)


def test_build_auxiliary_never_forms_the_design_matrix(rng):
    # At 181x361 and l_max 11 the (cells, K) design alone is 75 MB.
    video = MaskedVideo(rng.random((2, 181, 361)), rng.random((2, 181, 361)) > 0.5)
    tracemalloc.start()
    try:
        build_auxiliary(video, l_max=11, v=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"build_auxiliary allocated {peak / 2**20:.1f} MiB"


def test_unregularized_fit_with_too_few_pixels_is_singular(rng):
    grid = SphericalGrid.from_shape(6, 8)
    frames = 1.0 + rng.random((2, 6, 8))
    masks = np.ones((2, 6, 8), bool)
    masks[1].ravel()[10:] = False  # 10 observed pixels, 25 coefficients at l_max 4
    with pytest.raises(np.linalg.LinAlgError):
        fit_frame(frames[1], masks[1], grid, 4, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        build_auxiliary(MaskedVideo(frames, masks), l_max=4, v=0.0)


@pytest.mark.parametrize("v", [np.nan, np.inf, -0.5])
def test_bad_ridge_weight_is_rejected_by_name(rng, v):
    grid = SphericalGrid.from_shape(6, 8)
    frames = 1.0 + rng.random((2, 6, 8))
    masks = np.ones((2, 6, 8), bool)
    with pytest.raises(ValueError, match=f"ridge weight v .* got {v!r}"):
        fit_frame(frames[0], masks[0], grid, 2, v)
    with pytest.raises(ValueError, match=f"ridge weight v .* got {v!r}"):
        build_auxiliary(MaskedVideo(frames, masks), l_max=2, v=v)


@pytest.mark.parametrize("l_max", [-1, -3])
def test_negative_degree_cap_is_rejected_by_name(rng, l_max):
    # coeff_count(-1) is 0, so an unchecked -1 rendered an all-zero video.
    grid = SphericalGrid.from_shape(6, 8)
    named = f"degree cap must be non-negative, got {l_max}"
    with pytest.raises(ValueError, match=named):
        basis_matrix(grid, l_max)
    with pytest.raises(ValueError, match=named):
        fit_frame(1.0 + rng.random((6, 8)), np.ones((6, 8), bool), grid, l_max, 0.1)
    with pytest.raises(ValueError, match=named):
        build_auxiliary(observed_video(1.0 + rng.random((2, 6, 8))), l_max=l_max)
    with pytest.raises(ValueError, match=f"l_max must be non-negative, got {l_max}"):
        ShModel(l_max=l_max, coeffs=np.zeros(0))


def test_ridge_monotone_shrinkage(rng):
    grid = SphericalGrid.from_shape(18, 24)
    frame = rng.normal(size=(18, 24))
    mask = rng.random((18, 24)) > 0.3
    norms = [np.linalg.norm(fit_frame(frame, mask, grid, 5, v).coeffs)
             for v in (0.0, 0.1, 1.0, 10.0, 1e4)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0]


def test_fit_rejects_empty_mask():
    grid = SphericalGrid.from_shape(6, 8)
    with pytest.raises(ValueError):
        fit_frame(np.zeros((6, 8)), np.zeros((6, 8), bool), grid, 2, 0.1)


def test_fit_single_pixel_is_bounded_by_ridge():
    grid = SphericalGrid.from_shape(12, 16)
    frame = np.zeros((12, 16))
    frame[5, 7] = 3.0
    mask = np.zeros((12, 16), bool)
    mask[5, 7] = True
    model = fit_frame(frame, mask, grid, 4, 0.5)
    values = oracles.render(model, grid)
    assert np.isfinite(values).all()
    assert values.max() <= 10.0


def test_render_zero_and_constant_models():
    # The auxiliary build renders coefficients as basis_matrix @ coeffs.
    grid = SphericalGrid.from_shape(10, 14)
    np.testing.assert_array_equal(basis_matrix(grid, 2) @ np.zeros(9), np.zeros(140))
    constant = ShModel(l_max=0, coeffs=np.array([np.sqrt(4.0 * np.pi)]))
    np.testing.assert_allclose(basis_matrix(grid, 0) @ constant.coeffs, np.ones(140), rtol=1e-12)
    np.testing.assert_allclose(oracles.render(constant, grid), np.ones((10, 14)), rtol=1e-12)


def test_render_clamps_negative_values():
    # build_auxiliary clamps the negative values of its render to 0.
    grid = SphericalGrid.from_shape(8, 10)
    model = ShModel(l_max=1, coeffs=np.array([0.0, 0.0, 5.0, 0.0]))
    raw = oracles.render(model, grid, clamp_negative=False)
    assert raw.min() < 0.0
    aux = build_auxiliary(observed_video(raw[None]), l_max=1, v=1e-9)
    assert aux.frames.min() == 0.0
    np.testing.assert_allclose(aux.frames[0], np.maximum(raw, 0.0), atol=1e-6)


def test_render_fit_superposition(rng):
    # Unclamped render-of-fit is linear in the frame for a fixed mask.
    grid = SphericalGrid.from_shape(14, 18)
    mask = rng.random((14, 18)) > 0.4
    a = rng.normal(size=(14, 18))
    b = rng.normal(size=(14, 18))

    def smooth(frame):
        return oracles.render(fit_frame(frame, mask, grid, 4, 0.2), grid, clamp_negative=False)

    np.testing.assert_allclose(smooth(2.0 * a + 3.0 * b),
                               2.0 * smooth(a) + 3.0 * smooth(b), atol=1e-9)


def test_build_auxiliary_matches_per_frame_fit(rng):
    frames = 2.0 + np.abs(rng.normal(size=(3, 16, 20)))
    masks = rng.random((3, 16, 20)) > 0.4
    masks[:, 0, 0] = True
    video = MaskedVideo(frames, masks)
    grid = SphericalGrid.from_shape(16, 20)
    aux = build_auxiliary(video, l_max=4, v=0.1)
    assert aux.dims == video.dims
    for t in range(3):
        model = fit_frame(video.frames[t], video.masks[t], grid, 4, 0.1)
        np.testing.assert_allclose(aux.frames[t], oracles.render(model, grid), atol=1e-12)
    assert coeff_count(11) == 144  # the default degree cap carries 144 coefficients


def test_build_auxiliary_leaves_its_input_as_it_is(rng):
    video = random_video(rng, 9, 14, 3, missing=0.4)
    frames, masks = video.frames.copy(), video.masks.copy()
    build_auxiliary(video, l_max=3)
    for array, copy in ((video.frames, frames), (video.masks, masks)):
        assert array.tobytes() == copy.tobytes()
        assert not array.flags.writeable


def test_auxiliary_beats_zero_predictor_on_patch(rng):
    # On a smooth video with a missing patch, the smooth render must do
    # better on the hidden pixels than predicting zero (RSE 100%).
    from vista.evaluation import rse
    from vista.missingness import MissingnessSpec, apply
    from vista.synthetic import make_demo_video

    truth = make_demo_video(m=40, n=60, frames=4, seed=2)
    video, dropped = apply(truth, MissingnessSpec(pattern="temporal-patch",
                                                  patch_size=20, rng_seed=1))
    aux = build_auxiliary(video, l_max=6, v=0.1)
    scores = [rse(truth[t], aux.frames[t], dropped[t]) for t in range(4)]
    assert max(scores) < 100.0


def test_grid_validation():
    with pytest.raises(ValueError):
        SphericalGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]))  # theta hits the pole
    with pytest.raises(ValueError):
        SphericalGrid(np.array([1.0, 0.5]), np.array([0.0, 1.0]))  # not monotone


@pytest.mark.parametrize("build, message", [
    (lambda: SphericalGrid(np.full((2, 2), 1.0), [0.0, 1.0]),
     "theta and phi must be one-dimensional"),
    (lambda: ShModel(l_max=1, coeffs=np.zeros(3)), r"expected 4 coefficients, got \(3,\)"),
    (lambda: ShModel(l_max=1, coeffs=[0.0, np.nan, 0.0, 0.0]), "coefficients must be finite"),
    (lambda: fit_frame(np.ones((3, 4)), np.ones((4, 3), bool), SphericalGrid.from_shape(3, 4),
                       1, 0.1),
     r"frame shape \(3, 4\) does not match mask shape \(4, 3\)"),
], ids=["grid-2d-axis", "model-coeff-count", "model-non-finite", "fit-shape-mismatch"])
def test_malformed_spherical_inputs_are_rejected_by_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()
