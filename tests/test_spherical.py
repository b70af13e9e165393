import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from vista.spherical import (
    ShModel,
    SphericalGrid,
    basis_matrix,
    build_auxiliary,
    coeff_count,
    coeff_index,
    fit_frame,
    render,
)
from vista.video import MaskedVideo

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
    np.testing.assert_allclose(render(model, grid, clamp_negative=False), frame, atol=1e-5)


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
    # Covers both ways the Gram is formed: full minus missing rows, and
    # observed rows alone when more than half of the pixels are missing.
    grid = SphericalGrid.from_shape(18, 30)
    frame = rng.normal(size=(18, 30))
    mask = rng.random((18, 30)) > missing
    rows = basis_matrix(grid, 4)[mask.ravel()]
    gram = rows.T @ rows + 0.3 * np.eye(rows.shape[1])
    expected = np.linalg.solve(gram, rows.T @ frame[mask])
    model = fit_frame(frame, mask, grid, 4, 0.3)
    np.testing.assert_allclose(model.coeffs, expected, rtol=1e-10, atol=1e-12)


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
    values = render(model, grid)
    assert np.isfinite(values).all()
    assert values.max() <= 10.0


def test_render_zero_and_constant_models():
    grid = SphericalGrid.from_shape(10, 14)
    zero = ShModel(l_max=2, coeffs=np.zeros(9))
    np.testing.assert_array_equal(render(zero, grid), np.zeros((10, 14)))
    constant = ShModel(l_max=0, coeffs=np.array([np.sqrt(4.0 * np.pi)]))
    np.testing.assert_allclose(render(constant, grid), np.ones((10, 14)), rtol=1e-12)


def test_render_clamps_negative_values():
    grid = SphericalGrid.from_shape(8, 10)
    model = ShModel(l_max=1, coeffs=np.array([0.0, 0.0, 5.0, 0.0]))
    clamped = render(model, grid)
    assert clamped.min() == 0.0
    raw = render(model, grid, clamp_negative=False)
    assert raw.min() < 0.0


def test_render_fit_superposition(rng):
    # Unclamped render-of-fit is linear in the frame for a fixed mask.
    grid = SphericalGrid.from_shape(14, 18)
    mask = rng.random((14, 18)) > 0.4
    a = rng.normal(size=(14, 18))
    b = rng.normal(size=(14, 18))

    def smooth(frame):
        return render(fit_frame(frame, mask, grid, 4, 0.2), grid, clamp_negative=False)

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
        np.testing.assert_allclose(aux.frames[t], render(model, grid), atol=1e-12)
    assert coeff_count(11) == 144  # the default degree cap carries 144 coefficients


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
