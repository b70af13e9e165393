import numpy as np
import pytest

from vista.transform import (
    TransformParams,
    boxcox,
    boxcox_inverse,
    fit_transform,
    invert,
    suggest_boxcox_lambda,
)
from vista.video import AuxiliaryVideo, MaskedVideo

from conftest import random_video


def test_boxcox_analytic_values():
    assert boxcox(1.0, 0.73) == pytest.approx(0.0, abs=1e-15)
    assert boxcox(4.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert boxcox(np.e, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_boxcox_rejects_nonpositive():
    with pytest.raises(ValueError, match="entry 1"):
        boxcox(np.array([1.0, -2.0, 3.0]), 0.5)


def test_boxcox_strictly_increasing(rng):
    for lam in (-1.0, -0.3, 0.0, 0.5, 1.0, 2.0):
        y = np.sort(rng.uniform(0.01, 50.0, size=200))
        out = boxcox(y, lam)
        assert np.all(np.diff(out) > 0)


def test_boxcox_inverse_clamps_and_counts():
    values, clamped = boxcox_inverse(np.array([-3.0, 0.0, 1.0]), 0.5)
    assert clamped == 1
    np.testing.assert_allclose(values, [0.0, 1.0, 2.25])


def test_fit_transform_standardizes_observed_population(rng):
    video = random_video(rng, 8, 9, 4, positive=True)
    out, _, params = fit_transform(video, None, 0.5)
    observed = out.frames[out.masks]
    assert observed.mean() == pytest.approx(0.0, abs=1e-12)
    assert observed.std() == pytest.approx(1.0, rel=1e-12)
    assert "observed" in params.fitted_on


def test_fit_transform_pools_auxiliary_pixels(rng):
    video = random_video(rng, 8, 9, 4, positive=True)
    aux = AuxiliaryVideo(1.0 + np.abs(rng.normal(size=video.frames.shape)))
    out_v, out_a, params = fit_transform(video, aux, 0.5)
    pooled = np.concatenate([out_v.frames[out_v.masks], out_a.frames.ravel()])
    assert pooled.mean() == pytest.approx(0.0, abs=1e-12)
    assert pooled.std() == pytest.approx(1.0, rel=1e-12)
    # the observed population alone is deliberately not zero-mean here
    assert abs(out_v.frames[out_v.masks].mean()) > 1e-6


def test_fit_transform_rejects_constant_video():
    video = MaskedVideo.fully_observed(np.full((2, 3, 3), 7.0))
    with pytest.raises(ValueError, match="variance"):
        fit_transform(video, None, 0.5)


def test_fit_transform_names_offending_pixel():
    frames = np.ones((2, 3, 3))
    frames[1, 2, 0] = -5.0
    video = MaskedVideo.fully_observed(frames)
    with pytest.raises(ValueError, match=r"t=1, i=2, j=0"):
        fit_transform(video, None, 0.5)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_exponent_is_rejected_by_name(lam):
    video = MaskedVideo.fully_observed(1.0 + np.arange(18.0).reshape(2, 3, 3))
    with pytest.raises(ValueError, match=f"exponent must be finite, got {lam!r}"):
        fit_transform(video, None, lam)
    with pytest.raises(ValueError, match=f"exponent must be finite, got {lam!r}"):
        boxcox([1.0, 2.0], lam)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
def test_round_trip_identity(rng, lam):
    video = random_video(rng, 7, 8, 3, positive=True)
    out, _, params = fit_transform(video, None, lam)
    restored, clamped = invert(np.array(out.frames), params)
    assert clamped == 0
    assert np.abs(restored[video.masks] - video.frames[video.masks]).max() < 1e-10


def test_round_trip_identity_with_auxiliary(rng):
    video = random_video(rng, 6, 6, 2, positive=True)
    aux = AuxiliaryVideo(0.5 + np.abs(rng.normal(size=video.frames.shape)))
    out_v, out_a, params = fit_transform(video, aux, 0.4)
    restored, _ = invert(np.array(out_a.frames), params)
    assert np.abs(restored - aux.frames).max() < 1e-10


def test_invert_lambda_one_is_affine():
    params = TransformParams(boxcox_lambda=1.0, mean=0.0, std=1.0, offset=0.0,
                             fitted_on="test")
    restored, clamped = invert(np.array([[-0.5, 0.0, 2.0]]), params)
    np.testing.assert_allclose(restored, [[0.5, 1.0, 3.0]])
    assert clamped == 0


def test_invert_clamps_out_of_domain_and_counts():
    params = TransformParams(boxcox_lambda=0.5, mean=0.0, std=1.0, offset=1e-3,
                             fitted_on="test")
    restored, clamped = invert(np.array([[-5.0, 1.0]]), params)
    assert clamped == 1
    assert restored[0, 0] == 0.0  # clamped to the domain boundary, then floored at 0


def test_params_reject_bad_std():
    with pytest.raises(ValueError):
        TransformParams(boxcox_lambda=0.5, mean=0.0, std=0.0, offset=0.0, fitted_on="x")


def test_suggest_lambda_prefers_normalizing_exponent(rng):
    # Squaring a normal sample makes a sqrt-ish exponent the best normalizer.
    base = np.abs(rng.normal(loc=5.0, scale=1.0, size=4000))
    skewed = base ** 2
    best = suggest_boxcox_lambda(skewed, grid=np.linspace(-1.0, 2.0, 13))
    assert 0.0 <= best <= 1.0
