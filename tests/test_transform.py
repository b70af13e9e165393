import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vista.transform import TransformParams, fit_transform, invert
from vista.video import AuxiliaryVideo, MaskedVideo

import oracles
from conftest import random_video

_EXPONENTS = (-1.0, -0.3, 0.0, 0.5, 1.0, 2.0)


# The power transform runs inside fit_transform and invert; these two check
# the out-of-place oracle that the bit-for-bit tests below compare them with.
def test_boxcox_analytic_values():
    assert oracles.boxcox(1.0, 0.73) == pytest.approx(0.0, abs=1e-15)
    assert oracles.boxcox(4.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert oracles.boxcox(np.e, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_boxcox_strictly_increasing(rng):
    for lam in _EXPONENTS:
        y = np.sort(rng.uniform(0.01, 50.0, size=200))
        out = oracles.boxcox(y, lam)
        assert np.all(np.diff(out) > 0)


def test_fit_transform_standardizes_observed_population(rng):
    video = random_video(rng, 8, 9, 4, positive=True)
    out, _, _ = fit_transform(video, None, 0.5)
    observed = out.frames[out.masks]
    assert observed.mean() == pytest.approx(0.0, abs=1e-12)
    assert observed.std() == pytest.approx(1.0, rel=1e-12)


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


@pytest.mark.parametrize("offset", [-5.0, 0.0, np.nan, np.inf])
def test_bad_offset_is_rejected_by_name(rng, offset):
    # -5 used to pass whenever every pixel exceeded 5; the check comes first.
    video = MaskedVideo.fully_observed(10.0 + np.arange(18.0).reshape(2, 3, 3))
    aux = AuxiliaryVideo(10.0 + rng.random((2, 3, 3)))
    for companion in (None, aux):
        with pytest.raises(ValueError, match=f"offset must be finite and positive, "
                                             f"got {offset!r}"):
            fit_transform(video, companion, 0.5, offset)


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
    params = TransformParams(boxcox_lambda=1.0, mean=0.0, std=1.0, offset=0.0)
    restored, clamped = invert(np.array([[-0.5, 0.0, 2.0]]), params)
    np.testing.assert_allclose(restored, [[0.5, 1.0, 3.0]])
    assert clamped == 0


def test_invert_clamps_out_of_domain_and_counts():
    params = TransformParams(boxcox_lambda=0.5, mean=0.0, std=1.0, offset=1e-3)
    restored, clamped = invert(np.array([[-5.0, 0.0, 1.0]]), params)
    assert clamped == 1
    assert restored[0, 0] == 0.0  # clamped to the domain boundary, then floored at 0
    np.testing.assert_allclose(restored[0, 1:], [1.0 - 1e-3, 2.25 - 1e-3], rtol=1e-15)


def test_params_reject_bad_std():
    with pytest.raises(ValueError):
        TransformParams(boxcox_lambda=0.5, mean=0.0, std=0.0, offset=0.0)


@pytest.mark.parametrize("mean, std, named", [
    (0.0, np.inf, "std must be finite and positive, got inf"),
    (0.0, np.nan, "got nan"),
    (np.inf, 1.0, "mean must be finite, got inf"),
], ids=["std-inf", "std-nan", "mean-inf"])
def test_params_reject_non_finite_moments(mean, std, named):
    with pytest.raises(ValueError, match=named):
        TransformParams(boxcox_lambda=0.5, mean=mean, std=std, offset=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fit_transform_rejects_overflowed_standardization(rng):
    # Squares of values near 1e200 overflow, so the pooled std is inf and
    # every standardized pixel would become 0.
    video = MaskedVideo.fully_observed(1e200 * (1.0 + rng.random((2, 3, 4))))
    with pytest.raises(ValueError, match="std must be finite and positive, got inf"):
        fit_transform(video, None, 1.0)


_shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5)
_pixels = st.floats(0.0, 100.0, allow_subnormal=False)  # 0 is legal: the offset lifts it


@st.composite
def _pooled_inputs(draw):
    """A masked video with an observed pixel in every frame, an optional auxiliary video
    and a power-transform exponent."""
    shape = draw(_shapes)
    frames = draw(hnp.arrays(np.float64, shape, elements=_pixels))
    masks = draw(hnp.arrays(np.bool_, shape))
    kept = draw(st.lists(st.integers(0, shape[1] * shape[2] - 1),
                         min_size=shape[0], max_size=shape[0]))
    masks.reshape(shape[0], -1)[np.arange(shape[0]), kept] = True
    aux = None
    if draw(st.booleans()):
        aux = AuxiliaryVideo(draw(hnp.arrays(np.float64, shape, elements=_pixels)))
    return MaskedVideo(frames, masks), aux, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]))


def _separately_transformed(video, aux, lam, offset=1e-3):
    parts = [oracles.boxcox(video.frames[video.masks] + offset, lam)]
    if aux is not None:
        parts.append(oracles.boxcox(aux.frames.ravel() + offset, lam))
    pooled = np.concatenate(parts)
    assume(pooled.std() > 0)
    return pooled


@settings(max_examples=80, deadline=None)
@given(_pooled_inputs())
def test_pooled_moments_equal_those_of_the_concatenated_parts(inputs):
    video, aux, lam = inputs
    pooled = _separately_transformed(video, aux, lam)
    out_v, out_a, params = fit_transform(video, aux, lam)
    assert params.mean == float(pooled.mean())
    assert params.std == float(pooled.std())
    expected = (pooled - params.mean) / params.std
    observed = int(video.masks.sum())
    assert out_v.frames[video.masks].tobytes() == expected[:observed].tobytes()
    assert not out_v.frames[~video.masks].any()
    if aux is not None:
        assert out_a.frames.tobytes() == expected[observed:].tobytes()


@settings(max_examples=80, deadline=None)
@given(_pooled_inputs())
def test_invert_undoes_fit_transform(inputs):
    video, aux, lam = inputs
    _separately_transformed(video, aux, lam)
    out_v, out_a, params = fit_transform(video, aux, lam)
    restored, _ = invert(np.array(out_v.frames), params)
    assert np.abs(restored[video.masks] - video.frames[video.masks]).max() < 1e-10
    if aux is not None:
        restored, _ = invert(np.array(out_a.frames), params)
        assert np.abs(restored - aux.frames).max() < 1e-10


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_invert_matches_the_oracle_in_place(data):
    lam = data.draw(st.sampled_from(_EXPONENTS))
    frames = data.draw(hnp.arrays(np.float64, _shapes, elements=st.floats(-20.0, 20.0)))
    params = TransformParams(boxcox_lambda=lam, mean=data.draw(st.floats(-2.0, 2.0)),
                             std=data.draw(st.floats(0.5, 3.0)),
                             offset=data.draw(st.floats(1e-6, 1.0)))
    # Put frame 0's first pixel where lam * y + 1 = -1, outside the domain.
    if lam != 0.0:
        frames.flat[0] = (-2.0 / lam - params.mean) / params.std
    raw, expected_clamped = oracles.boxcox_inverse(frames * params.std + params.mean, lam)
    expected = np.where(raw - params.offset > 0, raw - params.offset, 0.0)
    restored, clamped = invert(frames, params)
    assert restored is frames
    assert restored.tobytes() == expected.tobytes()
    assert clamped == expected_clamped
    assert clamped >= (lam != 0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_positive_auxiliary_pixel_is_named(data):
    shape = data.draw(_shapes)
    t, i, j = (data.draw(st.integers(0, side - 1)) for side in shape)
    frames = np.ones(shape)
    frames[t, i, j] = -data.draw(st.floats(1e-3, 1e3))  # at most 0 after the offset
    frames[-1, -1, -1] = min(frames[-1, -1, -1], -1.0)  # a later bad pixel is not the one named
    video = MaskedVideo.fully_observed(1.0 + np.arange(np.prod(shape)).reshape(shape))
    with pytest.raises(ValueError, match=rf"^auxiliary pixel \(t={t}, i={i}, j={j}\) "
                                         "is non-positive after offset 0.001$"):
        fit_transform(video, AuxiliaryVideo(frames), 0.5)
