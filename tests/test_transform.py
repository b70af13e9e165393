import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vista import transform
from vista.transform import TransformParams, fit_transform, invert
from vista.video import AuxiliaryVideo, MaskedVideo, _give_up

import oracles
from conftest import observed_video, random_video

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


@pytest.mark.parametrize("with_aux, bound", [(True, 2.2), (False, 1.2)])
def test_fit_transform_peak_memory_in_video_arrays(rng, with_aux, bound):
    # One (T, m, n) float array is the unit. Each output is the one array
    # built for it, and the moments are taken a frame at a time: the peak is
    # the outputs themselves plus boolean temporaries of one eighth of the unit.
    video = random_video(rng, 40, 50, 30, missing=0.3, positive=True)
    aux = AuxiliaryVideo(1.0 + np.abs(rng.normal(size=video.frames.shape))) if with_aux else None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fit_transform(video, aux, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out[0].frames.shape == video.frames.shape
    assert peak / video.frames.nbytes < bound


def test_fit_transform_rejects_constant_video():
    video = observed_video(np.full((2, 3, 3), 7.0))
    with pytest.raises(ValueError, match="variance"):
        fit_transform(video, None, 0.5)


def test_fit_transform_rejects_a_constant_whose_computed_std_is_not_zero():
    # 13 pixels of 5.0: their transformed mean does not round back to their
    # value, so np.std's steps give about 9e-16, not 0.
    masks = np.ones((1, 4, 4), dtype=bool)
    masks[0, 1:4, 2] = False
    video = MaskedVideo(np.full((1, 4, 4), 5.0), masks)
    with pytest.raises(ValueError, match="pooled pixels have zero variance"):
        fit_transform(video, None, 0.5)


def test_fit_transform_names_offending_pixel():
    frames = np.ones((2, 3, 3))
    frames[1, 2, 0] = -5.0
    video = observed_video(frames)
    # An observed pixel is named before an auxiliary one, in whichever frames.
    aux_frames = np.ones((2, 3, 3))
    aux_frames[0, 0, 0] = -5.0
    for companion in (None, AuxiliaryVideo(aux_frames)):
        with pytest.raises(ValueError, match=r"^pixel \(t=1, i=2, j=0\)"):
            fit_transform(video, companion, 0.5)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_exponent_is_rejected_by_name(lam):
    video = observed_video(1.0 + np.arange(18.0).reshape(2, 3, 3))
    with pytest.raises(ValueError, match=f"exponent must be finite, got {lam!r}"):
        fit_transform(video, None, lam)


@pytest.mark.parametrize("offset", [-5.0, 0.0, np.nan, np.inf])
def test_bad_offset_is_rejected_by_name(rng, offset):
    # -5 used to pass whenever every pixel exceeded 5; the check comes first.
    video = observed_video(10.0 + np.arange(18.0).reshape(2, 3, 3))
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


def test_fit_transform_builds_in_its_inputs_only_when_given_up(rng):
    # A caller's video and auxiliary keep their bytes and stay read-only. A
    # given-up pair (vista.video._give_up) gets the same outputs built in
    # its own buffers, which it lets go.
    video = random_video(rng, 6, 7, 3, positive=True)
    aux = AuxiliaryVideo(0.5 + np.abs(rng.normal(size=video.frames.shape)))
    before = [item.frames.copy() for item in (video, aux)] + [video.masks.copy()]
    out, out_aux, params = fit_transform(video, aux, 0.4)
    for array, copy in zip((video.frames, aux.frames, video.masks), before):
        assert array.tobytes() == copy.tobytes()
        assert not array.flags.writeable
    spare = _give_up(MaskedVideo(video.frames, video.masks))
    spare_aux = _give_up(AuxiliaryVideo(aux.frames))
    buffers = spare.frames, spare_aux.frames
    again, again_aux, again_params = fit_transform(spare, spare_aux, 0.4)
    assert again_params == params
    assert spare.frames is None and spare_aux.frames is None
    for result, reference, buffer in zip((again, again_aux), (out, out_aux), buffers):
        assert result.frames.tobytes() == reference.frames.tobytes()
        assert result.frames is buffer and not buffer.flags.writeable


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


def test_invert_counts_clamps_a_frame_at_a_time(rng):
    # The clamp count holds one frame's boolean temporary at a time; a count
    # over all of (T, m, n) at once held T of them, 30 here.
    frames = rng.normal(size=(30, 40, 50))
    params = TransformParams(boxcox_lambda=0.5, mean=0.1, std=1.3, offset=1e-3)
    expected = int(np.count_nonzero((frames * params.std + params.mean) * 0.5 + 1.0 <= 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, clamped = invert(frames, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert clamped == expected > 0
    assert peak / frames[0].size < 2.0


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
    video = observed_video(1e200 * (1.0 + rng.random((2, 3, 4))))
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
    if pooled.min() == pooled.max():
        # No spread to standardize by, though np.std may leave a rounding residue.
        with pytest.raises(ValueError, match="pooled pixels have zero variance"):
            fit_transform(video, aux, lam, offset)
        assume(False)
    return pooled


def _larger_inputs(shape, with_aux, lam):
    """Inputs above numpy's 128-element pairwise-summation block, with sizes that
    leave remainders after its SIMD-width steps."""
    rng = np.random.default_rng(shape)
    masks = rng.random(shape) < 0.7
    masks[:, 0, 0] = True
    aux = AuxiliaryVideo(rng.uniform(0.0, 100.0, shape)) if with_aux else None
    return MaskedVideo(rng.uniform(0.0, 100.0, shape), masks), aux, lam


@settings(max_examples=80, deadline=None)
@given(_pooled_inputs())
@example(_larger_inputs((3, 13, 17), False, 0.0))
@example(_larger_inputs((3, 13, 17), False, 0.5))
@example(_larger_inputs((3, 13, 17), True, 0.0))
@example(_larger_inputs((3, 13, 17), True, 0.5))
@example(_larger_inputs((2, 37, 41), False, 0.0))
@example(_larger_inputs((2, 37, 41), False, 0.5))
@example(_larger_inputs((2, 37, 41), True, 0.0))
@example(_larger_inputs((2, 37, 41), True, 0.5))
def test_pooled_moments_are_per_frame_sums_near_those_of_the_concatenation(inputs):
    video, aux, lam = inputs
    pooled = _separately_transformed(video, aux, lam)
    out_v, out_a, params = fit_transform(video, aux, lam)
    assert (params.mean, params.std) == oracles.pooled_moments(video, aux, lam)
    # Per-frame sums reorder the additions of one pairwise reduction, so the
    # moments move by a few ulp of the pixels' scale (the mean can lie near 0):
    # 15000 drawn cases moved them by at most 10 ulp (mean) and 5 (std).
    scale = np.abs(pooled).mean()
    assert abs(params.mean - pooled.mean()) <= 16 * np.spacing(scale)
    assert abs(params.std - pooled.std()) <= 16 * np.spacing(max(scale, pooled.std()))
    expected = (pooled - params.mean) / params.std
    observed = int(video.masks.sum())
    assert out_v.frames[video.masks].tobytes() == expected[:observed].tobytes()
    assert not out_v.frames[~video.masks].any()
    if aux is not None:
        assert out_a.frames.tobytes() == expected[observed:].tobytes()


@pytest.mark.parametrize("with_aux", [False, True])
def test_power_transforms_each_pixel_once(rng, monkeypatch, with_aux):
    video = random_video(rng, 6, 7, 3, missing=0.3, positive=True)
    aux = AuxiliaryVideo(1.0 + rng.random(video.frames.shape)) if with_aux else None
    passed = []
    real = transform._power

    def counted(values, lam):
        passed.append(values.shape)
        real(values, lam)

    monkeypatch.setattr(transform, "_power", counted)
    fit_transform(video, aux, 0.5)
    # One (m, n) frame a call, each frame of each output once.
    T, m, n = video.frames.shape
    assert passed == [(m, n)] * (2 * T if with_aux else T)


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
    video = observed_video(1.0 + np.arange(np.prod(shape)).reshape(shape))
    with pytest.raises(ValueError, match=rf"^auxiliary pixel \(t={t}, i={i}, j={j}\) "
                                         "is non-positive after offset 0.001$"):
        fit_transform(video, AuxiliaryVideo(frames), 0.5)


def test_missing_pixels_do_not_warn_of_overflow(rng):
    # A missing pixel holds the bare offset, and 1e-3 ** -200 overflows where
    # no observed pixel's power does; the output is 0 there and warns of nothing.
    masks = np.ones((2, 3, 4), bool)
    masks[0, 1, 2] = False
    video = MaskedVideo(1.0 + rng.random((2, 3, 4)), masks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _, _ = fit_transform(video, None, -200.0)
    assert out.frames[0, 1, 2] == 0.0 and np.isfinite(out.frames).all()


def test_an_overflowed_observed_pixel_fails_without_a_warning(rng):
    # (1e3 + offset) ** 200 overflows to inf, so the mean is inf; the mean is
    # checked before the deviations, whose inf - inf would warn.
    frames = 1.0 + rng.random((2, 3, 4))
    frames[1, 0, 3] = 1e3
    video = observed_video(frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^mean must be finite, got inf$"):
            fit_transform(video, None, 200.0)


@pytest.mark.parametrize("scale, lam, named", [
    (1e306, 1.0, "^mean must be finite, got inf$"),
    (1e200, 1.0, "^std must be finite and positive, got inf$"),
    (2.0, 1e6, "^mean must be finite, got inf$"),
    (2.0, -1e6, "^pooled pixels have zero variance"),
], ids=["sum", "square", "every-power", "constant"])
def test_an_overflowed_moment_fails_without_a_warning(rng, scale, lam, named):
    # Every power is finite at lam = 1, but a frame of 200 pixels near 1e306
    # overflows its sum, and the squared deviations of pixels near 1e200 overflow.
    # At lam = 1e6 every power of a pixel in [2, 4) overflows, so the pool's min and
    # max are both inf; at lam = -1e6 every value is 1e-6, a truly constant pool.
    video = observed_video(scale * (1.0 + rng.random((2, 10, 20))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            fit_transform(video, None, lam)
