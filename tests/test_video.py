import tracemalloc

import numpy as np
import pytest

from vista.io import read_video, write_video
from vista.spherical import build_auxiliary
from vista.transform import fit_transform
from vista.video import (
    AuxiliaryVideo,
    FactorSequence,
    MaskedVideo,
    PenaltyConfig,
)

from conftest import observed_video, random_video


def test_masked_video_zeroes_unobserved_and_is_readonly():
    frames = np.array([[[1.0, -5.0], [2.0, 3.0]]])
    masks = np.array([[[True, False], [True, True]]])
    video = MaskedVideo(frames, masks)
    assert video.frames[0, 0, 1] == 0.0
    assert video.dims == (2, 2, 1)
    with pytest.raises(ValueError):
        video.frames[0, 0, 0] = 9.0


def test_masked_video_rejects_all_missing_frame():
    frames = np.zeros((2, 2, 2))
    masks = np.ones((2, 2, 2), bool)
    masks[1] = False
    with pytest.raises(ValueError, match="frame 1"):
        MaskedVideo(frames, masks)


def test_masked_video_rejects_nonfinite_observed():
    frames = np.array([[[np.inf, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError):
        MaskedVideo(frames, np.ones((1, 2, 2), bool))


def test_masked_video_from_dense_nan_is_missing():
    dense = np.array([[[1.0, np.nan], [np.nan, 4.0]]])
    video = MaskedVideo.from_dense(dense)
    np.testing.assert_array_equal(video.masks, [[[True, False], [False, True]]])
    np.testing.assert_array_equal(video.frames, [[[1.0, 0.0], [0.0, 4.0]]])
    back = np.where(video.masks, video.frames, np.nan)
    assert np.isnan(back[0, 0, 1]) and back[0, 1, 1] == 4.0


def test_auxiliary_video_must_be_finite_and_match():
    with pytest.raises(ValueError):
        AuxiliaryVideo(np.array([[[np.nan]]]))
    aux = AuxiliaryVideo(np.zeros((2, 3, 4)))
    video = observed_video(np.zeros((2, 3, 4)) + 1.0)
    aux.check_matches(video)
    with pytest.raises(ValueError):
        aux.check_matches(observed_video(np.ones((2, 4, 3))))


def test_factor_sequence_validation(rng):
    factors = FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 5, 2)))
    assert factors.rank == 2
    assert factors.dims == (4, 5, 3)
    with pytest.raises(ValueError):
        FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 5, 3)))
    with pytest.raises(ValueError):
        FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(2, 5, 2)))


@pytest.mark.parametrize("container, arrays, message", [
    (MaskedVideo, lambda: (np.ones((2, 3)), np.ones((2, 3), bool)),
     r"frames must be a \(T, m, n\) array, got ndim=2"),
    (MaskedVideo, lambda: (np.ones((1, 2, 3)), np.ones((1, 3, 2), bool)),
     r"frames shape \(1, 2, 3\) does not match masks shape \(1, 3, 2\)"),
    (MaskedVideo, lambda: (np.ones((1, 0, 3)), np.ones((1, 0, 3), bool)),
     r"all dimensions must be positive, got \(1, 0, 3\)"),
    (MaskedVideo, lambda: (np.ones((2, 1, 2)), np.array([[[True, False]], [[False, False]]])),
     "frame 1 has no observed entries"),
    (MaskedVideo, lambda: (np.array([[[np.nan, 1.0]]]), np.ones((1, 1, 2), bool)),
     "observed entries must be finite"),
    (AuxiliaryVideo, lambda: (np.ones((2, 3)),), r"frames must be a \(T, m, n\) array, got ndim=2"),
    (AuxiliaryVideo, lambda: (np.ones((2, 0, 3)),),
     r"all dimensions must be positive, got \(2, 0, 3\)"),
    (AuxiliaryVideo, lambda: (np.array([[[1.0, np.inf]]]),),
     "auxiliary frames must be fully observed and finite"),
    (FactorSequence, lambda: (np.ones((2, 3)), np.ones((1, 3, 2))),
     r"factors must be \(T, rows, rank\) arrays"),
    (FactorSequence, lambda: (np.ones((1, 2, 0)), np.ones((1, 3, 0))), "rank must be at least 1"),
    (FactorSequence, lambda: (np.ones((1, 2, 1)), np.full((1, 3, 1), np.inf)),
     "factor entries must be finite"),
], ids=["masked-ndim", "masked-shape", "masked-empty-dim", "masked-empty-frame",
        "masked-non-finite", "aux-ndim", "aux-empty-dim", "aux-non-finite",
        "factors-ndim", "factors-rank-0", "factors-non-finite"])
def test_containers_reject_malformed_arrays_by_message(container, arrays, message):
    # The video containers' adopting path, which takes the arrays without
    # copying them, runs the same checks as the public constructor.
    builds = [container] + ([container._adopt] if hasattr(container, "_adopt") else [])
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build(*arrays())


def test_factor_sequence_copy_shares_no_memory(rng):
    factors = FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 5, 2)))
    copied = factors.copy()
    for mine, theirs in ((copied.left, factors.left), (copied.right, factors.right)):
        assert not np.shares_memory(mine, theirs)
        np.testing.assert_array_equal(mine, theirs)


def test_penalty_config_validation():
    cfg = PenaltyConfig(lambda1=0.9)
    assert cfg.lambda2 == 0.0 and cfg.rank == 10
    with pytest.raises(ValueError):
        PenaltyConfig(lambda1=-0.1)
    with pytest.raises(ValueError):
        PenaltyConfig(lambda1=1.0, rank=0)
    with pytest.raises(ValueError):
        PenaltyConfig(lambda1=1.0, tol=0.0)
    PenaltyConfig(lambda1=0.0)  # allowed for evaluating objectives; solver rejects it


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_penalty_config_rejects_non_finite_values(name, value):
    # NaN slips past a plain `< 0` check because every comparison with it is False.
    kwargs = {"lambda1": 0.9, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PenaltyConfig(**kwargs)


def test_random_video_helper_respects_invariants(rng):
    video = random_video(rng, 6, 7, 3)
    assert video.masks.reshape(3, -1).sum(axis=1).min() >= 1


def test_masked_video_neither_aliases_nor_freezes_caller_arrays(rng):
    frames = rng.normal(size=(3, 4, 5))
    masks = rng.random((3, 4, 5)) > 0.5
    masks[:, 0, 0] = True
    frames_before, masks_before = frames.copy(), masks.copy()
    video = MaskedVideo(frames, masks)
    assert frames.flags.writeable and masks.flags.writeable
    np.testing.assert_array_equal(frames, frames_before)
    np.testing.assert_array_equal(masks, masks_before)
    stored_frames, stored_masks = video.frames.copy(), video.masks.copy()
    frames += 1.0
    masks[...] = True
    np.testing.assert_array_equal(video.frames, stored_frames)
    np.testing.assert_array_equal(video.masks, stored_masks)


def test_adopted_outputs_are_read_only_and_share_no_caller_memory(rng, tmp_path):
    frames = 1.0 + rng.random((3, 8, 10))
    masks = rng.random((3, 8, 10)) > 0.3
    masks[:, 0, 0] = True
    video = MaskedVideo(frames, masks)
    aux = build_auxiliary(video, l_max=2)
    transformed, aux_t, _ = fit_transform(video, aux, 0.5)
    write_video(tmp_path / "video.vmc", video)
    read = read_video(tmp_path / "video.vmc")
    np.testing.assert_array_equal(read.frames, video.frames)
    # Each output array against the arrays its caller owns or passed in; the
    # masks of a transformed video are its input's, read-only in both.
    for output, inputs in [(aux.frames, (frames, masks, video.frames)),
                           (transformed.frames, (frames, video.frames, aux.frames)),
                           (transformed.masks, (masks,)),
                           (aux_t.frames, (frames, video.frames, aux.frames)),
                           (read.frames, (frames, video.frames)),
                           (read.masks, (masks, video.masks))]:
        assert not output.flags.writeable
        assert not any(np.shares_memory(output, array) for array in inputs)


def test_every_public_name_resolves():
    import vista

    assert [name for name in vista.__all__ if not hasattr(vista, name)] == []


def _message(frames, masks):
    with pytest.raises(ValueError) as exc:
        MaskedVideo(frames, masks)
    return str(exc.value)


def test_masked_video_zeroes_and_checks_each_frame_in_any_chunk_count(rng, chunk_count):
    T, m, n = 7, 5, 6
    frames = rng.normal(size=(T, m, n))
    masks = rng.random((T, m, n)) < 0.6
    masks[:, 0, 0] = True
    frames[~masks] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=np.count_nonzero(~masks))
    expected = np.where(masks, frames, 0.0).view(np.uint64)
    hollow = masks.copy()
    hollow[[2, 5]] = False  # in two chunks of three
    infinite = frames.copy()
    infinite[1, 0, 0] = np.inf  # observed, and in a lower frame than either empty one
    for count in (1, 2, 3):
        chunk_count(count)
        video = MaskedVideo(frames, masks)
        np.testing.assert_array_equal(video.frames.view(np.uint64), expected)
        np.testing.assert_array_equal(video.masks, masks)
        assert _message(infinite, hollow) == "frame 2 has no observed entries"
        assert _message(infinite, masks) == "observed entries must be finite"


def test_masked_video_holds_no_whole_boolean_temporary(rng, chunk_count):
    # Beyond its own copies of the frames and masks it holds (m, n) buffers only;
    # a whole negated mask or finiteness array would add masks.nbytes.
    T, m, n = 120, 40, 60
    frames = rng.normal(size=(T, m, n))
    masks = rng.random((T, m, n)) < 0.5
    masks[:, 0, 0] = True
    for count in (1, 3):
        chunk_count(count)
        tracemalloc.start()
        try:
            MaskedVideo(frames, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - frames.nbytes - masks.nbytes < 0.25 * masks.nbytes
