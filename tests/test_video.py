import numpy as np
import pytest

from vista.video import (
    AuxiliaryVideo,
    FactorSequence,
    MaskedVideo,
    PenaltyConfig,
)

from conftest import random_video


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
    back = video.to_dense()
    assert np.isnan(back[0, 0, 1]) and back[0, 1, 1] == 4.0


def test_auxiliary_video_must_be_finite_and_match():
    with pytest.raises(ValueError):
        AuxiliaryVideo(np.array([[[np.nan]]]))
    aux = AuxiliaryVideo(np.zeros((2, 3, 4)))
    video = MaskedVideo.fully_observed(np.zeros((2, 3, 4)) + 1.0)
    aux.check_matches(video)
    with pytest.raises(ValueError):
        aux.check_matches(MaskedVideo.fully_observed(np.ones((2, 4, 3))))


def test_factor_sequence_validation(rng):
    factors = FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 5, 2)))
    assert factors.rank == 2
    assert factors.dims == (4, 5, 3)
    with pytest.raises(ValueError):
        FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 5, 3)))
    with pytest.raises(ValueError):
        FactorSequence(rng.normal(size=(3, 4, 2)), rng.normal(size=(2, 5, 2)))


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


def test_every_public_name_resolves():
    import vista

    assert [name for name in vista.__all__ if not hasattr(vista, name)] == []
