import numpy as np
import pytest

from vista.synthetic import make_demo_video


def test_demo_video_is_positive_and_deterministic():
    a = make_demo_video(40, 60, 6, seed=3)
    b = make_demo_video(40, 60, 6, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 40, 60)
    assert a.min() > 0


def test_demo_video_background_is_rank_four():
    # Without the bump every frame lies in the span of four outer products.
    video = make_demo_video(30, 44, 5, seed=1, bump_amplitude=0.0)
    for frame in video:
        singular = np.linalg.svd(frame, compute_uv=False)
        assert singular[4] < 1e-10 * singular[0]


def test_demo_video_bump_moves():
    still = make_demo_video(40, 60, 4, seed=2, bump_amplitude=0.0)
    moving = make_demo_video(40, 60, 4, seed=2, bump_amplitude=16.0)
    bumps = moving - still
    peaks = [np.unravel_index(np.argmax(b), b.shape) for b in bumps]
    assert len(set(peaks)) > 1
    assert all(b.max() > 10.0 for b in bumps)


@pytest.mark.parametrize("amplitude", [-50.0, -1e3])
def test_demo_video_rejects_parameters_that_make_a_non_positive_pixel(amplitude):
    with pytest.raises(ValueError, match="demo video parameters produced non-positive values"):
        make_demo_video(20, 30, 3, seed=1, bump_amplitude=amplitude)
