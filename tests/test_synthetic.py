import numpy as np
import pytest

from vista import chunks, synthetic
from vista.io import read_frames
from vista.synthetic import make_demo_video

from oracles import demo_video_einsum


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


@pytest.mark.parametrize("shape, options", [
    ((40, 60, 6), {}),  # frames under chunks._CHUNK_PIXELS
    ((128, 130, 5), {}),  # and over it
    ((130, 128, 1), {}),
    ((1, 1, 1), {}),
    ((30, 44, 5), {"bump_amplitude": 0.0}),
    ((50, 70, 4), {"bump_sigma": 3.5, "degree_cap": 9}),
])
def test_demo_video_matches_the_einsum_reference_bit_for_bit(shape, options, chunk_count):
    assert 40 * 60 < chunks._CHUNK_PIXELS <= 128 * 130
    m, n, T = shape
    expected = demo_video_einsum(m, n, T, 7, **options).view(np.uint64)
    np.testing.assert_array_equal(make_demo_video(m, n, T, 7, **options).view(np.uint64), expected)
    for count in (1, 2, 3):
        chunk_count(count)
        video = make_demo_video(m, n, T, 7, **options)
        np.testing.assert_array_equal(video.view(np.uint64), expected)


@pytest.mark.parametrize("flag, name, value, message", [
    ("--rows", "m", 0, "rows must be positive, got 0"),
    ("--cols", "n", 0, "cols must be positive, got 0"),
    ("--frames", "frames", 0, "frames must be positive, got 0"),
    ("--seed", "seed", -1, "seed must be a non-negative integer, got -1"),
])
def test_demo_video_rejects_an_empty_shape_or_a_negative_seed(tmp_path, capsys, flag, name,
                                                               value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_demo_video(**{name: value})
    output = tmp_path / "demo.vmc"
    assert synthetic.main([str(output), flag, str(value)]) == 2
    assert capsys.readouterr() == ("", f"vista.synthetic: error: {message}\n")
    assert not output.exists()


def test_main_writes_the_demo_video(tmp_path, capsys):
    output = tmp_path / "demo.vmc"
    assert synthetic.main([str(output), "--rows", "5", "--cols", "7", "--frames", "2"]) == 0
    assert capsys.readouterr().out == f"wrote 2x5x7 demo video to {output}\n"
    np.testing.assert_array_equal(read_frames(output), make_demo_video(5, 7, 2))
