import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.missingness import (
    MissingnessSpec,
    _stamp_patch,
    apply,
    default_bbox,
    generate,
    holdout,
    perimeter_path,
)
from vista.video import MaskedVideo

from conftest import observed_video, random_video


def test_spec_validation():
    with pytest.raises(ValueError):
        MissingnessSpec(pattern="diagonal")
    with pytest.raises(ValueError):
        MissingnessSpec(pattern="random", fraction=1.0)
    with pytest.raises(ValueError):
        MissingnessSpec(pattern="random-patch", patch_size=0)
    with pytest.raises(ValueError, match="shift must be at least 1"):
        MissingnessSpec(pattern="temporal", shift=0)
    # A pattern does not check the field it never reads.
    MissingnessSpec(pattern="temporal-patch", fraction=1.5)
    MissingnessSpec(pattern="random", patch_size=0)


def test_random_drop_count_within_binomial_interval():
    # 100x100 frame at fraction 0.5: 99.9% binomial interval is 5000 +- 164.5.
    spec = MissingnessSpec(pattern="random", fraction=0.5, rng_seed=0)
    dropped, centers = generate(spec, (100, 100, 1))
    assert centers is None
    count = int(dropped.sum())
    assert 4835 <= count <= 5165


def test_random_fraction_within_three_sigma():
    for seed in range(5):
        for fraction in (0.3, 0.5, 0.7):
            spec = MissingnessSpec(pattern="random", fraction=fraction, rng_seed=seed)
            dropped, _ = generate(spec, (60, 80, 3))
            total = dropped.size
            sigma = np.sqrt(total * fraction * (1 - fraction))
            assert abs(dropped.sum() - fraction * total) <= 3 * sigma


def test_temporal_mask_is_cyclic_shift_of_first_frame():
    spec = MissingnessSpec(pattern="temporal", fraction=0.4, rng_seed=7)
    dropped, _ = generate(spec, (30, 50, 6))
    for t in range(6):
        np.testing.assert_array_equal(dropped[t], np.roll(dropped[0], 6 * t, axis=1))


def test_default_bbox_on_reference_grid():
    # 181x361 grid: rows at +-45 degrees, columns at 7 and 21 local time.
    assert default_bbox(181, 361) == (45, 135, 105, 315)


def test_perimeter_path_covers_box_edge_exactly_once():
    bbox = (2, 5, 3, 7)
    path = perimeter_path(bbox)
    assert len(path) == 2 * (4 + 5) - 4
    assert len({tuple(p) for p in path}) == len(path)
    for i, j in path:
        assert (i in (2, 5) and 3 <= j <= 7) or (j in (3, 7) and 2 <= i <= 5)
    # consecutive cells are perimeter neighbors, and the path closes
    closed = np.vstack([path, path[:1]])
    steps = np.abs(np.diff(closed, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_patch_centers_lie_on_bbox_perimeter():
    spec = MissingnessSpec(pattern="random-patch", patch_size=9, rng_seed=5)
    dims = (60, 90, 8)
    dropped, centers = generate(spec, dims)
    path = {tuple(p) for p in perimeter_path(default_bbox(60, 90))}
    for t in range(8):
        assert tuple(centers[t]) in path
        assert dropped[t].sum() <= 81


def test_temporal_patch_advances_six_cells_along_perimeter():
    spec = MissingnessSpec(pattern="temporal-patch", patch_size=9, rng_seed=5)
    dropped, centers = generate(spec, (60, 90, 10))
    path = perimeter_path(default_bbox(60, 90))
    index = {tuple(p): k for k, p in enumerate(path)}
    positions = [index[tuple(c)] for c in centers]
    for a, b in zip(positions, positions[1:]):
        assert (b - a) % len(path) == 6


def test_temporal_patch_adjacent_overlap_geometry():
    # A size-63 patch moving 6 perimeter cells leaves at least (63-6)*63
    # cells shared between adjacent frames when fully inside the frame.
    spec = MissingnessSpec(pattern="temporal-patch", patch_size=63, rng_seed=11)
    dropped, centers = generate(spec, (181, 361, 8))
    for t in range(7):
        overlap = int((dropped[t] & dropped[t + 1]).sum())
        assert overlap >= (63 - 6) * 63
        assert int(dropped[t].sum()) == 63 * 63


def test_patch_crops_at_rows_and_wraps_columns():
    # A 21-pixel patch at the top or bottom row and beside the column seam:
    # the rows past the frame edge are cropped, the columns wrap around.
    for center, rows in (((0, 58), range(0, 11)), ((39, 1), range(29, 40))):
        dropped = np.zeros((40, 60), dtype=bool)
        _stamp_patch(dropped, center, 21)
        expected = np.zeros_like(dropped)
        cols = [(center[1] + d) % 60 for d in range(-10, 11)]
        expected[np.ix_(list(rows), cols)] = True
        np.testing.assert_array_equal(dropped, expected)


def test_patch_larger_than_frame_rejected():
    spec = MissingnessSpec(pattern="random-patch", patch_size=61, rng_seed=0)
    with pytest.raises(ValueError):
        generate(spec, (40, 60, 1))


def test_generate_bit_exact_reproducibility():
    for pattern in ("random", "temporal", "random-patch", "temporal-patch"):
        spec = MissingnessSpec(pattern=pattern, fraction=0.4, patch_size=15, rng_seed=9)
        a, ca = generate(spec, (50, 70, 5))
        b, cb = generate(spec, (50, 70, 5))
        np.testing.assert_array_equal(a, b)
        if ca is not None:
            np.testing.assert_array_equal(ca, cb)


def test_apply_returns_masked_video_and_exact_drop_set(rng):
    frames = 1.0 + np.abs(rng.normal(size=(3, 30, 40)))
    spec = MissingnessSpec(pattern="random", fraction=0.3, rng_seed=2)
    video, dropped = apply(frames, spec)
    np.testing.assert_array_equal(video.masks, ~dropped)
    np.testing.assert_array_equal(video.frames[video.masks], frames[~dropped])
    with pytest.raises(ValueError):
        apply(np.full((1, 4, 4), np.nan), spec)


@pytest.mark.parametrize("shape", [(4, 5), (1, 2, 4, 5)], ids=["2-d", "4-d"])
def test_apply_rejects_a_video_that_is_not_three_dimensional(shape):
    with pytest.raises(ValueError, match=f"frames must be a \\(T, m, n\\) array, got ndim={len(shape)}"):
        apply(np.ones(shape), MissingnessSpec(pattern="random"))


def test_holdout_partitions_observed_set(rng):
    video = random_video(rng, 25, 40, 3, missing=0.5)
    test = holdout(video.masks, 0.2, seed=4)
    assert test.dtype == bool and test.shape == video.masks.shape
    for t in range(3):
        observed = video.masks[t]
        expected = int(np.floor(0.2 * observed.sum() + 0.5))
        assert test[t].sum() == expected
        assert not (test[t] & ~observed).any()
        assert (observed & ~test[t]).any()  # the training set keeps some pixels


def test_holdout_exact_count_round_to_nearest():
    frames = np.ones((1, 20, 50))
    video = observed_video(frames)
    test = holdout(video.masks, 0.2, seed=0)
    assert test.sum() == 200


def test_holdout_deterministic(rng):
    video = random_video(rng, 15, 15, 2)
    test_a = holdout(video.masks, 0.25, seed=8)
    test_b = holdout(video.masks, 0.25, seed=8)
    assert test_a.shape == (2, 15, 15)
    np.testing.assert_array_equal(test_a, test_b)


@pytest.mark.parametrize("value", [0.0, 1.0, float("nan")])
def test_fraction_errors_name_the_value(rng, value):
    with pytest.raises(ValueError, match=f"fraction must lie strictly inside \\(0, 1\\), got {value!r}"):
        MissingnessSpec(pattern="random", fraction=value)
    video = random_video(rng, 4, 4, 1, missing=0.0)
    with pytest.raises(ValueError, match=f"holdout fraction .*got {value!r}"):
        holdout(video.masks, value, seed=0)


def test_holdout_rejects_tiny_frames():
    frames = np.ones((1, 2, 2))
    masks = np.zeros((1, 2, 2), bool)
    masks[0, 0, 0] = True
    video = MaskedVideo(frames, masks)
    with pytest.raises(ValueError, match="at least 5"):
        holdout(video.masks, 0.5, seed=0)


@pytest.mark.parametrize("fraction, count", [(0.05, 0), (0.95, 9)],
                         ids=["empty-test", "empty-train"])
def test_holdout_rejects_a_fraction_that_empties_a_frame_set(fraction, count):
    # Frame 0 has 12 observed pixels, which either fraction splits; frame 1 has 9.
    masks = np.ones((2, 3, 4), bool)
    masks[1, 2, 1:] = False
    video = MaskedVideo(np.ones((2, 3, 4)), masks)
    with pytest.raises(ValueError, match=rf"^holdout fraction {fraction!r} moves {count} of the "
                                         r"9 observed pixels of frame 1; the test and training "
                                         "sets each need at least one$"):
        holdout(video.masks, fraction, seed=0)


@st.composite
def _geometry(draw, pattern):
    """A spec of this pattern and dims (m, n, T) with m, n <= 40, T <= 6, patch <= min(m, n)."""
    m, n, T = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    spec = MissingnessSpec(pattern=pattern, fraction=draw(st.floats(0.05, 0.95)),
                           patch_size=draw(st.integers(1, min(m, n))),
                           shift=draw(st.integers(1, 12)), rng_seed=draw(st.integers(0, 2**32)))
    return spec, (m, n, T)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_geometry("random-patch"), _geometry("temporal-patch")))
def test_patch_frames_drop_exactly_the_patch_at_their_center(case):
    spec, (m, n, T) = case
    dropped, centers = generate(spec, (m, n, T))
    path = perimeter_path(default_bbox(m, n))
    rows, cols = np.arange(m)[:, None], np.arange(n)[None, :]
    for t, (ci, cj) in enumerate(centers):
        # Rows crop to [0, m); columns wrap mod n, so a column is in the
        # patch when its offset from the patch's first column, mod n, is < size.
        top, left = ci - spec.patch_size // 2, cj - spec.patch_size // 2
        in_rows = (rows >= top) & (rows < top + spec.patch_size)
        patch = in_rows & ((cols - left) % n < spec.patch_size)
        np.testing.assert_array_equal(dropped[t], patch)
        kept_rows = min(top + spec.patch_size, m) - max(top, 0)
        assert int(dropped[t].sum()) == kept_rows * spec.patch_size
        assert any((path == (ci, cj)).all(axis=1))
    if spec.pattern == "temporal-patch":
        # Some start on the perimeter path, then shift cells a frame along it.
        assert any(all((centers[t] == path[(start + spec.shift * t) % len(path)]).all()
                       for t in range(T)) for start in range(len(path)))


@settings(max_examples=40, deadline=None)
@given(case=_geometry("temporal"))
def test_temporal_frames_are_column_rolls_of_the_first(case):
    spec, (m, n, T) = case
    dropped, centers = generate(spec, (m, n, T))
    assert centers is None
    for t in range(T):
        np.testing.assert_array_equal(dropped[t], np.roll(dropped[0], spec.shift * t, axis=1))


@settings(max_examples=40, deadline=None)
@given(case=_geometry("random"))
def test_random_drop_count_is_within_a_bound_no_draw_should_cross(case):
    spec, (m, n, T) = case
    dropped, centers = generate(spec, (m, n, T))
    assert centers is None
    size = m * n * T
    variance = size * spec.fraction * (1.0 - spec.fraction)
    # Bernstein: P(|X - Np| >= a) <= 2 exp(-a^2 / (2 (var + a / 3))) = 2e-13 at
    # this a, which is about 7.7 sigma for large N and stays valid for tiny N.
    bound = 10.0 + np.sqrt(100.0 + 60.0 * variance)
    assert abs(int(dropped.sum()) - spec.fraction * size) <= bound


@pytest.mark.parametrize("dims", [(7, 13, 5), (1, 1, 1), (9, 5, 1), (3, 11, 7)],
                         ids=["7x13x5", "1x1x1", "9x5x1", "3x11x7"])
@pytest.mark.parametrize("count", [1, 2, 3, "T"])
def test_random_masks_are_the_serial_draw_in_any_chunk_count(chunk_count, dims, count):
    # Chunks jump ahead in the seed's PCG64 stream; the masks must still be
    # one serial draw of a (m, n) frame after another.
    m, n, T = dims
    chunk_count(T if count == "T" else count)
    spec = MissingnessSpec(pattern="random", fraction=0.37, rng_seed=11)
    dropped, centers = generate(spec, dims)
    assert centers is None and dropped.dtype == bool and dropped.shape == (T, m, n)
    serial = np.random.default_rng(11)
    for t in range(T):
        np.testing.assert_array_equal(dropped[t], serial.random((m, n)) < 0.37)
