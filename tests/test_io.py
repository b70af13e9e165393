import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vista import io as vio
from vista.video import MaskedVideo

from conftest import random_video


def test_binary_round_trip_preserves_frames_and_masks(tmp_path, rng):
    video = random_video(rng, 6, 9, 4)
    path = tmp_path / "video.vmc"
    vio.write_video(path, video)
    back = vio.read_video(path)
    np.testing.assert_array_equal(back.masks, video.masks)
    np.testing.assert_array_equal(back.frames, video.frames)


def test_binary_file_layout_byte_counts(tmp_path):
    # header is 20 bytes (magic + three u32 dims + reserved u32), payload 8/value
    path = tmp_path / "one.vmc"
    vio.write_video(path, MaskedVideo.fully_observed(np.full((1, 1, 1), 7.0)))
    data = path.read_bytes()
    assert len(data) == 28
    assert data[:4] == b"VMC1"
    assert data[4:20] == (1).to_bytes(4, "little") * 3 + b"\x00" * 4
    assert np.frombuffer(data[20:], dtype="<f8")[0] == 7.0


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vmc"
    path.write_bytes(b"XXXX" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        vio.read_video(path)


def test_read_rejects_truncated_payload(tmp_path, rng):
    path = tmp_path / "trunc.vmc"
    vio.write_video(path, random_video(rng, 3, 4, 2))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="192 bytes.*184"):
        vio.read_video(path)


def test_read_rejects_zero_dimension(tmp_path):
    path = tmp_path / "zero.vmc"
    path.write_bytes(b"VMC1" + (0).to_bytes(4, "little") * 3 + b"\x00" * 4)
    with pytest.raises(ValueError, match="positive"):
        vio.read_video(path)


def test_frames_and_mask_helpers(tmp_path, rng):
    frames = rng.normal(size=(2, 4, 5))
    vio.write_frames(tmp_path / "full.vmc", frames)
    np.testing.assert_array_equal(vio.read_frames(tmp_path / "full.vmc"), frames)

    video = random_video(rng, 4, 5, 2)
    vio.write_video(tmp_path / "holes.vmc", video)
    with pytest.raises(ValueError, match="fully observed"):
        vio.read_frames(tmp_path / "holes.vmc")

    mask = rng.random((2, 4, 5)) > 0.5
    vio.write_mask(tmp_path / "mask.vmc", mask)
    np.testing.assert_array_equal(vio.read_mask(tmp_path / "mask.vmc"), mask)


def test_write_mask_holds_one_float_frame(tmp_path, rng):
    T, m, n = 64, 40, 60
    mask = rng.random((T, m, n)) > 0.5
    tracemalloc.start()
    try:
        vio.write_mask(tmp_path / "mask.vmc", mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * n * 8  # a float copy of the whole mask would take 64 frames


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    entries = {"alpha": "1", "beta": "two", "gamma_path": "/x/y=z"}
    vio.write_manifest(path, entries)
    assert vio.read_manifest(path) == entries
    path.write_text("noequals\n")
    with pytest.raises(ValueError, match="key=value"):
        vio.read_manifest(path)


@pytest.mark.parametrize("text", ["\nalpha=1\nbeta=two\n", "alpha=1\n\n\nbeta=two",
                                  "alpha=1\nbeta=two\n\n"], ids=["first", "middle", "last"])
def test_manifest_reader_skips_blank_lines(tmp_path, text):
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    assert vio.read_manifest(path) == {"alpha": "1", "beta": "two"}


# Finite doubles of every kind, with -0.0 and subnormals drawn explicitly.
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
)
_shapes = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5)


def _bits(array):
    return np.ascontiguousarray(array, dtype="<f8").view("<u8")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_binary_round_trip_is_bit_exact(tmp_path_factory, data):
    shape = data.draw(_shapes)
    frames = data.draw(hnp.arrays(np.float64, shape, elements=_values))
    masks = data.draw(hnp.arrays(np.bool_, shape))
    masks[:, 0, 0] = True
    video = MaskedVideo(frames, masks)
    path = tmp_path_factory.mktemp("rt") / "video.vmc"
    vio.write_video(path, video)
    back = vio.read_video(path)
    np.testing.assert_array_equal(back.masks, video.masks)
    np.testing.assert_array_equal(_bits(back.frames), _bits(video.frames))

    vio.write_frames(path, frames)
    np.testing.assert_array_equal(_bits(vio.read_frames(path)), _bits(frames))


@settings(max_examples=40, deadline=None)
@given(mask=hnp.arrays(np.bool_, _shapes))
@example(mask=np.ones((1, 1, 1), dtype=bool))
@example(mask=np.zeros((3, 1, 4), dtype=bool))
@example(mask=np.eye(5, dtype=bool)[None, :, :1])
def test_write_mask_matches_write_frames_and_round_trips(tmp_path_factory, mask):
    directory = tmp_path_factory.mktemp("mask")
    vio.write_mask(directory / "mask.vmc", mask)
    vio.write_frames(directory / "frames.vmc", mask.astype(float))
    assert (directory / "mask.vmc").read_bytes() == (directory / "frames.vmc").read_bytes()
    back = vio.read_mask(directory / "mask.vmc")
    assert back.dtype == bool
    np.testing.assert_array_equal(back, mask)


def _read_each_frame(path, check=None):
    "The frames an iterating ``FrameReader`` yields, copied out of its reused buffer."
    with vio.FrameReader(path, check) as reader:
        return np.stack([frame.copy() for frame in reader])


@settings(max_examples=40, deadline=None)
@given(frames=hnp.arrays(np.float64, _shapes, elements=st.floats(allow_infinity=False)),
       k=st.integers(1, 100), longer=st.booleans())
@example(frames=np.full((1, 3, 4), np.nan), k=8 * 12, longer=False)  # T = 1, cut a whole frame
@example(frames=np.arange(12.0).reshape(3, 1, 4), k=8 * 4, longer=True)  # m = 1, a frame over
@example(frames=np.arange(6.0).reshape(2, 3, 1), k=5, longer=False)  # n = 1, off a boundary
@example(frames=np.full((2, 2, 2), np.nan)[:, ::-1], k=3, longer=True)  # a strided array
def test_the_writer_and_both_read_paths_agree(tmp_path_factory, frames, k, longer):
    T, m, n = frames.shape
    header = b"VMC1" + b"".join(d.to_bytes(4, "little") for d in (m, n, T, 0))
    path = tmp_path_factory.mktemp("agree") / "video.vmc"
    vio._write_payload(path, frames)  # NaN included, bit for bit
    assert path.read_bytes() == header + np.ascontiguousarray(frames, "<f8").tobytes()
    np.testing.assert_array_equal(_bits(_read_each_frame(path)), _bits(frames))

    full = np.nan_to_num(frames, nan=-0.0)
    vio.write_frames(path, full)
    np.testing.assert_array_equal(_bits(vio.read_frames(path)),
                                  _bits(_read_each_frame(path, "finite")))

    # A payload cut short or extended by k bytes, at or off a frame boundary.
    size = 8 * T * m * n
    data = path.read_bytes()
    if longer:
        path.write_bytes(data + b"\x00" * k)
    else:
        path.write_bytes(data[:len(data) - min(k, size)])
    message = (f"{path}: payload for dims ({m}, {n}, {T}) needs {size} bytes, "
               f"got {size + k if longer else size - min(k, size)}")
    for read in (vio.read_frames, lambda path: _read_each_frame(path, "finite")):
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value) == message


def test_every_truncation_is_rejected_naming_the_path(tmp_path, rng):
    path = tmp_path / "cut.vmc"
    vio.write_video(path, random_video(rng, 2, 3, 2))
    data = path.read_bytes()
    for length in range(len(data)):
        path.write_bytes(data[:length])
        for reader in (vio.read_video, vio.read_frames, vio.read_mask):
            with pytest.raises(ValueError, match=re.escape(str(path))):
                reader(path)


@pytest.mark.parametrize("extra", [1, 8, 100])
def test_trailing_bytes_are_rejected(tmp_path, rng, extra):
    path = tmp_path / "long.vmc"
    vio.write_video(path, random_video(rng, 3, 4, 2))
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(ValueError, match=f"192 bytes, got {192 + extra}"):
        vio.read_video(path)


def test_read_rejects_unallocatable_dims(tmp_path):
    path = tmp_path / "huge.vmc"
    path.write_bytes(b"VMC1" + (2**32 - 1).to_bytes(4, "little") * 3 + b"\x00" * 12)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        vio.read_video(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe(tmp_path, rng):
    # A pipe reports size 0, so the payload length must be checked by reading.
    video = random_video(rng, 4, 5, 3)
    vio.write_video(tmp_path / "video.vmc", video)
    data = (tmp_path / "video.vmc").read_bytes()
    fifo = tmp_path / "pipe.vmc"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    back = vio.read_video(fifo)
    writer.join()
    np.testing.assert_array_equal(back.masks, video.masks)
    np.testing.assert_array_equal(back.frames, video.frames)


def test_read_frames_rejects_infinite_payload(tmp_path):
    path = tmp_path / "inf.vmc"
    path.write_bytes(b"VMC1" + (1).to_bytes(4, "little") * 3 + b"\x00" * 4
                     + np.array([np.inf], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="finite"):
        vio.read_frames(path)
    with pytest.raises(ValueError, match="only 0 and 1"):
        vio.read_mask(path)


def test_write_frames_rejects_non_finite_and_bad_shapes(tmp_path):
    path = tmp_path / "bad.vmc"
    with pytest.raises(ValueError, match="finite"):
        vio.write_frames(path, np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError, match="ndim=2"):
        vio.write_frames(path, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="positive"):
        vio.write_frames(path, np.zeros((0, 2, 2)))
