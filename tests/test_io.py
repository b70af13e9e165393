import ast
import os
import re
import stat
import threading
import tracemalloc
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vista import io as vio
from vista.cli import main
from vista.video import MaskedVideo

from conftest import observed_video, random_video


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
    vio.write_video(path, observed_video(np.full((1, 1, 1), 7.0)))
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


def test_write_video_holds_no_dense_copy(tmp_path, rng):
    # Only (m, n) buffers: the scratch frame, numpy's cast buffer for the NaN
    # bits and one frame of dropped pixels, about 2.2 frames' bytes, under
    # 0.02× of these 120 frames. A whole boolean (T, m, n) array of dropped
    # pixels would add 1/8 of the frames' bytes, and a dense copy all of them.
    video = random_video(rng, 40, 60, 120)
    tracemalloc.start()
    try:
        vio.write_video(tmp_path / "video.vmc", video)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * video.frames.nbytes


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
    assert path.read_bytes()[20:] == _bits(np.where(masks, frames, np.nan)).tobytes()
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
    "The frames a ``FrameReader`` reads in order into one reused buffer, each copied out."
    with vio.FrameReader(path, check) as reader:
        T, m, n = reader.shape
        return np.stack([frame.copy() for frame in reader._read(0, repeat(np.empty((m, n)), T))])


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
    # numpy refuses this size before it asks for memory, whatever the host's overcommit policy.
    path, side = tmp_path / "huge.vmc", 2**32 - 1
    path.write_bytes(b"VMC1" + side.to_bytes(4, "little") * 3 + b"\x00" * 4)
    named = (f"{path}: payload for dims ({side}, {side}, {side}) needs {8 * side**3} bytes, "
             "more than can be allocated")
    for read in (vio.read_video, vio.read_frames, vio.read_mask):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe(tmp_path, rng, chunk_count):
    # A pipe reports size 0, so the payload length must be checked by reading;
    # it cannot seek, so it is read in order, in one chunk.
    chunk_count(3)
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


def test_frame_writer_writes_frame_ranges_in_any_order(tmp_path, rng):
    # Positional writes of ranges out of order give the file of one sequential write.
    frames = rng.normal(size=(5, 3, 4))
    frames[1, 0, 0], frames[2, 1, 1] = np.nan, -0.0
    mask = rng.random((5, 3, 4)) < 0.5
    vio._write_payload(tmp_path / "frames.vmc", frames)
    vio.write_mask(tmp_path / "mask.vmc", mask)
    for name, array in (("frames", frames), ("mask", mask)):
        path = tmp_path / f"{name}-ranges.vmc"
        with vio.FrameWriter(path, array.shape) as writer:
            assert writer._positional
            for lo, hi in ((3, 5), (0, 1), (1, 3)):
                writer._write(lo, array[lo:hi], np.empty((3, 4)))
        assert path.read_bytes() == (tmp_path / f"{name}.vmc").read_bytes(), name


def test_frame_writer_writes_nan_bits_and_keeps_every_other_bit(tmp_path, rng):
    frames = rng.normal(size=(3, 6, 7)) * 10.0 ** rng.integers(-300, 300, size=(3, 6, 7))
    frames[1, 0] = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                    -1.7976931348623157e308, -1.0]
    dropped = rng.random((3, 6, 7)) < 0.5
    dropped[1, 0] = False
    dropped[1, 1, :3] = True
    before, path = frames.copy(), tmp_path / "dropped.vmc"
    with vio.FrameWriter(path, frames.shape) as writer:
        for lo, hi in ((1, 3), (0, 1)):  # frame t takes dropped[t - lo] of its range
            writer._write(lo, frames[lo:hi], np.empty((6, 7)), dropped[lo:hi])
    np.testing.assert_array_equal(_bits(frames), _bits(before))  # the input is left as it was
    bits = np.frombuffer(path.read_bytes()[20:], "<u8").reshape(frames.shape)
    assert (bits[dropped] == 0x7FF8000000000000).all()  # np.nan's bits exactly
    np.testing.assert_array_equal(bits[~dropped], _bits(before)[~dropped])  # -0.0 included
    np.putmask(before, dropped, np.nan)
    np.testing.assert_array_equal(bits, _bits(before))


@pytest.mark.parametrize("count", [1, 2])
def test_frame_writer_writes_nan_bits_whatever_a_dropped_pixel_holds(tmp_path, rng,
                                                                    chunk_count, count):
    # A payload NaN, a signalling NaN, an infinity or -0.0 at a dropped pixel
    # is written as np.nan's bits, with no warning; every kept pixel, these
    # values included, keeps its bits.
    special = np.array([0x7FF8000000000001, 0x7FF0000000000001, 0x7FF0000000000000,
                        0xFFF0000000000000, 0x8000000000000000], "<u8").view("<f8")
    T, m, n = 4, 6, 7
    frames = rng.normal(size=(T, m, n))
    dropped = rng.random((T, m, n)) < 0.5
    frames.reshape(T, -1)[:, :10] = np.tile(special, 2)
    dropped.reshape(T, -1)[:, :10] = np.arange(10) < 5
    before, path = _bits(frames).copy(), tmp_path / "dropped.vmc"
    chunk_count(count)
    with vio.FrameWriter(path, frames.shape) as writer, warnings.catch_warnings():
        warnings.simplefilter("error")
        vio._in_chunks(lambda lo, hi, scratch: writer._write(lo, frames[lo:hi], scratch,
                                                             dropped[lo:hi]),
                       frames.shape, [writer], (m, n))
    np.testing.assert_array_equal(_bits(frames), before)  # the input is left as it was
    bits = np.frombuffer(path.read_bytes()[20:], "<u8").reshape(frames.shape)
    assert (bits[dropped] == 0x7FF8000000000000).all()
    np.testing.assert_array_equal(bits[~dropped], before[~dropped])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_to_a_pipe(tmp_path, rng):
    # A pipe cannot seek, so the writer goes through its handle, in order.
    frames = rng.normal(size=(3, 4, 5))
    vio.write_frames(tmp_path / "frames.vmc", frames)
    fifo = tmp_path / "pipe.vmc"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    vio.write_frames(fifo, frames)
    reader.join(timeout=10)
    assert received == [(tmp_path / "frames.vmc").read_bytes()]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_whole_writes_are_the_same_in_any_chunk_count_and_through_a_pipe(tmp_path, rng,
                                                                         chunk_count):
    T, m, n = 7, 5, 6
    frames = rng.normal(size=(T, m, n))
    frames[2, 1, 1] = -0.0
    masks = rng.random((T, m, n)) < 0.6
    masks[:, 0, 0] = True
    video = MaskedVideo(frames, masks)
    header = b"VMC1" + b"".join(v.to_bytes(4, "little") for v in (m, n, T, 0))
    writes = {
        "frames": (lambda path: vio.write_frames(path, frames), frames),
        "video": (lambda path: vio.write_video(path, video), np.where(masks, frames, np.nan)),
        "mask": (lambda path: vio.write_mask(path, masks), masks),
    }
    fifo = tmp_path / "pipe.vmc"
    os.mkfifo(fifo)
    for count in (1, 2, 3):
        chunk_count(count)
        for name, (write, payload) in writes.items():
            expected = header + np.asarray(payload, "<f8").tobytes()
            write(tmp_path / f"{name}.vmc")
            assert (tmp_path / f"{name}.vmc").read_bytes() == expected, (name, count)
            received = []
            reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                      daemon=True)
            reader.start()
            write(fifo)
            reader.join(timeout=10)
            assert received == [expected], (name, count)


def test_write_frames_checks_every_frame_before_the_file_opens(tmp_path, chunk_count):
    chunk_count(3)
    path = tmp_path / "kept.vmc"
    path.write_bytes(b"old")
    frames = np.ones((5, 3, 4))
    frames[4, 2, 3] = np.inf
    with pytest.raises(ValueError, match="^observed entries must be finite$"):
        vio.write_frames(path, frames)
    assert path.read_bytes() == b"old"


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("over", [None, "an older complete file"])
def test_a_failed_write_leaves_a_file_the_reader_rejects(tmp_path, rng, monkeypatch,
                                                        chunk_count, count, over):
    # Chunk 0 fails after its first frame, once every later chunk has written
    # its frames: the file may have its full length, but no header.
    T, m, n = 6, 130, 130
    path = tmp_path / "frames.vmc"
    if over:
        vio.write_frames(path, rng.normal(size=(T, m, n)))
    chunk_count(count)
    write, others_done = vio.FrameWriter._write, threading.Semaphore(0)

    def fail_in_chunk_0(writer, lo, frames, scratch, dropped=None):
        if lo:
            write(writer, lo, frames, scratch, dropped)
            others_done.release()
            return
        write(writer, lo, frames[:1], scratch, dropped)
        for _ in range(count - 1):
            assert others_done.acquire(timeout=10)
        raise OSError("no space left")

    monkeypatch.setattr(vio.FrameWriter, "_write", fail_in_chunk_0)
    with pytest.raises(OSError, match="^no space left$"):
        vio.write_frames(path, rng.normal(size=(T, m, n)))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad magic {bytes(4)!r}, ")):
        vio.read_frames(path)


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_an_overwrite_is_in_place_and_gives_the_fresh_file(tmp_path, rng, chunk_count, old):
    T, m, n = 5, 6, 7
    frames, masks = rng.normal(size=(T, m, n)), rng.random((T, m, n)) < 0.6
    masks[:, 0, 0] = True
    writes = {
        "frames": lambda path: vio.write_frames(path, frames),
        "video": lambda path: vio.write_video(path, MaskedVideo(frames, masks)),
        "mask": lambda path: vio.write_mask(path, masks),
    }
    chunk_count(2)
    (tmp_path / "plain").write_bytes(b"")
    for name, write in writes.items():
        fresh, path = tmp_path / f"{name}-fresh.vmc", tmp_path / f"{name}.vmc"
        write(fresh)
        assert fresh.stat().st_mode == (tmp_path / "plain").stat().st_mode, name
        path.write_bytes(rng.bytes(len(fresh.read_bytes()) + 8 * m * n + 3 if old == "longer"
                                   else 11))
        path.chmod(0o640)
        before = path.stat()
        write(path)
        after = path.stat()
        assert path.read_bytes() == fresh.read_bytes(), name
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode), name


def test_writes_to_dev_null(rng):
    frames = rng.normal(size=(3, 4, 5))
    vio.write_frames(os.devnull, frames)
    vio.write_video(os.devnull, MaskedVideo(frames, frames > 0))
    vio.write_mask(os.devnull, frames > 0)


def test_a_writer_left_without_a_clean_exit_leaves_an_unreadable_file(tmp_path, rng):
    frames = rng.normal(size=(3, 4, 5))
    for path in tmp_path / "closed.vmc", tmp_path / "raised.vmc":
        vio.write_frames(path, frames + 1.0)  # an older complete file
    writer = vio.FrameWriter(tmp_path / "closed.vmc", frames.shape)
    writer._write(0, frames, np.empty((4, 5)))
    writer.close()
    with pytest.raises(KeyboardInterrupt):
        with vio.FrameWriter(tmp_path / "raised.vmc", frames.shape) as writer:
            writer._write(0, frames, np.empty((4, 5)))
            raise KeyboardInterrupt
    for path in tmp_path / "closed.vmc", tmp_path / "raised.vmc":
        with pytest.raises(ValueError, match="bad magic"):
            vio.read_frames(path)


def test_a_read_only_output_is_an_error_and_is_left_as_it_was(tmp_path, rng, capsys):
    truth, out = tmp_path / "truth.vmc", tmp_path / "out"
    vio.write_frames(truth, rng.random((3, 20, 30)))
    argv = ["simulate", "--input", str(truth), "--output-dir", str(out), "--pattern", "random"]
    assert main(argv) == 0
    masked = out / "masked.vmc"
    masked.chmod(0o444)
    if os.access(masked, os.W_OK):
        pytest.skip("this user may write to a read-only file")
    before = masked.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("vista: error: ") and err.count("\n") == 1, err
    assert "Permission denied" in err and str(masked) in err, err
    assert masked.read_bytes() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_writers_leak_no_descriptor(tmp_path, rng, monkeypatch, chunk_count):
    frames = rng.normal(size=(4, 5, 6))
    path = tmp_path / "frames.vmc"
    chunk_count(2)
    before = len(os.listdir("/proc/self/fd"))
    vio.write_frames(path, frames)
    vio.write_frames(path, frames)
    with monkeypatch.context() as patch:  # a step of opening after the descriptor is open
        patch.setattr(stat, "S_ISREG", lambda mode: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            vio.FrameWriter(path, frames.shape)
    with pytest.raises(IsADirectoryError):
        vio.write_frames(tmp_path, frames)
    with monkeypatch.context() as patch:
        patch.setattr(vio.FrameWriter, "_write", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            vio.write_frames(path, frames)
    assert len(os.listdir("/proc/self/fd")) == before


def test_whole_reads_are_the_same_in_any_chunk_count(tmp_path, rng, chunk_count):
    T, m, n = 7, 5, 6
    frames = rng.normal(size=(T, m, n))
    mask = rng.random((T, m, n)) < 0.4
    mask[:, 0, 0] = False
    vio._write_payload(tmp_path / "holes.vmc", np.where(mask, np.nan, frames))
    vio.write_frames(tmp_path / "full.vmc", frames)
    vio.write_mask(tmp_path / "mask.vmc", mask)
    reads = []
    for count in (1, 2, 3, 8):  # 8 chunks of 7 frames leave one empty
        chunk_count(count)
        video = vio.read_video(tmp_path / "holes.vmc")
        reads.append((_bits(video.frames), video.masks, _bits(vio.read_frames(tmp_path / "full.vmc")),
                      vio.read_mask(tmp_path / "mask.vmc")))
    np.testing.assert_array_equal(reads[0][1], ~mask)
    np.testing.assert_array_equal(reads[0][2], _bits(frames))
    np.testing.assert_array_equal(reads[0][3], mask)
    for read in reads[1:]:
        for array, first in zip(read, reads[0]):
            np.testing.assert_array_equal(array, first)


def _message(read, path):
    with pytest.raises(ValueError) as exc:
        read(path)
    return str(exc.value)


@pytest.mark.parametrize("case", ["truncated in the last chunk", "one trailing byte",
                                  "infinite in chunk 2, truncated in chunk 3", "0.5 in a mask"])
def test_chunked_reads_give_the_sequential_read_error(tmp_path, chunk_count, case):
    # Six frames in chunks [0, 2), [2, 4) and [4, 6).
    T, m, n = 6, 3, 4
    frames = np.ones((T, m, n))
    if case.startswith("infinite"):
        frames[3, 1, 2] = np.inf
    if case.startswith("0.5"):
        frames[4, 2, 1] = 0.5
    path = tmp_path / "bad.vmc"
    vio._write_payload(path, frames)
    data = path.read_bytes()
    if case.startswith(("truncated", "infinite")):
        path.write_bytes(data[:-8 * (m * n + 5)])  # ends inside frame 4
    if case == "one trailing byte":
        path.write_bytes(data + b"\x00")
    needs = f"{path}: payload for dims ({m}, {n}, {T}) needs {8 * T * m * n} bytes, got "
    reads, expected = {
        "truncated in the last chunk": ((vio.read_video, vio.read_frames, vio.read_mask),
                                        needs + str(8 * (4 * m * n + 7))),
        "one trailing byte": ((vio.read_video, vio.read_frames, vio.read_mask),
                              needs + str(8 * T * m * n + 1)),
        "infinite in chunk 2, truncated in chunk 3": (
            (vio.read_frames,), f"{path}: expected a fully observed video with finite values"),
        "0.5 in a mask": ((vio.read_mask,), f"{path}: mask file must contain only 0 and 1"),
    }[case]
    for read in reads:
        chunk_count(1)
        assert _message(read, path) == expected
        chunk_count(3)
        assert _message(read, path) == expected


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


def test_only_io_opens_files():
    opens = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(vio.__file__).parent.glob("*.py")) if path.name != "io.py"
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in opens]
    assert calls == []


def test_only_io_writes_the_missing_marker():
    # NaN marks a missing pixel in the container, and only io.py writes it, by
    # np.nan or by its bits; np.isnan and math.nan are other names.
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(Path(vio.__file__).parent.glob("*.py")) if path.name != "io.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "nan"
            and getattr(node.value, "id", None) in ("np", "numpy")
            or isinstance(node, ast.Constant) and node.value == 0x7FF8000000000000]
    assert uses == []


def test_only_io_and_video_decode_the_missing_marker():
    # io._read_all finds a read frame's NaN and infinities, and
    # MaskedVideo.from_dense a caller's NaN; no other module looks for either.
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(Path(vio.__file__).parent.glob("*.py"))
            if path.name not in ("io.py", "video.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("isnan", "isinf")
            and getattr(node.value, "id", None) in ("np", "numpy")]
    assert uses == []
