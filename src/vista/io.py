"""File formats: binary masked-video container, CSV tables and run manifests.

This is the one module that opens files.

Binary container layout (everything little-endian):

    bytes 0..3    magic "VMC1"
    bytes 4..15   m, n, T as unsigned 32-bit integers
    bytes 16..19  reserved, must be zero
    bytes 20..    T*m*n IEEE-754 doubles, frame-major then row-major;
                  NaN encodes a missing entry

Round trips are bit-exact for finite payloads and portable across
platforms.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from itertools import repeat

import numpy as np

from .chunks import _frame_chunks
from .video import Dims, MaskedVideo, _check_content, check_shape

_MAGIC = b"VMC1"
_HEADER = struct.Struct("<4sIIII")
_F8 = np.dtype("<f8")
_NAN_BITS = np.uint64(0x7FF8000000000000)  # np.nan


class _File:
    "An open ``.vmc`` file: close it, or use it as a context manager."

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class FrameReader(_File):
    """A ``.vmc`` file read one (m, n) frame at a time, in frame ranges.

    Opening reads and checks the header, so ``shape`` (T, m, n) is known
    before any payload byte is read. ``_read`` reads a frame range into the
    (m, n) arrays it is given: one reused buffer, or the slices of one
    array. ``check`` is ``None`` (any values, NaN included), ``"finite"`` or
    ``"mask"`` (0 and 1 only, giving booleans); it runs on each frame as it
    arrives. A file that can seek is read by position, so threads may read
    disjoint frame ranges of it at once (see ``_in_chunks``); one that
    cannot, such as a pipe, is read in order through its handle. The length
    is checked by reading, not by ``fstat``, so pipes work too: a short
    read, or any byte after the payload's end, is an error. Close the
    reader, or use it as a context manager.
    """

    def __init__(self, path, check=None):
        self.path = path
        self._check = check
        self._handle = open(path, "rb")
        try:
            header = self._handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ValueError(f"{path}: truncated header, expected {_HEADER.size} bytes, "
                                 f"got {len(header)}")
            magic, m, n, T, reserved = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
            if reserved != 0:
                raise ValueError(f"{path}: reserved header word must be zero, got {reserved}")
            if min(m, n, T) < 1:
                raise ValueError(f"{path}: dimensions must be positive, got ({m}, {n}, {T})")
            self._positional = self._handle.seekable() and hasattr(os, "preadv")
        except BaseException:
            self._handle.close()
            raise
        self.shape = T, m, n
        self._needs = f"{path}: payload for dims ({m}, {n}, {T}) needs {8 * m * n * T} bytes"

    def _empty(self, shape, dtype="<f8") -> np.ndarray:
        try:
            return np.empty(shape, dtype)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{self._needs}, more than can be allocated") from exc

    def _fill(self, buffer, at: int) -> int:
        """Read into ``buffer`` from payload byte ``at`` until it is full or the file ends;
        returns the byte count. A reader that cannot seek reads on from where it stands."""
        if not self._positional:
            return self._handle.readinto(buffer)
        view, got = memoryview(buffer).cast("B"), 0
        while got < len(view):
            step = os.preadv(self._handle.fileno(), [view[got:]], _HEADER.size + at + got)
            if not step:
                break
            got += step
        return got

    def _read(self, lo: int, targets):
        """Read payload frames lo, lo + 1, ... into the (m, n) arrays of ``targets``; yield
        each checked. The read that ends the payload reads on to the end of the file."""
        size, done = 8 * math.prod(self.shape), 8 * math.prod(self.shape[1:]) * lo
        for frame in targets:
            end = done + frame.nbytes
            done += self._fill(frame, done)
            if done == size:
                rest = bytearray(1 << 16)
                while step := self._fill(rest, done):
                    done += step
            if done != end:
                raise ValueError(f"{self._needs}, got {done}")
            if self._check == "finite" and not np.isfinite(frame).all():
                raise ValueError(f"{self.path}: expected a fully observed video with finite values")
            if self._check == "mask":
                ones = frame == 1.0
                if not (ones | (frame == 0.0)).all():
                    raise ValueError(f"{self.path}: mask file must contain only 0 and 1")
                frame = ones
            yield frame


class FrameWriter(_File):
    """A ``.vmc`` file of ``shape`` (T, m, n) written one (m, n) frame at a time, in frame ranges.

    Opening creates the file and writes the header. A file that can seek is
    written by position, frame t at payload byte 8·m·n·t, so threads may
    write disjoint frame ranges of it at once; one that cannot, such as a
    pipe, is written in order through its handle.
    """

    def __init__(self, path, shape):
        T, m, n = shape
        self.path = path
        self._frame_bytes = 8 * m * n
        self._handle = open(path, "wb")
        try:
            self._handle.write(_HEADER.pack(_MAGIC, m, n, T, 0))
            self._handle.flush()
            self._positional = self._handle.seekable() and hasattr(os, "pwrite")
        except BaseException:
            self._handle.close()
            raise

    def _write(self, lo: int, frames, scratch: np.ndarray, dropped=None) -> None:
        """Write the (m, n) frames of ``frames`` as payload frames lo, lo + 1, ... in ``<f8``.

        A frame of another type or layout (a boolean mask) is converted into
        the (m, n) float64 ``scratch`` first. Given ``dropped``, (m, n) masks
        taken one per frame, each float64 frame is written with exactly
        ``np.nan``'s bits, the missing marker, at its mask's pixels, whatever
        it holds there (another NaN, an infinity, −0.0), and with its own bits
        elsewhere; it is left as it is. That is built in ``scratch`` by integer
        arithmetic on the bits, without a branch per pixel or a float
        operation that could warn: (NaN bits − bits) · dropped + bits, modulo
        2**64. On a 181×361 frame (2-core Xeon) this takes about 85 µs, and
        ``np.putmask``, whose per-pixel branch mispredicts, about 290 µs at a
        50% random mask.
        """
        pairs = zip(frames, repeat(None) if dropped is None else dropped)
        for t, (frame, drop) in enumerate(pairs, lo):
            if drop is not None:
                bits, encoded = frame.view(np.uint64), scratch.view(np.uint64)
                np.subtract(_NAN_BITS, bits, out=encoded)
                np.multiply(encoded, drop, out=encoded)
                frame = np.add(encoded, bits, out=encoded).view(_F8)
            if frame.dtype != _F8 or not frame.flags.c_contiguous:
                converted = scratch.view(_F8)
                np.copyto(converted, frame)
                frame = converted
            view = memoryview(frame).cast("B")
            if not self._positional:
                self._handle.write(view)
                continue
            at = _HEADER.size + self._frame_bytes * t
            while view:
                step = os.pwrite(self._handle.fileno(), view, at)
                view, at = view[step:], at + step


def _in_chunks(work, shape, files, *scratch) -> None:
    """``chunks._frame_chunks`` over the frames of a (T, m, n) ``shape``, without BLAS: split
    only when every open ``.vmc`` file in ``files`` is read or written by position."""
    T, m, n = shape
    _frame_chunks(work, Dims(m, n, T), *scratch, blas=False,
                  split=all(file._positional for file in files))


def _write_payload(path, frames: np.ndarray, masks=None) -> None:
    """Write ``frames`` (T, m, n) whole in frame chunks (``_in_chunks``), NaN wherever the
    boolean (T, m, n) ``masks``, if given, are false; each mask frame is negated as it is
    written, into a buffer of its chunk."""
    m, n = frames.shape[1:]
    with FrameWriter(path, frames.shape) as writer:

        def work(lo, hi, scratch, dropped):
            drops = None if masks is None else (np.logical_not(mask, out=dropped)
                                                for mask in masks[lo:hi])
            writer._write(lo, frames[lo:hi], scratch, drops)

        _in_chunks(work, frames.shape, [writer], (m, n), ((m, n), bool))


def _read_all(reader: FrameReader, frames=None, observed=None) -> None:
    """Read every frame in chunks, frame t into ``frames[t]`` if given, else through one (m, n)
    buffer per chunk. Given a boolean (T, m, n) ``observed``, record each frame's non-NaN
    pixels there as it arrives, then raise the content rule's error, naming the file."""
    T, m, n = reader.shape
    seen, infinite = np.zeros(T, bool), np.zeros(T, bool)

    def work(lo, hi, *buffer):
        targets = frames[lo:hi] if frames is not None else repeat(buffer[0], hi - lo)
        for t, frame in enumerate(reader._read(lo, targets), lo):
            if observed is not None:
                np.logical_not(np.isnan(frame, out=observed[t]), out=observed[t])
                seen[t] = observed[t].any()
                infinite[t] = np.isinf(frame).any()

    _in_chunks(work, reader.shape, [reader], *([(m, n)] if frames is None else []))
    if observed is not None:
        _check_content(seen, not infinite.any(), reader.path)


def write_video(path, video: MaskedVideo) -> None:
    _write_payload(path, video.frames, video.masks)


def read_video(path) -> MaskedVideo:
    "Read a video with NaN at missing pixels; the read buffer becomes its frames, NaN zeroed."
    with FrameReader(path) as reader:
        frames, masks = reader._empty(reader.shape), reader._empty(reader.shape, bool)
        _read_all(reader, frames, masks)
    return MaskedVideo._adopt(frames, masks)


def write_frames(path, frames: np.ndarray) -> None:
    "Write a fully observed (T, m, n) array; each frame is checked finite before the file opens."
    frames = np.asarray(frames, dtype=float)
    check_shape(frames)
    if not all(np.isfinite(frame).all() for frame in frames):
        raise ValueError("observed entries must be finite")
    _write_payload(path, frames)


def read_frames(path) -> np.ndarray:
    "Read a video that must be fully observed; returns the (T, m, n) array."
    with FrameReader(path, "finite") as reader:
        frames = reader._empty(reader.shape)
        _read_all(reader, frames)
    return frames


def write_mask(path, mask: np.ndarray) -> None:
    "Store a boolean (T, m, n) mask as a fully observed 0/1 video."
    mask = np.asarray(mask, dtype=bool)
    check_shape(mask)
    _write_payload(path, mask)


def read_mask(path) -> np.ndarray:
    "Read a 0/1 video as a boolean (T, m, n) mask, each chunk's frames through one buffer."
    with FrameReader(path, "mask") as reader:
        mask = reader._empty(reader.shape, bool)

        def work(lo, hi, buffer):
            for t, frame in enumerate(reader._read(lo, repeat(buffer, hi - lo)), lo):
                mask[t] = frame

        _in_chunks(work, reader.shape, [reader], reader.shape[1:])
    return mask


def write_table(path, header, rows) -> None:
    "A CSV file: the header, then each row; minimal quoting and ``\\n`` line ends everywhere."
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(path, entries: dict) -> None:
    "Key=value text file; keys keep their insertion order."
    with open(path, "w", newline="") as handle:
        for key, value in entries.items():
            handle.write(f"{key}={value}\n")


def read_manifest(path) -> dict:
    entries = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key] = value
    return entries
