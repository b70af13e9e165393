"""File formats: binary masked-video container and run manifests.

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

import math
import struct
from itertools import repeat

import numpy as np

from .video import MaskedVideo

_MAGIC = b"VMC1"
_HEADER = struct.Struct("<4sIIII")


def _write_payload(path, frames: np.ndarray) -> None:
    """Write the header, then each (m, n) frame of ``frames`` as ``<f8``.

    A float64 frame goes out as its own buffer; any other frame (a boolean
    mask) is converted one frame at a time.
    """
    T, m, n = frames.shape
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, m, n, T, 0))
        for frame in frames:
            handle.write(np.ascontiguousarray(frame, dtype="<f8").data)


class FrameReader:
    """A ``.vmc`` file read in one pass, one (m, n) frame at a time.

    Opening reads and checks the header, so ``shape`` (T, m, n) is known
    before any payload byte is read. Iterating yields each frame in turn,
    read into one reused (m, n) buffer: a frame is valid only until the next
    one is read. ``check`` is ``None`` (any values, NaN included),
    ``"finite"`` or ``"mask"`` (0 and 1 only, giving booleans); it runs on
    each frame as it arrives. The length is checked by reading, not by
    ``fstat``, so pipes work too: a short read, or any byte after the
    payload's end, is an error. Close the reader, or use it as a context
    manager.
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
        except BaseException:
            self._handle.close()
            raise
        self.shape = T, m, n
        self._needs = f"{path}: payload for dims ({m}, {n}, {T}) needs {8 * m * n * T} bytes"

    def _empty(self, shape) -> np.ndarray:
        try:
            return np.empty(shape, dtype="<f8")
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{self._needs}, more than can be allocated") from exc

    def _read(self, targets):
        "Read each payload frame into the next (m, n) array of ``targets``; yield it checked."
        size, done = 8 * math.prod(self.shape), 0
        for frame in targets:
            end = done + frame.nbytes
            done += self._handle.readinto(frame)
            if done == size:
                done += len(self._handle.read())
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

    def __iter__(self):
        T, m, n = self.shape
        return self._read(repeat(self._empty((m, n)), T))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _read_whole(path, check=None) -> np.ndarray:
    "The (T, m, n) payload, frame t read straight into ``frames[t]`` of one array."
    with FrameReader(path, check) as reader:
        frames = reader._empty(reader.shape)
        for _ in reader._read(frames):
            pass
    return frames


def write_video(path, video: MaskedVideo) -> None:
    _write_payload(path, video.to_dense())


def read_video(path) -> MaskedVideo:
    return MaskedVideo.from_dense(_read_whole(path))


def _check_dims(array: np.ndarray) -> None:
    if array.ndim != 3:
        raise ValueError(f"frames must be a (T, m, n) array, got ndim={array.ndim}")
    if min(array.shape) < 1:
        raise ValueError(f"all dimensions must be positive, got {array.shape}")


def write_frames(path, frames: np.ndarray) -> None:
    "Write a fully observed (T, m, n) array."
    frames = np.asarray(frames, dtype=float)
    _check_dims(frames)
    if not np.isfinite(frames).all():
        raise ValueError("observed entries must be finite")
    _write_payload(path, frames)


def read_frames(path) -> np.ndarray:
    "Read a video that must be fully observed; returns the (T, m, n) array."
    return _read_whole(path, "finite")


def write_mask(path, mask: np.ndarray) -> None:
    "Store a boolean (T, m, n) mask as a fully observed 0/1 video."
    mask = np.asarray(mask, dtype=bool)
    _check_dims(mask)
    _write_payload(path, mask)


def read_mask(path) -> np.ndarray:
    "Read a 0/1 video as a boolean (T, m, n) mask, frame by frame."
    with FrameReader(path, "mask") as reader:
        mask = np.empty(reader.shape, dtype=bool)
        for t, frame in enumerate(reader):
            mask[t] = frame
    return mask


def write_manifest(path, entries: dict) -> None:
    "Key=value text file; keys keep their insertion order."
    with open(path, "w") as handle:
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
