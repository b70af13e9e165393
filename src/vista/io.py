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

import struct

import numpy as np

from .video import MaskedVideo

_MAGIC = b"VMC1"
_HEADER = struct.Struct("<4sIIII")


def _write_payload(path, array: np.ndarray) -> None:
    "Write the header and then the (T, m, n) array's buffer, with no intermediate bytes copy."
    T, m, n = array.shape
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, m, n, T, 0))
        handle.write(np.ascontiguousarray(array, dtype="<f8").data)


def _check_finite(path, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: expected a fully observed video with finite values")
    return values


def _check_mask(path, values: np.ndarray) -> np.ndarray:
    "The 0/1 ``values`` as booleans."
    ones = values == 1.0
    if not (ones | (values == 0.0)).all():
        raise ValueError(f"{path}: mask file must contain only 0 and 1")
    return ones


_CHECKS = {None: lambda path, values: values, "finite": _check_finite, "mask": _check_mask}


class FrameReader:
    """A ``.vmc`` file read in one pass: whole, or one (m, n) frame at a time.

    Opening reads and checks the header, so ``shape`` (T, m, n) is known
    before any payload byte is read. Iterating yields each frame in turn,
    read into one reused (m, n) buffer: a frame is valid only until the next
    one is read. ``check`` is ``None`` (any values, NaN included),
    ``"finite"`` or ``"mask"`` (0 and 1 only, giving booleans); it runs on
    each frame as it arrives, or on the whole payload. The length is checked
    by reading, not by ``fstat``, so pipes work too: a short read, or any
    byte after the payload's end, is an error. Close the reader, or use it
    as a context manager.
    """

    def __init__(self, path, check=None):
        self.path = path
        self._check = _CHECKS[check]
        self._done = 0  # payload bytes read so far
        self._handle = open(path, "rb")
        try:
            self.shape = self._read_header()
        except BaseException:
            self._handle.close()
            raise

    def _read_header(self) -> tuple:
        header = self._handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{self.path}: truncated header, expected {_HEADER.size} bytes, "
                             f"got {len(header)}")
        magic, m, n, T, reserved = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{self.path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if reserved != 0:
            raise ValueError(f"{self.path}: reserved header word must be zero, got {reserved}")
        if min(m, n, T) < 1:
            raise ValueError(f"{self.path}: dimensions must be positive, got ({m}, {n}, {T})")
        return T, m, n

    def _needs(self) -> str:
        T, m, n = self.shape
        return f"{self.path}: payload for dims ({m}, {n}, {T}) needs {8 * m * n * T} bytes"

    def _empty(self, shape) -> np.ndarray:
        try:
            return np.empty(shape, dtype="<f8")
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{self._needs()}, more than can be allocated") from exc

    def _fill(self, buffer: np.ndarray):
        "Read the next ``buffer.nbytes`` payload bytes into ``buffer``; returns them checked."
        T, m, n = self.shape
        end = self._done + buffer.nbytes
        self._done += self._handle.readinto(buffer)
        if self._done == 8 * m * n * T:
            self._done += len(self._handle.read())
        if self._done != end:
            raise ValueError(f"{self._needs()}, got {self._done}")
        # native byte order; no copy on little-endian hosts
        return self._check(self.path, buffer.astype(float, copy=False))

    def read_all(self):
        "The whole payload, read with one call into one preallocated (T, m, n) array."
        return self._fill(self._empty(self.shape))

    def __iter__(self):
        frame = self._empty(self.shape[1:])
        for _ in range(self.shape[0]):
            yield self._fill(frame)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def write_video(path, video: MaskedVideo) -> None:
    _write_payload(path, video.to_dense())


def read_video(path) -> MaskedVideo:
    with FrameReader(path) as reader:
        return MaskedVideo.from_dense(reader.read_all())


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
    with FrameReader(path, "finite") as reader:
        return reader.read_all()


def write_mask(path, mask: np.ndarray) -> None:
    """Store a boolean (T, m, n) mask as a fully observed 0/1 video.

    Each frame goes out through one reused (m, n) float64 buffer; 0 and 1
    need no finiteness check.
    """
    mask = np.asarray(mask, dtype=bool)
    _check_dims(mask)
    T, m, n = mask.shape
    frame = np.empty((m, n), dtype="<f8")
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, m, n, T, 0))
        for values in mask:
            np.copyto(frame, values)
            handle.write(frame.data)


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
