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


def _read_payload(path) -> np.ndarray:
    """Check the header and read the payload into one preallocated (T, m, n) array.

    The length is checked by reading, not by ``fstat``, so pipes work too.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
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
        expected = 8 * m * n * T
        try:
            payload = np.empty((T, m, n), dtype="<f8")
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{path}: payload for dims ({m}, {n}, {T}) needs {expected} "
                             f"bytes, more than can be allocated") from exc
        got = handle.readinto(payload)
        if got == expected:
            got += len(handle.read())
    if got != expected:
        raise ValueError(f"{path}: payload for dims ({m}, {n}, {T}) needs {expected} bytes, "
                         f"got {got}")
    return payload.astype(float, copy=False)  # native byte order; no copy on little-endian hosts


def write_video(path, video: MaskedVideo) -> None:
    _write_payload(path, video.to_dense())


def read_video(path) -> MaskedVideo:
    return MaskedVideo.from_dense(_read_payload(path))


def write_frames(path, frames: np.ndarray) -> None:
    "Write a fully observed (T, m, n) array."
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3:
        raise ValueError(f"frames must be a (T, m, n) array, got ndim={frames.ndim}")
    if min(frames.shape) < 1:
        raise ValueError(f"all dimensions must be positive, got {frames.shape}")
    if not np.isfinite(frames).all():
        raise ValueError("observed entries must be finite")
    _write_payload(path, frames)


def read_frames(path) -> np.ndarray:
    "Read a video that must be fully observed; returns the (T, m, n) array."
    frames = _read_payload(path)
    if not np.isfinite(frames).all():
        raise ValueError(f"{path}: expected a fully observed video with finite values")
    return frames


def write_mask(path, mask: np.ndarray) -> None:
    "Store a boolean (T, m, n) mask as a fully observed 0/1 video."
    write_frames(path, np.asarray(mask, dtype=bool).astype(float))


def read_mask(path) -> np.ndarray:
    values = _read_payload(path)
    mask = values == 1.0
    if not (mask | (values == 0.0)).all():
        raise ValueError(f"{path}: mask file must contain only 0 and 1")
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
