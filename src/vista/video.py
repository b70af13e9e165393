"""Data containers for masked matrix sequences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chunks import _frame_chunks


class Dims(NamedTuple):
    m: int
    n: int
    T: int


def check_shape(frames: np.ndarray) -> None:
    "Raise unless ``frames`` is a (T, m, n) array with every dimension positive."
    if frames.ndim != 3:
        raise ValueError(f"frames must be a (T, m, n) array, got ndim={frames.ndim}")
    if min(frames.shape) < 1:
        raise ValueError(f"all dimensions must be positive, got {frames.shape}")


def _check_content(seen: np.ndarray, finite: bool, path=None) -> None:
    """Raise for the lowest frame whose ``seen`` flag (any observed entry, one per frame) is
    false, else unless the observed entries are ``finite``; a given ``path`` starts the message."""
    named = "" if path is None else f"{path}: "
    empty = np.flatnonzero(~seen)
    if empty.size:
        raise ValueError(f"{named}frame {empty[0]} has no observed entries")
    if not finite:
        raise ValueError(f"{named}observed entries must be finite")


class _Frames:
    "The video containers' shared part: (T, m, n) ``frames``, read-only once ``_hold`` passes."

    _spare = False

    @classmethod
    def _adopt(cls, *arrays):
        "Take over ``arrays`` uncopied; ``_hold`` checks them as the constructor does, in place."
        item = cls.__new__(cls)
        item._hold(*arrays)
        return item

    @property
    def dims(self) -> Dims:
        T, m, n = self.frames.shape
        return Dims(m, n, T)


class MaskedVideo(_Frames):
    """A length-T sequence of m-by-n matrices with per-entry observation masks.

    Unobserved entries are stored as zero and carry no information; every
    consumer routes reads through the masks. Instances are immutable after
    construction and safe to share across threads, until their holder gives
    them up (see ``_give_up``).
    """

    def __init__(self, frames, masks):
        self._hold(np.array(frames, dtype=float), np.array(masks, dtype=bool))

    def _hold(self, frames: np.ndarray, masks: np.ndarray) -> None:
        check_shape(frames)
        if frames.shape != masks.shape:
            raise ValueError(f"frames shape {frames.shape} does not match masks shape {masks.shape}")
        T, m, n = frames.shape
        seen, finite = np.empty(T, bool), np.empty(T, bool)

        def work(lo, hi, flags):
            # Missing entries become 0, so the finiteness check covers exactly the observed ones.
            for t in range(lo, hi):
                np.copyto(frames[t], 0.0, where=np.logical_not(masks[t], out=flags))
                seen[t] = masks[t].any()
                finite[t] = np.isfinite(frames[t], out=flags).all()

        _frame_chunks(work, Dims(m, n, T), ((m, n), bool), blas=False)
        _check_content(seen, finite.all())
        self.frames = frames
        self.masks = masks
        self.frames.flags.writeable = False
        self.masks.flags.writeable = False

    @classmethod
    def from_dense(cls, frames) -> "MaskedVideo":
        """Build from a dense (T, m, n) array where NaN encodes missing."""
        frames = np.asarray(frames, dtype=float)
        return cls(frames, ~np.isnan(frames))


class AuxiliaryVideo(_Frames):
    """A fully observed companion sequence with the same (T, m, n) layout."""

    def __init__(self, frames):
        self._hold(np.array(frames, dtype=float))

    def _hold(self, frames: np.ndarray) -> None:
        check_shape(frames)
        if not np.isfinite(frames).all():
            raise ValueError("auxiliary frames must be fully observed and finite")
        self.frames = frames
        self.frames.flags.writeable = False

    def check_matches(self, video: MaskedVideo) -> None:
        if self.dims != video.dims:
            raise ValueError(f"auxiliary dims {self.dims} do not match video dims {video.dims}")


def _give_up(item):
    """Mark a MaskedVideo or AuxiliaryVideo (or None) as read no more by its holder, and return it.

    The next ``fit_transform`` or ``solve`` given it then takes the frames'
    buffer to build its result in, and ``item`` is left without frames.
    Nothing in the package gives up what a library caller passed in.
    """
    if item is not None:
        item._spare = True
    return item


def _writable(item) -> np.ndarray:
    "``item.frames`` to build a result in: a copy, or the buffer itself if ``item`` was given up."
    if not item._spare:
        return item.frames.copy()
    frames, item.frames = item.frames, None
    frames.flags.writeable = True
    return frames


class FactorSequence:
    """Per-frame factor pairs: ``left`` is (T, m, r), ``right`` is (T, n, r).

    Frame t is imputed by ``left[t] @ right[t].T``.
    """

    def __init__(self, left, right):
        left = np.array(left, dtype=float)
        right = np.array(right, dtype=float)
        if left.ndim != 3 or right.ndim != 3:
            raise ValueError("factors must be (T, rows, rank) arrays")
        if left.shape[0] != right.shape[0]:
            raise ValueError(f"left has {left.shape[0]} frames, right has {right.shape[0]}")
        if left.shape[2] != right.shape[2]:
            raise ValueError(f"rank mismatch: left {left.shape[2]}, right {right.shape[2]}")
        if left.shape[2] < 1:
            raise ValueError("rank must be at least 1")
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise ValueError("factor entries must be finite")
        self.left = left
        self.right = right

    @property
    def rank(self) -> int:
        return self.left.shape[2]

    @property
    def dims(self) -> Dims:
        return Dims(self.left.shape[1], self.right.shape[1], self.left.shape[0])

    def copy(self) -> "FactorSequence":
        return FactorSequence(self.left, self.right)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and iteration controls for the completion solver.

    ``lambda1`` weights the ridge/trace-norm penalty, ``lambda2`` the
    temporal-smoothing penalty, ``lambda3`` the auxiliary-data penalty.
    The solver itself additionally requires lambda1 > 0.
    """

    lambda1: float
    lambda2: float = 0.0
    lambda3: float = 0.0
    rank: int = 10
    max_iter: int = 500
    tol: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
