import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vista import chunks
from vista.video import AuxiliaryVideo, MaskedVideo


def random_video(rng, m, n, T, missing=0.5, positive=False):
    """Random masked video; every frame keeps at least one observed entry."""
    frames = rng.normal(size=(T, m, n))
    if positive:
        frames = 1.0 + np.abs(frames) * 3.0
    masks = rng.random((T, m, n)) > missing
    masks[:, 0, 0] = True
    return MaskedVideo(frames, masks)


def observed_video(frames):
    "A MaskedVideo of ``frames`` with every pixel observed."
    frames = np.asarray(frames, dtype=float)
    return MaskedVideo(frames, np.ones(frames.shape, bool))


def random_aux(rng, video):
    return AuxiliaryVideo(rng.normal(size=video.frames.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def chunk_count(monkeypatch):
    """``chunk_count(k)`` runs every later frame pass that may split in k chunks."""
    return lambda count: monkeypatch.setattr(chunks, "_chunks", lambda dims: count)
