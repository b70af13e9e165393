import os
import threading
import time

import numpy as np
import pytest

from vista import chunks
from vista.missingness import MissingnessSpec, generate
from vista.solver import solve
from vista.spherical import build_auxiliary
from vista.synthetic import make_demo_video
from vista.video import Dims, MaskedVideo, PenaltyConfig


def test_frame_chunks_raise_only_after_every_chunk_returned(monkeypatch):
    # Chunks [0, 2), [2, 4) and [4, 6); the first is the slowest and fails too.
    monkeypatch.setattr(chunks, "_chunks", lambda dims: 3)
    done = []

    def work(lo, hi):
        if lo == 0:
            time.sleep(0.05)
        for t in range(lo, hi):
            if t in (1, 3):
                raise ValueError(f"frame {t}")
            done.append(t)

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^frame 1$"):
        chunks._frame_chunks(work, Dims(2, 2, 6), blas=False)
    assert sorted(done) == [0, 2, 4, 5]
    assert threading.active_count() == threads


def test_each_chunk_gets_its_own_buffers_of_the_scratch_specs(monkeypatch):
    monkeypatch.setattr(chunks, "_chunks", lambda dims: 3)
    given = {}

    def work(lo, hi, floats, flags):
        given[lo] = floats, flags

    chunks._frame_chunks(work, Dims(4, 5, 6), (4, 5), ((4, 5), bool), blas=False)
    assert sorted(given) == [0, 2, 4]
    for floats, flags in given.values():
        assert (floats.shape, floats.dtype, flags.shape, flags.dtype) == ((4, 5), float, (4, 5), bool)
    assert len({id(buffer) for pair in given.values() for buffer in pair}) == 6


def test_chunk_count_follows_cores_frames_and_frame_size(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert chunks._chunks(Dims(181, 361, 24)) == 3
    assert chunks._chunks(Dims(181, 361, 2)) == 2
    assert chunks._chunks(Dims(60, 90, 24)) == 1

    def counted(**options):
        ranges = []
        chunks._frame_chunks(lambda lo, hi: ranges.append((lo, hi)), Dims(181, 361, 24),
                             **options)
        return len(ranges)

    # A pass that calls BLAS splits only where numpy's OpenBLAS can be pinned;
    # one that calls none splits anyway, unless its input is read in order.
    assert counted(blas=False) == 3
    assert counted(blas=False, split=False) == 1
    monkeypatch.setattr(chunks, "_blas_threads", lambda: None)
    assert counted() == 1
    assert counted(blas=False) == 3


def test_without_numpy_openblas_blas_passes_run_in_one_chunk(monkeypatch):
    # Where numpy's bundled OpenBLAS is not found, _one_blas_thread pins
    # nothing and every pass that calls BLAS runs in one chunk, never asking
    # for a chunk count; the random draw, which calls no BLAS, still splits.
    # The imputation is that of a normal run to rounding.
    frames = make_demo_video(12, 20, 6, seed=4)
    masks = np.random.default_rng(0).random(frames.shape) > 0.3
    video = MaskedVideo(frames, masks)
    cfg = PenaltyConfig(lambda1=0.9, lambda2=0.05, lambda3=0.01, rank=3, max_iter=20)
    spec = MissingnessSpec("random", 0.4, rng_seed=5)
    expected = solve(video, build_auxiliary(video, l_max=3), cfg)[0].frames
    expected_draw, _ = generate(spec, (12, 20, 6))

    monkeypatch.setattr(chunks.os.path, "isdir", lambda path: False)
    assert chunks._blas_threads.__wrapped__() is None  # no numpy.libs to look in
    monkeypatch.undo()
    asked = []
    monkeypatch.setattr(chunks, "_blas_threads", lambda: None)
    monkeypatch.setattr(chunks, "_chunks", lambda dims: asked.append(dims) or 3)
    imputed = solve(video, build_auxiliary(video, l_max=3), cfg)[0].frames
    assert asked == []
    draw, _ = generate(spec, (12, 20, 6))
    assert asked == [Dims(12, 20, 6)]
    assert np.array_equal(draw, expected_draw)
    assert np.linalg.norm(imputed - expected) <= 1e-12 * np.linalg.norm(expected)
