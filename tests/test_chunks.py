import os
import threading
import time

import pytest

from vista import chunks
from vista.video import Dims


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
