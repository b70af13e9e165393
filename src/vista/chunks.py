"""Per-frame passes run as contiguous frame chunks, one per usable core.

A pass whose frames depend on no other frame is split into chunks [lo, hi)
of the frames, each run on a plain thread (the calling thread takes the
last). numpy releases the interpreter lock inside its loops and file reads
and writes release it too, so the chunks overlap. Every frame is computed
the same way in any chunk, so the results do not depend on the chunk count.
A pass that calls BLAS holds numpy's bundled OpenBLAS at one thread while it
runs (``_one_blas_thread``); where that library cannot be found, such a pass
runs in one chunk. The data path, which calls no BLAS, splits its passes
through ``io._in_chunks``: only when every file a pass reads or writes is
used by position.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

# Frames below this many pixels are not split over threads. On a 2-core Xeon a
# 10-sweep solve took, in one chunk against two: 98 against 140 ms at 60x90x24
# (rank 8), 188 ms either way at 90x180x24 (rank 5), and 378 against 285 ms at
# 128x256x24 (rank 10).
_CHUNK_PIXELS = 1 << 14


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up on first use, not at import, so a command that never solves
    never looks, and only under ``numpy.libs``, so scipy's own OpenBLAS is
    never touched.
    """
    libs = os.path.dirname(np.__file__) + ".libs"
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else []:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))  # numpy has loaded it already
        for suffix in ("64_", ""):
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    # numpy's OpenBLAS at one thread inside, restored on the way out; a no-op
    # where it cannot be found (then a pass that calls BLAS runs in one chunk).
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _chunks(dims) -> int:
    """Frame chunks per pass over a video of ``dims``: one per usable core, at most T.

    One chunk for frames under ``_CHUNK_PIXELS`` pixels, whose passes lose
    more to thread start-up and hand-offs of the interpreter lock than the
    second core gains.
    """
    if dims.m * dims.n < _CHUNK_PIXELS:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(dims.T, cores))


def _frame_chunks(work, dims, *scratch, blas=True, split=True) -> None:
    """Run ``work(lo, hi, *buffers)`` over contiguous chunks [lo, hi) of the frames.

    ``dims`` are those of the video the pass runs over; the chunk count is
    ``_chunks(dims)``, or 1 with ``split`` false (for input read in order,
    such as a pipe) and for a pass that calls BLAS (``blas``) where numpy's
    OpenBLAS cannot be held at one thread. Each chunk but the last runs on
    a plain thread, in a copy of the caller's context, which holds numpy's
    floating-point error state (``np.errstate``); the calling thread runs
    the last. Each chunk gets its own buffers of the ``scratch`` specs, a
    float64 shape or a ``(shape, dtype)`` pair, allocated here by the
    calling thread, so no worker allocates a frame-sized array. Once every
    chunk has returned, the error of the lowest failing chunk is raised; a
    chunk stops at its first failing frame, so that is the error of the
    lowest failing frame.
    """
    one = not split or (blas and _blas_threads() is None)
    T, count = dims.T, 1 if one else _chunks(dims)
    bounds = [T * i // count for i in range(count + 1)]
    buffers = [[np.empty(*spec) if isinstance(spec[0], tuple) else np.empty(spec)
                for spec in scratch] for _ in range(count)]
    errors = [None] * count

    def run(i):
        try:
            work(bounds[i], bounds[i + 1], *buffers[i])
        except Exception as exc:
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(count - 1)]
    for thread in threads:
        thread.start()
    run(count - 1)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
