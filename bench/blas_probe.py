"""Print the run environment and the BLAS thread counts as one JSON line.

Run it as a child with the exact environment of a workload's commands:

    python3 bench/blas_probe.py

numpy and scipy each bundle their own OpenBLAS. Both are loaded here, and
each one's effective thread count is read back through ctypes, so the
numbers are the ones the workload's commands get, not the ones the parent
process happens to have.
"""

import ctypes
import glob
import json
import os
import platform

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)


def _openblas(package) -> dict:
    libs = sorted(glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs",
                                         "*openblas*")))
    info = {"library": None, "config": None, "threads": None}
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    info["library"] = os.path.basename(libs[0])
    for suffix in ("64_", ""):
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if get_threads is None:
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["threads"] = int(get_threads())
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            info["config"] = get_config().decode()
        break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "numpy_blas": _openblas(numpy),
        "scipy_blas": _openblas(scipy),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }))


if __name__ == "__main__":
    main()
