"""Outside-in traced run of one ``vista`` CLI command.

    python3 bench/traced_cli.py SPANS.jsonl [--memory] -- impute --input masked.vmc ...

The arguments after ``--`` are exactly those given to ``python -m vista.cli``,
and this script runs them through ``vista.cli.main`` itself. No file of the
package is changed: before the command starts, the functions ``cli.py``
calls (io, spherical, transform, solver, missingness, evaluation) and the
steps ``solver.solve`` calls once per sweep are rebound, for this process
only, to wrappers that put a span around each call. The traced command is
therefore the program's own code path, whatever ``cli.py`` does.

Spans stay in memory (name, layer, start, end, parent and a few counts) and
are written as JSON Lines when the command finishes; the first line records
the import time of ``vista.cli``. With ``--memory`` each span also gets its
``tracemalloc`` peak. That pass is kept apart because tracing allocations
slows code that makes many small arrays, which would distort the timings.

A function that ``cli.py`` or ``solver.py`` starts to call under another
name is not traced; its time shows up in ``cli.unattributed_s``.
"""

import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

_MB = float(1 << 20)

LAYERS = {
    "io": "io", "build_auxiliary": "spherical", "fit_transform": "transform",
    "invert": "transform", "solve": "solver", "init_factors": "solver",
    "objective": "solver", "sweep": "solver", "check_convergence": "solver",
    "finalize": "solver", "generate": "missingness",
    "rse": "evaluation", "compare_models": "evaluation", "evaluation": "evaluation",
}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]] if "." in name else LAYERS[name]


class Tracer:
    """In-memory span recorder with per-span tracemalloc peaks.

    ``tracemalloc`` keeps a single peak, so each span resets it on entry and
    folds it back into its parent on entry and exit; the peak of a span is
    then the largest traced allocation at any moment inside it, reported
    relative to what was allocated when the span began. Peaks read 0 while
    ``tracemalloc`` is off.
    """

    def __init__(self, origin: float):
        self.origin = origin
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        record = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
                  "name": name, "layer": layer_of(name), **attrs,
                  "_base": current, "_peak": current}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()
            peak = max(record.pop("_peak"), tracemalloc.get_traced_memory()[1])
            record["peak_mb"] = (peak - record.pop("_base")) / _MB
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)

    def wrap(self, name: str, function, counts=None):
        """``function`` with a span around each call; ``counts(args, result)`` adds fields."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if counts is not None:
                    record.update(counts(args, result))
            return result
        return traced


def _path_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def instrument(tracer: Tracer) -> None:
    """Rebind the functions ``cli.py`` and ``solver.solve`` call to traced wrappers.

    ``cli.py`` reaches these through its own module names (``vio.*`` as
    attributes of ``vista.io``), and ``solve`` reaches the per-sweep steps
    as globals of ``vista.solver``, so the rebinding puts a span around
    each of these calls that the real ``impute``, ``simulate --pattern`` and
    ``evaluate`` commands make. Counts come from the arguments or
    the return value of the wrapped call.
    """
    from vista import cli, evaluation, solver
    from vista import io as vio

    targets = [(vio, name, "io." + name, _path_bytes) for name in (
        "read_video", "read_frames", "read_mask", "write_video", "write_frames", "write_mask")]
    targets += [
        (cli, "build_auxiliary", "build_auxiliary", lambda args, result: {"frames": args[0].dims.T}),
        (cli, "fit_transform", "fit_transform", None),
        (cli, "invert", "invert", lambda args, result: {"clamped": int(result[1])}),
        (cli, "solve", "solve", lambda args, result: {"sweeps": result[1].sweeps,
                                                      "converged": bool(result[1].converged)}),
        (solver, "init_factors", "init_factors", None),
        (solver, "objective", "objective", None),
        (solver, "sweep", "sweep", None),
        (solver, "check_convergence", "check_convergence", None),
        (solver, "finalize", "finalize", None),
        (cli, "generate", "generate", None),
        (cli, "compare_models", "compare_models", None),
        (evaluation, "rse", "rse", None),
    ]
    targets += [(cli, name, "evaluation." + name, None)
                for name in ("write_frame_metrics", "write_summary", "write_margins")]
    for module, attr, name, counts in targets:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))


def main(argv) -> int:
    origin = time.perf_counter()
    split = argv.index("--") if "--" in argv else -1
    if split not in (1, 2) or argv[1:split] not in ([], ["--memory"]):
        print("usage: traced_cli.py SPANS.jsonl [--memory] -- <vista command and options>",
              file=sys.stderr)
        return 2
    spans_path, memory, cli_argv = argv[0], split == 2, argv[split + 1:]
    started = time.perf_counter()
    from vista import cli
    import_s = time.perf_counter() - started

    tracer = Tracer(origin)
    instrument(tracer)
    if memory:
        tracemalloc.start()
    try:
        code = cli.main(cli_argv)
    finally:
        tracemalloc.stop()
        with open(spans_path, "w") as handle:
            handle.write(json.dumps({"kind": "meta", "command": cli_argv[0],
                                     "import_s": import_s}) + "\n")
            for record in tracer.spans:
                handle.write(json.dumps({"kind": "span", **record}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
