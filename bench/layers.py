"""Per-layer metrics from the spans that ``traced_cli.py`` writes.

A span's self time is its duration minus the time its child spans cover.
The ``*_s`` metrics are sums over the named spans, and the io metrics count
only the outermost io call of a nest; ``solver.sweep_s`` is
the self time of the sweeps, so it excludes the objective evaluated inside
each sweep, which ``solver.objective_s`` reports. Layers a workload never
reaches report 0.
"""

import json
import statistics
from collections import defaultdict


def read_spans(path) -> tuple:
    """(meta record, list of span records) of one traced command."""
    meta, spans = None, []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "meta":
                meta = record
            else:
                spans.append(record)
    return meta, spans


def self_times(spans) -> dict:
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - covered[span["id"]] for span in spans}


def outer_io(spans) -> list:
    """io spans not nested in another io span (``read_mask`` calls ``read_frames``, ...)."""
    io_ids = {span["id"] for span in spans if span["layer"] == "io"}
    return [span for span in spans if span["layer"] == "io" and span["parent"] not in io_ids]


def layer_table(commands) -> dict:
    """Self time per layer over all traced commands, in seconds."""
    table = defaultdict(float)
    for _, spans, _ in commands:
        own = self_times(spans)
        for span in spans:
            table[span["layer"]] += own[span["id"]]
    return dict(sorted(table.items()))


def layer_metrics(commands, memory_commands) -> dict:
    """Per-layer metric values for one traced workload repeat.

    ``commands`` holds one ``(meta, spans, wall_s)`` triple per traced child
    of the timing pass, ``memory_commands`` the same for the pass that
    recorded ``tracemalloc`` peaks, which gives only the ``*_peak_mb`` values.
    """
    spans = [span for _, command_spans, _ in commands for span in command_spans]
    memory_spans = [span for _, command_spans, _ in memory_commands for span in command_spans]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def peak(*names):
        return max((s["peak_mb"] for s in memory_spans if s["name"] in names), default=0.0)

    io_calls = [s for _, command_spans, _ in commands for s in outer_io(command_spans)]
    reads = [s for s in io_calls if s["name"].startswith("io.read")]
    writes = [s for s in io_calls if s["name"].startswith("io.write")]
    read_names = {s["name"] for s in memory_spans if s["name"].startswith("io.read")}
    sweeps = [1000.0 * (s["end"] - s["start"]) for s in named("sweep")]
    solves = named("solve")
    aux_frames = sum(s["frames"] for s in named("build_auxiliary"))
    sweep_self = 0.0
    for _, command_spans, _ in commands:
        own = self_times(command_spans)
        sweep_self += sum(own[s["id"]] for s in command_spans if s["name"] == "sweep")

    import_s = sum(meta["import_s"] for meta, _, _ in commands)
    wall_s = sum(wall for _, _, wall in commands)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "cli.import_s": import_s,
        "cli.unattributed_s": wall_s - import_s - top,
        "io.read_s": sum(s["end"] - s["start"] for s in reads),
        "io.read_mb": sum(s["bytes"] for s in reads) / float(1 << 20),
        "io.write_s": sum(s["end"] - s["start"] for s in writes),
        "io.write_mb": sum(s["bytes"] for s in writes) / float(1 << 20),
        "io.read_peak_mb": peak(*read_names),
        "spherical.build_auxiliary_s": total("build_auxiliary"),
        "spherical.frame_fit_ms": 1000.0 * total("build_auxiliary") / aux_frames if aux_frames else 0.0,
        "transform.fit_s": total("fit_transform"),
        "transform.fits": len(named("fit_transform")),
        "transform.invert_s": total("invert"),
        "transform.clamped": sum(s["clamped"] for s in named("invert")),
        "solver.solves": len(solves),
        "solver.sweeps": len(sweeps),
        "solver.sweep_ms": statistics.median(sweeps) if sweeps else 0.0,
        "solver.sweep_ms_max": max(sweeps, default=0.0),
        "solver.sweep_s": sweep_self,
        "solver.objective_s": total("objective"),
        "solver.finalize_s": total("finalize"),
        "solver.converged_frac": (sum(bool(s["converged"]) for s in solves) / len(solves)
                                  if solves else 0.0),
        "solver.peak_mb": peak("solve"),
        "missingness.generate_s": total("generate"),
        "evaluation.compare_s": total("compare_models"),
        "evaluation.rse_calls": len(named("rse")),
        "evaluation.peak_mb": peak("compare_models", "rse"),
        "trace.coverage_frac": (import_s + top) / wall_s,
    }
