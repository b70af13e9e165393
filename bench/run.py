"""Benchmark of the ``vista`` CLI: end-to-end runs and an outside-in per-layer trace.

    python3 bench/run.py --workload impute-tec --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root. The benchmark writes its inputs with
``vista.synthetic``, ``vista.missingness`` and ``vista.io`` from ``src/``,
then drives the real CLI (``python -m vista.cli``) as child processes in a
closed loop with one client: a command starts only after the previous one
has exited, and one process runs at a time. Workloads, their reasons and
the metric names are listed in ``BENCHMARK.json``; ``bench/README.md``
says which metric each layer should move.

``--trace 0`` repeats the workload's commands until ``--seconds`` have
passed, and at least twice so that every run compares its repeats'
outputs, and prints the end-to-end metrics. ``--trace 1`` runs one
untraced repeat and one traced repeat (``traced_cli.py``) and prints the
per-layer metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs
every workload at a tiny size in both modes and checks that each metric is
present with its unit. Scratch files go to ``bench/.work/`` and the large
ones are deleted before the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

BUDGET_S = 170.0        # every run must end within 180 s
MIN_REPEATS = 2         # repeats per run whatever --seconds says, so outputs are compared
SETUP_REPEATS = (3, 100)  # setup_s: median of at least 3 and at most 100 set-ups ...
SETUP_SECONDS = 2.0       # ... repeated until this much time has been spent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Run:
    """One benchmark run of one workload: its children, clock budget and failure counts."""

    def __init__(self, workload, seed: int, smoke: bool, traced: int):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.monotonic()
        self.dir = WORK / f"{workload.name}{'-smoke' if smoke else ''}-trace{traced}"
        self.inputs = self.dir / "inputs"
        self.logs = self.dir / "logs"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.logs.mkdir()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def env(self, threads) -> dict:
        """Child environment: inherited thread settings removed, ``threads`` imposed if set."""
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(SRC)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        return env

    def spawn(self, argv: list, env: dict, log_name: str) -> tuple:
        """Run one child to completion; returns (wall seconds, peak RSS MiB, exit code).

        Peak RSS comes from the child's own rusage (``os.wait4``), so an
        earlier, larger child cannot leak into it.
        """
        timeout = max(1.0, BUDGET_S - self.elapsed())
        with open(self.logs / f"{log_name}.log", "w") as log:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                                     stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, child.returncode

    def prepare(self, threads=None) -> tuple:
        """A child environment and its record, after checking its BLAS threads.

        ``threads`` of None means the default, one per CPU. Also imports the
        CLI once, untimed, to warm the file cache and bytecode.
        """
        env = self.env(threads)
        result = subprocess.run([sys.executable, str(BENCH / "blas_probe.py")], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
        if result.returncode != 0:
            raise BenchError(f"BLAS probe failed: {result.stderr.strip()}")
        info = json.loads(result.stdout)
        intended = threads if threads is not None else info["nproc"]
        for lib in ("numpy_blas", "scipy_blas"):
            if info[lib]["threads"] != intended:
                raise BenchError(f"{lib} runs {info[lib]['threads']} threads, "
                                 f"{intended} intended")
        warm = subprocess.run([sys.executable, "-c", "import vista.cli"], env=env, cwd=ROOT,
                              timeout=60)
        if warm.returncode != 0:
            raise BenchError("python -c 'import vista.cli' failed")
        info["intended_threads"] = intended
        print("env: " + json.dumps(info))
        return env, info

    def repeat(self, argvs: list, env: dict, out: Path, tag: str) -> tuple:
        """Run one repeat of the workload's commands; returns (walls, peak RSS, all exited 0)."""
        walls, peak, ok = [], 0.0, True
        for k, argv in enumerate(argvs):
            wall, rss, code = self.spawn(argv, env, f"{tag}-{k}")
            self.attempted += 1
            walls.append(wall)
            peak = max(peak, rss)
            if code != 0:
                self.failed += 1
                self.problems.append(f"{tag}: command {k} exited with {code}, see {self.logs}")
                ok = False
                break
        return walls, peak, ok

    def checked(self, out: Path, first: bool, tag: str):
        """Output check of a repeat whose commands all exited 0; a failed check counts once."""
        try:
            outcome = self.workload.check(self.inputs, out, first)
        except (OSError, ValueError, KeyError) as exc:
            outcome = None
            problems = [f"output check raised {exc!r}"]
        else:
            problems = outcome.problems
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
            return None
        return outcome

    def cli_argvs(self, out: Path) -> list:
        return [["-m", "vista.cli", *argv]
                for argv in self.workload.commands(self.inputs, out, self.smoke)]

    def cleanup(self) -> None:
        """Delete inputs and outputs; logs, spans and the report stay."""
        for path in self.dir.iterdir():
            if path.name not in ("logs", "trace", "report.json"):
                shutil.rmtree(path) if path.is_dir() else path.unlink()

    def finish(self, metrics: dict, report: dict) -> dict:
        report.update(workload=self.workload.name, seed=self.seed, attempted=self.attempted,
                      failed=self.failed, problems=self.problems, metrics=metrics)
        with open(self.dir / "report.json", "w") as handle:
            json.dump(report, handle, indent=1)
        for line in self.problems:
            print(f"problem: {line}")
        return {"correct": self.failed == 0 and not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def tail(values: list):
    """Highest percentile with at least ten samples above it, as (percent, value), or None."""
    ordered = sorted(values)
    k = len(ordered) - 10
    return None if k < 1 else (100.0 * k / len(ordered), ordered[k - 1])


def describe(name: str, values: list, unit: str) -> str:
    tail_text = ("no tail percentile (needs at least 11 samples)" if tail(values) is None
                 else "p{:.0f} {:.4f} {}".format(*tail(values), unit))
    return (f"{name}: median {statistics.median(values):.4f} {unit} over n={len(values)}; "
            f"{tail_text}")


def measure(run: Run, seconds: float) -> dict:
    workload = run.workload
    setup_times = []
    while len(setup_times) < SETUP_REPEATS[0] or \
            (sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_REPEATS[1]):
        start = time.perf_counter()
        workload.setup(run.inputs, run.seed, run.smoke)
        setup_times.append(time.perf_counter() - start)
    env, env_info = run.prepare()

    walls, peaks, first = [], [], None
    loop_start = time.monotonic()
    k = 0
    while k < MIN_REPEATS or time.monotonic() - loop_start < seconds:
        if k >= MIN_REPEATS and walls and run.elapsed() + 2 * walls[-1] > BUDGET_S:
            break
        out = run.dir / f"rep{k}"
        repeat_walls, peak, ok = run.repeat(run.cli_argvs(out), env, out, f"rep{k}")
        outcome = run.checked(out, first is None, f"rep{k}") if ok else None
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if outcome is None:
            continue
        if first is None:
            first = outcome
        elif (outcome.digest, outcome.heldout_rse, outcome.sweeps) != \
                (first.digest, first.heldout_rse, first.sweeps):
            run.failed += 1
            run.problems.append(f"rep{k - 1}: outputs differ from the first repeat")
            continue
        walls.append(sum(repeat_walls))
        peaks.append(peak)
    if first is None:
        raise BenchError("no repeat succeeded: " + "; ".join(run.problems))

    print(describe("wall_s", walls, "s"))
    print(describe("setup_s", setup_times, "s"))
    print(f"peak_rss_mb: median {statistics.median(peaks):.1f} MiB; heldout_rse_pct "
          f"{first.heldout_rse!r}; sweeps {first.sweeps}")
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup_times),
        "heldout_rse_pct": first.heldout_rse,
        "success_pct": 100.0 * (run.attempted - run.failed) / run.attempted,
    }
    return run.finish(metrics, {"env": env_info, "walls": walls, "peaks": peaks,
                                "setup_times": setup_times, "sweeps": first.sweeps})


def traced_pass(run: Run, env: dict, tag: str, memory: bool) -> tuple:
    """The workload's commands through ``traced_cli.py``; returns (commands, output digest)."""
    out = run.dir / tag
    spans_dir = run.dir / "trace"
    spans_dir.mkdir(exist_ok=True)
    commands = []
    for k, argv in enumerate(run.cli_argvs(out)):
        spans_path = spans_dir / f"{tag}-{k}.jsonl"
        traced = [str(BENCH / "traced_cli.py"), str(spans_path),
                  *(["--memory"] if memory else []), "--", *argv[2:]]
        wall, _, code = run.spawn(traced, env, f"{tag}-{k}")
        run.attempted += 1
        if code != 0:
            run.failed += 1
            run.problems.append(f"{tag} command {k} exited with {code}, see {run.logs}")
            raise BenchError("; ".join(run.problems))
        meta, spans = layers.read_spans(spans_path)
        commands.append((meta, spans, wall))
    try:
        output = digest(out / name for name in run.workload.compared)
    except OSError:
        output = None
    return commands, output


def trace(run: Run) -> dict:
    workload = run.workload
    workload.setup(run.inputs, run.seed, run.smoke)
    env, env_info = run.prepare()

    plain = run.dir / "untraced"
    walls, _, ok = run.repeat(run.cli_argvs(plain), env, plain, "untraced")
    baseline = run.checked(plain, True, "untraced") if ok else None

    commands, timed_output = traced_pass(run, env, "traced", memory=False)
    memory_commands, memory_output = traced_pass(run, env, "traced-memory", memory=True)
    match = baseline is not None and timed_output == memory_output == baseline.digest

    rel_diff = one_thread_wall = 0.0
    if workload.one_thread_twin and baseline is not None:
        twin_env, _ = run.prepare(threads=1)
        twin_out = run.dir / "twin"
        twin_walls, _, ok = run.repeat(run.cli_argvs(twin_out), twin_env, twin_out, "twin")
        if ok and run.checked(twin_out, True, "twin") is not None:
            rel_diff = workload.max_rel_diff(plain, twin_out)
            one_thread_wall = sum(twin_walls)

    metrics = layers.layer_metrics(commands, memory_commands)
    metrics.update({
        "solver.thread_rel_diff": rel_diff,
        "blas.one_thread_wall_s": one_thread_wall,
        "trace.overhead_s": sum(wall for _, _, wall in commands) - sum(walls),
        "trace.output_match": float(match),
        "blas.threads": float(env_info["intended_threads"]),
    })
    table = layers.layer_table(commands)
    print("self time by layer: " + ", ".join(f"{k} {v:.4f} s" for k, v in table.items()))
    print(f"traced wall {sum(w for _, _, w in commands):.4f} s, untraced wall {sum(walls):.4f} s, "
          f"coverage {metrics['trace.coverage_frac']:.4f}, output match {match}")
    return run.finish(metrics, {"env": env_info, "layers": table, "untraced_walls": walls})


def load_contract() -> dict:
    """Workload names, and metric name -> unit for each ``--trace`` mode, from ``BENCHMARK.json``."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path) as handle:
        spec = json.load(handle)
    return {"workloads": [w["name"] for w in spec["workloads"]],
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(name: str, seed: int, seconds: float, traced: int, smoke: bool,
                 units: dict) -> dict:
    """One run; its metrics must be exactly those ``BENCHMARK.json`` names for the mode."""
    run = Run(WORKLOADS[name], seed, smoke, traced)
    try:
        result = trace(run) if traced else measure(run, seconds)
    finally:
        run.cleanup()
    if set(result["metrics"]) != set(units):
        raise BenchError(f"metrics {sorted(set(result['metrics']) ^ set(units))} "
                         "are missing or not in BENCHMARK.json")
    result["metrics"] = {k: {"value": float(result["metrics"][k]), "unit": units[k]}
                         for k in units}
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        raise BenchError(f"non-finite metrics {bad}")
    return result


def smoke(contract: dict) -> int:
    """Every workload at a tiny size, in both modes; every metric present with its unit."""
    for name in contract["workloads"]:
        for traced in (0, 1):
            result = run_workload(name, seed=1, seconds=0.0, traced=traced, smoke=True,
                                  units=contract[traced])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != contract[traced] or not result["correct"] or result["failed"]:
                raise BenchError(f"smoke {name} trace={traced} failed: {json.dumps(result)}")
            print(f"smoke: {name} trace={traced}: {len(units)} metrics, "
                  f"{result['attempted']} commands, ok")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric set")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "vista" / "cli.py").is_file():
            raise BenchError(f"no vista sources under {SRC}")
        contract = load_contract()
        sys.path.insert(0, str(SRC))
        if args.smoke:
            return smoke(contract)
        if args.workload not in contract["workloads"]:
            raise BenchError(f"--workload must be one of {contract['workloads']}")
        result = run_workload(args.workload, abs(args.seed), args.seconds, args.trace, False,
                              contract[args.trace])
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
