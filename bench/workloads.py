"""The benchmark's workloads: their inputs, their CLI commands and their output checks.

Each workload keeps one fixed problem geometry, the fixed cases of the
project roadmap: which demo video, which pixels are missing. ``--seed``
draws only the observation noise on top of it (1% multiplicative, and the
perturbations that stand in for imputations in ``data-day``). Solver work
depends on the geometry far more than on the noise (27 sweeps for every
noise seed tried at TEC scale, against 20 to 29 when the seed also moved
the patch and the bump), so the run-to-run spread measures the program and
the machine rather than the draw.

Outputs are checked by code that does not call the package under test:
``.vmc`` files are read with numpy and RSE is recomputed here.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VIDEO_SEED = 11   # bump start of make_demo_video: fixed geometry
MASK_SEED = 7     # missingness pattern: fixed geometry
NOISE = 0.01      # relative observation noise drawn from --seed
RSE_CEILING = 25.0  # a held-out RSE above this percentage means a broken result


@dataclass(frozen=True)
class Shape:
    m: int
    n: int
    T: int
    rank: int = 0
    sh_lmax: int = 0
    patch: int = 0


def read_vmc(path) -> np.ndarray:
    """Memory-mapped (T, m, n) payload of a ``.vmc`` file, read without the package."""
    with open(path, "rb") as handle:
        magic, m, n, T, reserved = struct.unpack("<4sIIII", handle.read(20))
    if magic != b"VMC1" or reserved != 0:
        raise ValueError(f"{path}: not a VMC1 file")
    return np.memmap(path, dtype="<f8", mode="r", offset=20, shape=(T, m, n))


def read_manifest(path) -> dict:
    with open(path) as handle:
        return dict(line.rstrip("\n").split("=", 1) for line in handle if "=" in line)


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def mean_frame_rse(truth, imputed, mask) -> float:
    """Mean over frames of the per-frame held-out RSE, in percent."""
    values = []
    for t in range(truth.shape[0]):
        keep = np.asarray(mask[t]) > 0.5
        diff = np.asarray(imputed[t])[keep] - np.asarray(truth[t])[keep]
        values.append(100.0 * np.linalg.norm(diff) / np.linalg.norm(np.asarray(truth[t])[keep]))
    return float(np.mean(values))


@dataclass
class Outcome:
    """What one repeat produced: output digest, held-out RSE, sweeps and failed checks."""

    digest: str = ""
    heldout_rse: float = math.nan
    sweeps: int = None
    problems: list = field(default_factory=list)


def _noisy_truth(shape: Shape, rng) -> np.ndarray:
    from vista.synthetic import make_demo_video

    truth = make_demo_video(shape.m, shape.n, shape.T, seed=VIDEO_SEED)
    return truth * (1.0 + NOISE * rng.standard_normal(truth.shape))


def _write_masked_inputs(inputs: Path, shape: Shape, seed: int, spec) -> None:
    from vista import io as vio
    from vista.missingness import generate
    from vista.video import MaskedVideo

    truth = _noisy_truth(shape, np.random.default_rng(seed))
    dropped, _ = generate(spec, (shape.m, shape.n, shape.T))
    vio.write_frames(inputs / "truth.vmc", truth)
    vio.write_video(inputs / "masked.vmc", MaskedVideo(truth, ~dropped))
    vio.write_mask(inputs / "test_mask.vmc", dropped)


class Impute:
    """``vista impute --model full`` on the TEC-scale temporal-patch case.

    Its traced run also repeats the command with one BLAS thread
    (``one_thread_twin``), for the single-threaded wall time and the
    difference between the two imputations.
    """

    compared = ("imputed.vmc", "auxiliary.vmc", "diagnostics.csv")
    name = "impute-tec"
    one_thread_twin = True

    def shape(self, smoke: bool) -> Shape:
        if smoke:
            return Shape(19, 37, 4, rank=3, sh_lmax=3, patch=5)
        return Shape(181, 361, 24, rank=10, sh_lmax=11, patch=45)

    def setup(self, inputs: Path, seed: int, smoke: bool) -> None:
        from vista.missingness import MissingnessSpec

        shape = self.shape(smoke)
        spec = MissingnessSpec("temporal-patch", patch_size=shape.patch, rng_seed=MASK_SEED)
        _write_masked_inputs(inputs, shape, seed, spec)

    def commands(self, inputs: Path, out: Path, smoke: bool) -> list:
        shape = self.shape(smoke)
        return [["impute", "--input", str(inputs / "masked.vmc"), "--output-dir", str(out),
                 "--model", "full", "--profile", "sim-demo", "--rank", str(shape.rank),
                 "--sh-lmax", str(shape.sh_lmax)]]

    def check(self, inputs: Path, out: Path, first: bool) -> Outcome:
        problems = []
        manifest = read_manifest(out / "manifest.txt")
        if manifest.get("result_converged") != "True":
            problems.append(f"result_converged={manifest.get('result_converged')}")
        imputed = read_vmc(out / "imputed.vmc")
        truth = read_vmc(inputs / "truth.vmc")
        if imputed.shape != truth.shape:
            problems.append(f"imputed shape {imputed.shape} != {truth.shape}")
            return Outcome(problems=problems)
        if not (np.isfinite(imputed).all() and (imputed >= 0).all()):
            problems.append("imputed.vmc has non-finite or negative values")
        heldout = mean_frame_rse(truth, imputed, read_vmc(inputs / "test_mask.vmc"))
        if not heldout < RSE_CEILING:
            problems.append(f"held-out RSE {heldout!r} is not below {RSE_CEILING}")
        return Outcome(digest(out / name for name in self.compared), heldout,
                       int(manifest.get("result_sweeps", -1)), problems)

    def max_rel_diff(self, out_a: Path, out_b: Path) -> float:
        """Largest relative difference between two imputations of the same input."""
        a, b = read_vmc(out_a / "imputed.vmc"), read_vmc(out_b / "imputed.vmc")
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.finfo(float).tiny)))


class DataDay:
    """``vista simulate`` then ``vista evaluate`` at one day of 5-minute frames."""

    compared = ("sim/masked.vmc", "sim/test_mask.vmc", "eval/summary.csv",
                "eval/frame_metrics.csv", "eval/margins.csv")
    name = "data-day"
    one_thread_twin = False
    perturbations = (("soft", 0.05), ("full", 0.02))

    def shape(self, smoke: bool) -> Shape:
        return Shape(19, 37, 8) if smoke else Shape(181, 361, 288)

    def setup(self, inputs: Path, seed: int, smoke: bool) -> None:
        from vista import io as vio

        rng = np.random.default_rng(seed)
        truth = _noisy_truth(self.shape(smoke), rng)
        vio.write_frames(inputs / "truth.vmc", truth)
        for name, scale in self.perturbations:
            vio.write_frames(inputs / f"{name}.vmc",
                             truth * (1.0 + scale * rng.standard_normal(truth.shape)))

    def commands(self, inputs: Path, out: Path, smoke: bool) -> list:
        imputed = [f"--imputed={name}={inputs / (name + '.vmc')}" for name, _ in self.perturbations]
        return [["simulate", "--input", str(inputs / "truth.vmc"), "--output-dir", str(out / "sim"),
                 "--pattern", "random", "--seed", str(MASK_SEED)],
                ["evaluate", "--truth", str(inputs / "truth.vmc"),
                 "--eval-mask", str(out / "sim" / "test_mask.vmc"), *imputed,
                 "--output-dir", str(out / "eval")]]

    def check(self, inputs: Path, out: Path, first: bool) -> Outcome:
        problems = []
        with open(out / "eval" / "summary.csv", newline="") as handle:
            summary = {row["model"]: float(row["rse_pct"]) for row in csv.DictReader(handle)}
        if sorted(summary) != ["full", "soft"]:
            return Outcome(problems=[f"summary.csv models {sorted(summary)}"])
        if first:
            problems += self._verify(inputs, out, summary["full"])
        return Outcome(digest(out / name for name in self.compared), summary["full"], None,
                       problems)

    def _verify(self, inputs: Path, out: Path, reported_rse: float) -> list:
        """Full check of one repeat, frame by frame to keep memory low."""
        problems = []
        truth = read_vmc(inputs / "truth.vmc")
        masked = read_vmc(out / "sim" / "masked.vmc")
        mask = read_vmc(out / "sim" / "test_mask.vmc")
        for t in range(truth.shape[0]):
            dropped = np.asarray(mask[t])
            if not np.isin(dropped, (0.0, 1.0)).all():
                problems.append(f"test mask frame {t} is not 0/1")
                break
            if abs(dropped.mean() - 0.5) > 2.5 / math.sqrt(dropped.size):  # five sigma
                problems.append(f"frame {t} drops {dropped.mean():.3f} of its pixels, not 0.5")
                break
            kept = dropped == 0.0
            if not (np.isnan(masked[t][~kept]).all() and (masked[t][kept] == truth[t][kept]).all()):
                problems.append(f"masked.vmc frame {t} does not match truth and mask")
                break
        expected = mean_frame_rse(truth, read_vmc(inputs / "full.vmc"), mask)
        if not math.isclose(reported_rse, expected, rel_tol=1e-9):
            problems.append(f"summary RSE {reported_rse!r} != recomputed {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (Impute(), DataDay())}
