import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vista import cli
from vista import io as vio
from vista.cli import MODELS, PROFILES, effective_lambdas, main, resolve_config
from vista.missingness import default_bbox, perimeter_path
from vista.synthetic import make_demo_video


@pytest.fixture(scope="module")
def truth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "truth.vmc"
    vio.write_frames(path, make_demo_video(40, 60, 4, seed=3))
    return path


def run(argv):
    assert main([str(a) for a in argv]) == 0


def manifest_without_timestamps(path):
    # output_dir differs between otherwise identical runs by construction
    return {k: v for k, v in vio.read_manifest(path).items()
            if not k.startswith("timestamp") and k != "output_dir"}


def test_profiles_encode_published_triples():
    assert PROFILES["storm"] == (0.9, 0.2, 0.021)
    assert PROFILES["nonstorm"] == (0.9, 0.31, 0.03)
    assert PROFILES["sim-demo"] == (0.9, 0.05, 0.01)


def test_model_selector_masks_lambdas():
    class Args:
        config = None
        profile = "sim-demo"
    args = Args()
    cfg = resolve_config(args)
    for model, expected in (("soft", (0.9, 0.0, 0.0)), ("ts", (0.9, 0.05, 0.0)),
                            ("sh", (0.9, 0.0, 0.01)), ("full", (0.9, 0.05, 0.01))):
        cfg.model = model
        assert effective_lambdas(cfg) == expected
    assert set(MODELS) == {"soft", "ts", "sh", "full"}


def test_simulate_deterministic_and_manifest_trajectory(tmp_path, truth_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run(["simulate", "--input", truth_file, "--output-dir", out,
             "--pattern", "temporal-patch", "--patch-size", "15", "--seed", "6"])
    assert (out_a / "masked.vmc").read_bytes() == (out_b / "masked.vmc").read_bytes()
    assert (out_a / "test_mask.vmc").read_bytes() == (out_b / "test_mask.vmc").read_bytes()
    assert (manifest_without_timestamps(out_a / "manifest.txt")
            == manifest_without_timestamps(out_b / "manifest.txt"))

    manifest = vio.read_manifest(out_a / "manifest.txt")
    centers = [tuple(int(x) for x in c.split(","))
               for c in manifest["result_patch_centers"].split(";")]
    assert len(centers) == 4
    path = perimeter_path(default_bbox(40, 60))
    index = {tuple(p): k for k, p in enumerate(path)}
    steps = [index[b] - index[a] for a, b in zip(centers, centers[1:])]
    assert all(s % len(path) == 6 for s in steps)


def test_simulate_warns_on_nonpreset_patch_size(tmp_path, truth_file, capsys):
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "w",
         "--pattern", "random-patch", "--patch-size", "16", "--seed", "1"])
    assert "not one of the presets" in capsys.readouterr().err


def test_simulate_holdout_mode(tmp_path, truth_file):
    out = tmp_path / "h"
    run(["simulate", "--input", truth_file, "--output-dir", out,
         "--holdout", "0.2", "--seed", "2"])
    train = vio.read_video(out / "masked.vmc")
    test = vio.read_mask(out / "test_mask.vmc")
    assert not (train.masks & test).any()
    assert int(test.sum()) == int(np.floor(0.2 * 40 * 60 + 0.5)) * 4


def test_impute_soft_equals_full_with_zero_lambdas(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.4", "--seed", "4"])
    common = ["--input", sim / "masked.vmc", "--rank", "4", "--max-iter", "40",
              "--sh-lmax", "4", "--seed", "9"]
    out_soft = tmp_path / "soft"
    out_full = tmp_path / "full"
    run(["impute", *common, "--output-dir", out_soft, "--model", "soft"])
    run(["impute", *common, "--output-dir", out_full, "--model", "full",
         "--lambda2", "0", "--lambda3", "0"])
    assert (out_soft / "imputed.vmc").read_bytes() == (out_full / "imputed.vmc").read_bytes()
    assert (out_soft / "diagnostics.csv").read_bytes() == (out_full / "diagnostics.csv").read_bytes()
    # the zero-lambda3 path never builds the auxiliary file
    assert not (out_soft / "auxiliary.vmc").exists()
    assert not (out_full / "auxiliary.vmc").exists()


def test_impute_diagnostics_objective_non_increasing(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.4", "--seed", "4"])
    out = tmp_path / "imp"
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", out,
         "--model", "full", "--profile", "sim-demo", "--rank", "4",
         "--max-iter", "40", "--sh-lmax", "4", "--seed", "9"])
    with open(out / "diagnostics.csv") as handle:
        rows = list(csv.DictReader(handle))
    objectives = np.array([float(r["objective"]) for r in rows])
    assert np.all(np.diff(objectives) <= 1e-9 * (1.0 + np.abs(objectives[:-1])))
    assert (out / "auxiliary.vmc").exists()
    manifest = vio.read_manifest(out / "manifest.txt")
    assert manifest["result_effective_lambdas"] == "0.9,0.05,0.01"


def test_impute_rerun_from_manifest_is_byte_identical(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "temporal", "--fraction", "0.3", "--seed", "5"])
    out_a = tmp_path / "runa"
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", out_a,
         "--model", "full", "--rank", "4", "--max-iter", "30", "--sh-lmax", "4",
         "--seed", "13"])
    out_b = tmp_path / "runb"
    run(["impute", "--config", out_a / "manifest.txt", "--output-dir", out_b])
    for name in ("imputed.vmc", "diagnostics.csv", "auxiliary.vmc"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (manifest_without_timestamps(out_a / "manifest.txt")
            == manifest_without_timestamps(out_b / "manifest.txt"))


def test_keep_observed_passes_values_through(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.5", "--seed", "8"])
    out = tmp_path / "keep"
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", out,
         "--model", "soft", "--rank", "4", "--max-iter", "30", "--seed", "1",
         "--keep-observed"])
    masked = vio.read_video(sim / "masked.vmc")
    imputed = vio.read_frames(out / "imputed.vmc")
    np.testing.assert_array_equal(imputed[masked.masks], masked.frames[masked.masks])


def test_evaluate_self_scores_zero_and_has_table_shape(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.3", "--seed", "3"])
    out = tmp_path / "eval"
    run(["evaluate", "--truth", truth_file, "--eval-mask", sim / "test_mask.vmc",
         "--imputed", f"soft={truth_file}", "--imputed", f"ts={truth_file}",
         "--imputed", f"sh={truth_file}", "--imputed", f"full={truth_file}",
         "--aux", truth_file, "--output-dir", out, "--level", "0.3"])
    with open(out / "summary.csv") as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows] == ["model", "soft", "ts", "sh", "full", "sh_direct"]
    assert all(float(r[1]) == 0.0 for r in rows[1:])
    with open(out / "margins.csv") as handle:
        margin_rows = list(csv.reader(handle))
    assert len(margin_rows) == 1 + 4  # ts, sh, full, sh_direct vs the soft baseline


def test_evaluate_margins_row_count_without_aux(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.3", "--seed", "3"])
    out = tmp_path / "eval2"
    run(["evaluate", "--truth", truth_file, "--eval-mask", sim / "test_mask.vmc",
         "--imputed", f"soft={truth_file}", "--imputed", f"ts={truth_file}",
         "--imputed", f"sh={truth_file}", "--imputed", f"full={truth_file}",
         "--output-dir", out])
    with open(out / "margins.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 3


def test_gridsearch_single_point_grid_returns_it(tmp_path, truth_file):
    out = tmp_path / "grid1"
    run(["gridsearch", "--input", truth_file, "--output-dir", out,
         "--lambda1-grid", "0.9", "--lambda2-grid", "0.05", "--lambda3-grid", "0.01",
         "--rank", "4", "--max-iter", "25", "--sh-lmax", "4", "--seed", "2"])
    best = vio.read_manifest(out / "best.txt")
    assert (best["lambda1"], best["lambda2"], best["lambda3"]) == ("0.9", "0.05", "0.01")


def test_gridsearch_stage_order_and_planted_optimum(tmp_path, truth_file):
    out = tmp_path / "grid3"
    grid1 = "0.5,0.9,1.3"
    run(["gridsearch", "--input", truth_file, "--output-dir", out,
         "--lambda1-grid", grid1, "--lambda2-grid", "0.05",
         "--lambda3-grid", "0.01", "--rank", "4", "--max-iter", "25",
         "--sh-lmax", "4", "--seed", "2"])
    manifest = vio.read_manifest(out / "manifest.txt")
    assert (float(manifest["timestamp_stage_lambda1"])
            <= float(manifest["timestamp_stage_lambda2"])
            <= float(manifest["timestamp_stage_lambda3"]))

    # exhaustive oracle over the same grid: replay each stage-1 candidate
    # through the library pipeline and compare the argmin
    from vista.missingness import holdout
    from vista.solver import solve
    from vista.transform import fit_transform, invert
    from vista.evaluation import rse
    from vista.video import PenaltyConfig

    video = vio.read_video(truth_file)
    train, test = holdout(video, 0.2, 2)
    scores = []
    for lam1 in (0.5, 0.9, 1.3):
        transformed, _, params = fit_transform(train, None, 0.5)
        imputed, _ = solve(transformed, None,
                           PenaltyConfig(lambda1=lam1, rank=4, max_iter=25, rng_seed=2))
        frames, _ = invert(imputed.frames, params)
        scores.append(np.mean([rse(video.frames[t], frames[t], test[t])
                               for t in range(video.dims.T)]))
    planted = ("0.5", "0.9", "1.3")[int(np.argmin(scores))]
    best = vio.read_manifest(out / "best.txt")
    assert best["lambda1"] == planted

    with open(out / "gridsearch.csv") as handle:
        rows = list(csv.reader(handle))
    stage1 = [float(r[4]) for r in rows[1:] if r[0] == "lambda1"]
    np.testing.assert_allclose(stage1, scores, rtol=1e-12)


def test_cli_import_loads_no_scipy():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool, and
    # the two pools contend on the solver's small calls.
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, vista.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"


def test_impute_rejects_nan_penalty_before_any_work(tmp_path, truth_file, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the configuration check")

    monkeypatch.setattr(cli, "build_auxiliary", unreachable)
    monkeypatch.setattr(cli, "solve", unreachable)
    with pytest.raises(ValueError, match="lambda1 must be finite"):
        main(["impute", "--input", str(truth_file), "--output-dir", str(tmp_path / "out"),
              "--lambda1", "nan"])
    assert not (tmp_path / "out").exists()
