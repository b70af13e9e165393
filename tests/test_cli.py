import argparse
import csv
import gc
import os
import re
import subprocess
import sys
import threading
import tempfile
import tracemalloc
import warnings
import weakref
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vista import cli
from vista import io as vio
from vista.cli import MODELS, PROFILES, effective_lambdas, main, resolve_config
from vista.missingness import default_bbox, perimeter_path
from vista.spherical import build_auxiliary
from vista.synthetic import make_demo_video
from vista.video import MaskedVideo


@pytest.fixture(scope="module")
def truth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "truth.vmc"
    vio.write_frames(path, make_demo_video(40, 60, 4, seed=3))
    return path


def run(argv):
    assert main([str(a) for a in argv]) == 0


def fails(argv, capsys, pattern):
    """The command exits with status 2 and one stderr line that matches pattern."""
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vista: error: ") and err.count("\n") == 1, err
    assert re.search(pattern, err), err


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


@pytest.mark.parametrize("pattern", ["random", "temporal-patch"])
def test_simulate_pattern_writes_the_input_with_nan_at_dropped_pixels(tmp_path, truth_file,
                                                                      pattern):
    # simulate writes the payload directly; it must match the MaskedVideo write byte for byte.
    out = tmp_path / "p"
    run(["simulate", "--input", truth_file, "--output-dir", out, "--pattern", pattern,
         "--patch-size", "15", "--seed", "4"])
    dropped = vio.read_mask(out / "test_mask.vmc")
    vio.write_video(tmp_path / "expected.vmc", MaskedVideo(vio.read_frames(truth_file), ~dropped))
    assert (out / "masked.vmc").read_bytes() == (tmp_path / "expected.vmc").read_bytes()


def test_simulate_holdout_mode(tmp_path, truth_file):
    out = tmp_path / "h"
    run(["simulate", "--input", truth_file, "--output-dir", out,
         "--holdout", "0.2", "--seed", "2"])
    train = vio.read_video(out / "masked.vmc")
    test = vio.read_mask(out / "test_mask.vmc")
    assert not (train.masks & test).any()
    assert int(test.sum()) == int(np.floor(0.2 * 40 * 60 + 0.5)) * 4


def test_simulate_holdout_holds_no_second_float_video(tmp_path):
    # Two boolean (T, m, n) arrays (the observed pixels, turned into the
    # dropped ones in place, and the test mask) are held, besides per-chunk
    # (m, n) buffers. A float video, such as the whole read input, a training
    # copy or a dense masked.vmc payload, would add 8 bytes a pixel. The
    # command's fixed costs are measured on one frame and taken off.
    m, n = 40, 60

    def peak(T):
        path = tmp_path / f"{T}.vmc"
        vio.write_frames(path, make_demo_video(m, n, T, seed=2))
        tracemalloc.start()
        try:
            run(["simulate", "--input", path, "--output-dir", tmp_path / str(T),
                 "--holdout", "0.2"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm-up: first-call allocations of the modules the command uses
    assert peak(64) - peak(1) < 4 * 63 * m * n


@pytest.mark.parametrize("mode", [["--pattern", "random"],
                                  ["--pattern", "random-patch", "--patch-size", "27"],
                                  ["--holdout", "0.2"]], ids=["random", "random-patch", "holdout"])
def test_simulate_writes_the_same_files_in_any_chunk_count(tmp_path, truth_file, chunk_count,
                                                           mode):
    # The last run has more chunks than frames (some are left empty) and
    # switches threads as often as the interpreter allows: a chunk that drew,
    # read or wrote outside its frames would show here.
    outputs, interval = [], sys.getswitchinterval()
    for count in (1, 2, 3, 8):
        chunk_count(count)
        out = tmp_path / str(count)
        if count == 8:
            sys.setswitchinterval(1e-6)
        try:
            run(["simulate", "--input", truth_file, "--output-dir", out, *mode, "--seed", "5"])
        finally:
            sys.setswitchinterval(interval)
        outputs.append(((out / "masked.vmc").read_bytes(), (out / "test_mask.vmc").read_bytes(),
                        manifest_without_timestamps(out / "manifest.txt")))
    assert all(output == outputs[0] for output in outputs[1:])


def test_simulate_reports_the_masked_file_error_first(tmp_path, truth_file, capsys):
    # Both files are written at once; when both fail, masked.vmc is named.
    out = tmp_path / "taken"
    (out / "masked.vmc").mkdir(parents=True)
    (out / "test_mask.vmc").mkdir()
    for mode in (["--pattern", "random"], ["--holdout", "0.2"]):
        fails(["simulate", "--input", truth_file, "--output-dir", out, *mode], capsys,
              "masked.vmc")


@pytest.mark.parametrize("fault", ["truncated", "infinite", "emptied"])
def test_failed_simulate_leaves_an_existing_output_directory_untouched(tmp_path, truth_file,
                                                                       chunk_count, capsys, fault):
    # Every input check runs before the first output file is opened.
    chunk_count(2)
    out = tmp_path / "out"
    run(["simulate", "--input", truth_file, "--output-dir", out, "--pattern", "random"])
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    bad = tmp_path / "bad.vmc"
    data = truth_file.read_bytes()
    bad.write_bytes(data[:-8] if fault == "truncated" else
                    data[:-8] + np.array([np.inf], dtype="<f8").tobytes() if fault == "infinite"
                    else data)
    fails(["simulate", "--input", bad, "--output-dir", out, "--pattern", "random",
           "--fraction", "0.9999" if fault == "emptied" else "0.5"], capsys,
          {"truncated": "needs 76800 bytes, got 76792", "infinite": "finite values",
           "emptied": "frame 0 has no observed entries"}[fault])
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("name", ["masked.vmc", "test_mask.vmc"])
def test_simulate_can_read_one_of_the_files_it_writes(tmp_path, truth_file, chunk_count, name):
    # The input is held whole, not read again while its own file is rewritten
    # in place: given as the output's name, or under a name hard-linked to it.
    chunk_count(2)
    for mode in (["--pattern", "random", "--fraction", "0.3"], ["--holdout", "0.2"]):
        argv = [*mode, "--seed", "4"]
        copy = tmp_path / mode[0] / "copy"
        run(["simulate", "--input", truth_file, "--output-dir", copy, *argv])
        for link in (False, True):
            out = tmp_path / mode[0] / ("link" if link else "same")
            out.mkdir()
            source = tmp_path / mode[0] / "input.vmc" if link else out / name
            source.write_bytes(truth_file.read_bytes())
            if link:
                os.link(source, out / name)
            run(["simulate", "--input", source, "--output-dir", out, *argv])
            for written in ("masked.vmc", "test_mask.vmc"):
                assert (out / written).read_bytes() == (copy / written).read_bytes(), (
                    mode, link, written)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("mode", [["--pattern", "random"], ["--holdout", "0.2"]],
                         ids=["random", "holdout"])
def test_simulate_reads_its_input_from_a_pipe(tmp_path, truth_file, chunk_count, mode):
    # A pipe cannot be read twice, so its frames are held from the checking pass.
    chunk_count(3)
    argv = [*mode, "--seed", "6"]
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "file", *argv])
    fifo = tmp_path / "truth.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(truth_file.read_bytes(),),
                              daemon=True)
    writer.start()
    run(["simulate", "--input", fifo, "--output-dir", tmp_path / "pipe", *argv])
    writer.join(timeout=10)
    assert not writer.is_alive()
    for name in ("masked.vmc", "test_mask.vmc"):
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    assert (manifest_without_timestamps(tmp_path / "pipe" / "manifest.txt")
            == {**manifest_without_timestamps(tmp_path / "file" / "manifest.txt"),
                "input": str(fifo)})


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_impute_reads_its_input_from_a_pipe(tmp_path, truth_file, chunk_count):
    # A pipe is read in order, in one chunk, through the same read as a file.
    chunk_count(3)
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "sim",
         "--pattern", "random", "--seed", "6"])
    argv = ["--model", "full", "--rank", "3", "--sh-lmax", "3", "--max-iter", "10"]
    run(["impute", "--input", tmp_path / "sim" / "masked.vmc", "--output-dir", tmp_path / "file",
         *argv])
    fifo = tmp_path / "masked.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=((tmp_path / "sim" / "masked.vmc").read_bytes(),), daemon=True)
    writer.start()
    run(["impute", "--input", fifo, "--output-dir", tmp_path / "pipe", *argv])
    writer.join(timeout=10)
    assert not writer.is_alive()
    for name in ("imputed.vmc", "auxiliary.vmc", "diagnostics.csv"):
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_gridsearch_reads_its_input_from_a_pipe(tmp_path, truth_file):
    # The input is read once: the truth at the test pixels is gathered from
    # the read frames before the training video takes them over.
    argv = ["--lambda1-grid", "0.5,0.9", "--lambda2-grid", "0,0.05", "--lambda3-grid", "0.01",
            "--rank", "3", "--sh-lmax", "3", "--max-iter", "10", "--seed", "2"]
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "file", *argv])
    fifo = tmp_path / "truth.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(truth_file.read_bytes(),),
                              daemon=True)
    writer.start()
    run(["gridsearch", "--input", fifo, "--output-dir", tmp_path / "pipe", *argv])
    writer.join(timeout=10)
    assert not writer.is_alive()
    for name in ("gridsearch.csv", "best.txt"):
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    assert (manifest_without_timestamps(tmp_path / "pipe" / "manifest.txt")
            == {**manifest_without_timestamps(tmp_path / "file" / "manifest.txt"),
                "input": str(fifo)})


@pytest.mark.parametrize("source", ["file", "own-output"])
def test_simulate_holdout_writes_one_nan_whatever_nan_its_input_holds(tmp_path, truth_file,
                                                                     chunk_count, source):
    # Pass 2 reads each frame again, NaN bits and all. An unobserved pixel
    # must not keep its own NaN through the writer's x − NaN, and a
    # signalling NaN must raise no warning: masked.vmc holds np.nan there,
    # as written from the video that read_video reads.
    chunk_count(3)
    data = truth_file.read_bytes()
    bits = np.frombuffer(data[20:], dtype="<u8").reshape(4, 40, 60).copy()
    missing = np.random.default_rng(1).random(bits.shape) < 0.3
    nans = np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF4000000000000], "<u8")
    bits[missing] = nans[np.arange(np.count_nonzero(missing)) % 3]
    out = tmp_path / "out"
    out.mkdir()
    path = tmp_path / "nans.vmc" if source == "file" else out / "masked.vmc"
    path.write_bytes(data[:20] + bits.tobytes())
    video = vio.read_video(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run(["simulate", "--input", path, "--output-dir", out, "--holdout", "0.2", "--seed", "3"])
    test = vio.read_mask(out / "test_mask.vmc")
    written = np.frombuffer((out / "masked.vmc").read_bytes()[20:], dtype="<u8").reshape(4, 40, 60)
    assert (written[missing | test] == 0x7FF8000000000000).all()
    assert (written[~(missing | test)] == bits[~(missing | test)]).all()
    vio.write_video(tmp_path / "expected.vmc", MaskedVideo(video.frames, video.masks & ~test))
    assert (out / "masked.vmc").read_bytes() == (tmp_path / "expected.vmc").read_bytes()


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


def test_impute_rerun_from_manifest_is_byte_identical(tmp_path, truth_file, capsys):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "temporal", "--fraction", "0.3", "--seed", "5"])
    out_a = tmp_path / "runa"
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", out_a,
         "--model", "full", "--rank", "4", "--max-iter", "30", "--sh-lmax", "4",
         "--seed", "13"])
    out_b = tmp_path / "runb"
    run(["impute", "--config", out_a / "manifest.txt", "--output-dir", out_b])
    # Earlier manifests listed all twenty RunConfig fields of their time for
    # every command; impute skips the five it does not read.
    every_field = tmp_path / "every_field.txt"
    every_field.write_text(
        f"version=0.1.0\ninput={sim / 'masked.vmc'}\noutput_dir={out_a}\nmodel=full\n"
        "lambda1=0.9\nlambda2=0.05\nlambda3=0.01\nrank=4\nmax_iter=30\ntol=1e-05\n"
        "sh_lmax=4\nsh_v=0.1\nboxcox_lambda=0.5\nboxcox_offset=0.001\npattern=\n"
        "fraction=0.5\npatch_size=45\nholdout=\nseed=13\nkeep_observed=False\nlevel=\n"
        "result_converged=True\ntimestamp_utc=2020-01-01T00:00:00Z\n")
    assert len(vio.read_manifest(every_field)) - 3 == 20
    out_c = tmp_path / "runc"
    run(["impute", "--config", every_field, "--output-dir", out_c])
    for name in ("imputed.vmc", "diagnostics.csv", "auxiliary.vmc"):
        assert ((out_a / name).read_bytes() == (out_b / name).read_bytes()
                == (out_c / name).read_bytes())
    assert (manifest_without_timestamps(out_a / "manifest.txt")
            == manifest_without_timestamps(out_b / "manifest.txt")
            == manifest_without_timestamps(out_c / "manifest.txt"))

    text = every_field.read_text()
    every_field.write_text(text + "lambda4=0.1\n")
    fails(["impute", "--config", every_field, "--output-dir", tmp_path / "rund"], capsys,
          "unknown config key 'lambda4'")
    every_field.write_text(text.replace("keep_observed=False", "keep_observed=ture"))
    fails(["impute", "--config", every_field, "--output-dir", tmp_path / "rune"], capsys,
          "config field 'keep_observed' cannot read 'ture'")
    assert not (tmp_path / "rund").exists() and not (tmp_path / "rune").exists()


def test_config_values_are_read_with_each_flag_type(tmp_path):
    config = tmp_path / "config.txt"

    def resolve(command, text, *flags):
        config.write_text(text)
        args = cli.build_parser().parse_args([command, "--config", str(config), *flags])
        return resolve_config(args)

    for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                        ("0", False), ("false", False), ("NO", False)):
        cfg = resolve("impute", f"input=x.vmc\nmodel=soft\nrank=3\nkeep_observed={text}\n")
        assert (cfg.keep_observed, cfg.model, cfg.rank) == (value, "soft", 3)
    assert resolve("evaluate", "level=\n", "--truth", "t.vmc", "--eval-mask", "m.vmc",
                   "--imputed", "soft=s.vmc").level == ""
    assert resolve("gridsearch", "input=x.vmc\nholdout=none\n").holdout is None
    for text, named in (("model=bogus", "config field 'model' must be one of .* got 'bogus'"),
                        ("rank=", "config field 'rank' must have a value"),
                        ("rank=2.5", "config field 'rank' cannot read '2.5'")):
        with pytest.raises(ValueError, match=named):
            resolve("impute", f"input=x.vmc\n{text}\n")


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


@pytest.mark.parametrize("keep", [False, True], ids=["dropped", "kept"])
def test_impute_transforms_in_the_read_buffer_unless_keep_observed(tmp_path, truth_file,
                                                                   monkeypatch, keep):
    # Nothing but --keep-observed reads the raw frames after the transform,
    # so without it the transform is built in the read buffer; with it the
    # read frames stay alive and unchanged beside a transformed copy. Either
    # way the auxiliary is transformed in build_auxiliary's own buffer, so no
    # array holds its untransformed values through the solve.
    real_read, real_build, real_solve = vio.read_video, cli.build_auxiliary, cli.solve
    raw, checked = {}, []

    def read(path):
        video = real_read(path)
        raw["video"] = weakref.ref(video.frames), video.frames.copy()
        return video

    def build(*args, **kwargs):
        aux = real_build(*args, **kwargs)
        raw["aux"] = weakref.ref(aux.frames), aux.frames.copy()
        return aux

    def solve(video, *args):
        gc.collect()
        (frames, values), (aux_frames, aux_values) = ((ref(), copy) for ref, copy in raw.values())
        assert frames is not None
        assert np.shares_memory(video.frames, frames) == (not keep)
        if keep:
            np.testing.assert_array_equal(frames, values)
        assert aux_frames is None or not np.array_equal(aux_frames, aux_values)
        checked.append(keep)
        del frames, aux_frames
        return real_solve(video, *args)

    monkeypatch.setattr(vio, "read_video", read)
    monkeypatch.setattr(cli, "build_auxiliary", build)
    monkeypatch.setattr(cli, "solve", solve)
    run(["impute", "--input", truth_file, "--output-dir", tmp_path / "imp", "--model", "full",
         "--rank", "4", "--sh-lmax", "4", "--max-iter", "10", *(["--keep-observed"] * keep)])
    assert checked == [keep]


def test_impute_writes_the_auxiliary_that_the_solver_used(tmp_path, truth_file):
    # auxiliary.vmc is the transformed auxiliary mapped back by invert after
    # the solve: build_auxiliary's frames to within rounding, clamped at zero,
    # and the same bytes whether or not --keep-observed keeps the read video.
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "temporal-patch", "--patch-size", "15", "--seed", "2"])
    written = []
    for keep in (False, True):
        out = tmp_path / f"imp-{keep}"
        run(["impute", "--input", sim / "masked.vmc", "--output-dir", out, "--model", "full",
             "--rank", "4", "--sh-lmax", "4", "--max-iter", "10", *(["--keep-observed"] * keep)])
        written.append((out / "auxiliary.vmc").read_bytes())
    assert written[0] == written[1]
    aux = vio.read_frames(tmp_path / "imp-False" / "auxiliary.vmc")
    built = build_auxiliary(vio.read_video(sim / "masked.vmc"), l_max=4, v=0.1).frames
    np.testing.assert_allclose(aux, built, rtol=1e-15, atol=1e-15)
    assert (aux >= 0).all()


@pytest.mark.parametrize("keep, bound", [(False, 4.0), (True, 4.6)], ids=["dropped", "kept"])
def test_impute_peak_memory_in_video_arrays(tmp_path, keep, bound):
    # One (T, m, n) float array is the unit. Through the solve impute holds
    # the transformed pair (the video in the read buffer, the auxiliary in its
    # render buffer) and writes the imputation into the video's buffer: 3.3
    # units with the factors. Without --keep-observed the peak, 3.7 units, is
    # build_auxiliary's (the read video, its output and its batch
    # temporaries); --keep-observed holds the read frames through the solve
    # too, 4.2 units. One more array held through the solve passes either bound.
    T, m, n = 24, 60, 90
    vio.write_frames(tmp_path / "truth.vmc", make_demo_video(m, n, T, seed=3))
    run(["simulate", "--input", tmp_path / "truth.vmc", "--output-dir", tmp_path / "sim",
         "--pattern", "temporal-patch", "--patch-size", "20", "--seed", "1"])
    tracemalloc.start()
    try:
        run(["impute", "--input", tmp_path / "sim" / "masked.vmc", "--output-dir", tmp_path / "imp",
             "--model", "full", "--rank", "8", "--sh-lmax", "6", *(["--keep-observed"] * keep)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * T * m * n) < bound


@pytest.mark.parametrize("grids", [[], ["--lambda3-grid", "0,0.01"]],
                         ids=["default-grids", "lambda3-grid-0-0.01"])
def test_gridsearch_peak_memory_in_video_arrays(tmp_path, grids):
    # One (T, m, n) float array is the unit. Through a stage-3 solve
    # gridsearch holds the training video in the read buffer, the cached
    # transformed pair (the auxiliary in its render buffer) and the
    # imputation, with masks, the truth at the test pixels and factors: 5.3
    # units at the peak. Each point's frames go once scored, a lambda3 = 0
    # point reuses stage 1's score, and the cache keeps one transform. The
    # read video held beside the training one, or the transform without the
    # auxiliary held through stage 3, passes the bound.
    T, m, n = 24, 60, 90
    vio.write_frames(tmp_path / "truth.vmc", make_demo_video(m, n, T, seed=3))
    run(["simulate", "--input", tmp_path / "truth.vmc", "--output-dir", tmp_path / "sim",
         "--pattern", "temporal-patch", "--patch-size", "20", "--seed", "1"])
    tracemalloc.start()
    try:
        run(["gridsearch", "--input", tmp_path / "sim" / "masked.vmc",
             "--output-dir", tmp_path / "grid", "--rank", "8", "--sh-lmax", "6", "--max-iter", "10",
             *grids])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * T * m * n) < 5.7


# At the edges of the shape: a dimension of 1, and rank = min(m, n).
_edge_shapes = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)).filter(
    lambda shape: 1 in shape)


@settings(max_examples=15, deadline=None)
@given(shape=_edge_shapes, data=st.data())
def test_impute_at_the_edges_keeps_observed_pixels_and_rejects_zero_variance(shape, data):
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.integers(1, 9)))
    missing = data.draw(hnp.arrays(bool, shape))
    missing[:, 0, 0] = False  # every frame keeps a pixel
    rank = str(min(shape[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        vio.write_video(tmp / "in.vmc", MaskedVideo(values, ~missing))
        outputs = []
        for keep in ([], ["--keep-observed"]):
            out = tmp / f"out{len(outputs)}"
            run(["impute", "--input", tmp / "in.vmc", "--output-dir", out, "--model", "full",
                 "--rank", rank, "--sh-lmax", "2", "--max-iter", "20", *keep])
            outputs.append(vio.read_frames(out / "imputed.vmc"))
        dropped, kept = outputs
        assert dropped[missing].tobytes() == kept[missing].tobytes()
        assert kept[~missing].tobytes() == values[~missing].tobytes()
        vio.write_video(tmp / "flat.vmc", MaskedVideo(np.full(shape, 5.0), ~missing))
        err = StringIO()
        with redirect_stderr(err):
            code = main(["impute", "--input", str(tmp / "flat.vmc"), "--output-dir",
                         str(tmp / "flat"), "--model", "soft", "--rank", rank])
        assert (code, err.getvalue()) == (
            2, "vista: error: pooled pixels have zero variance; cannot standardize\n")
        assert not (tmp / "flat").exists()


def test_evaluate_self_scores_zero_and_has_table_shape(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.3", "--seed", "3"])
    out = tmp_path / "eval"
    run(["evaluate", "--truth", truth_file, "--eval-mask", sim / "test_mask.vmc",
         "--imputed", f"soft={truth_file}", "--imputed", f"ts={truth_file}",
         "--imputed", f"sh={truth_file}", "--imputed", f"full={truth_file}",
         "--imputed", f"sh_direct={truth_file}", "--output-dir", out, "--level", "0.3"])
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
    test = holdout(video.masks, 0.2, 2)
    train = MaskedVideo(video.frames, video.masks & ~test)
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


def test_gridsearch_rows_and_best_follow_the_stage_argmins(tmp_path, truth_file):
    out = tmp_path / "grid"
    grids = grid1, grid2, grid3 = (0.5, 1.3), (0.01, 0.2), (0.005, 0.03)
    run(["gridsearch", "--input", truth_file, "--output-dir", out,
         *[f"--lambda{k}-grid={','.join(map(str, g))}" for k, g in enumerate(grids, 1)],
         "--rank", "4", "--max-iter", "10", "--sh-lmax", "4", "--seed", "2"])
    with open(out / "gridsearch.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    scores = [float(r[4]) for r in rows]
    best1 = grid1[int(np.argmin(scores[:2]))]
    expected = ([("lambda1", v, 0.0, 0.0) for v in grid1]
                + [("lambda2", best1, v, 0.0) for v in grid2]
                + [("lambda3", best1, 0.0, v) for v in grid3])
    assert [(r[0], *map(float, r[1:4])) for r in rows] == expected
    best = vio.read_manifest(out / "best.txt")
    assert best == {"lambda1": repr(best1),
                    "lambda2": repr(grid2[int(np.argmin(scores[2:4]))]),
                    "lambda3": repr(grid3[int(np.argmin(scores[4:]))])}


def test_gridsearch_fits_the_transform_once_per_variant(tmp_path, truth_file, monkeypatch):
    # Nine solves on the default grids share two transforms: without and
    # with the auxiliary video.
    real = cli.fit_transform
    with_aux = []

    def counted(video, aux, *args):
        with_aux.append(aux is not None)
        return real(video, aux, *args)

    monkeypatch.setattr(cli, "fit_transform", counted)
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "grid",
         "--rank", "4", "--max-iter", "10", "--sh-lmax", "4", "--seed", "2"])
    assert with_aux == [False, True]


def test_gridsearch_zero_lambda3_point_repeats_stage_one(tmp_path, truth_file, monkeypatch):
    # Stage 3's lambda3 = 0 point is stage 1's point at the chosen lambda1:
    # its row reuses that score, which is not solved again, so no transform
    # without the auxiliary is fitted for it.
    real = cli.fit_transform
    with_aux = []

    def counted(video, aux, *args):
        with_aux.append(aux is not None)
        return real(video, aux, *args)

    monkeypatch.setattr(cli, "fit_transform", counted)
    out = tmp_path / "grid"
    run(["gridsearch", "--input", truth_file, "--output-dir", out, "--lambda3-grid", "0,0.01",
         "--rank", "4", "--max-iter", "10", "--sh-lmax", "4", "--seed", "2"])
    assert with_aux == [False, True]
    with open(out / "gridsearch.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    best1 = vio.read_manifest(out / "best.txt")["lambda1"]
    stage1 = {float(r[1]): r[4] for r in rows if r[0] == "lambda1"}
    zero, = [r for r in rows if r[0] == "lambda3" and float(r[3]) == 0.0]
    assert zero[4] == stage1[float(best1)]


@pytest.mark.parametrize("grids, calls", [
    (["--lambda3-grid", "0"], ["solve"] * 6),
    ([], ["build_auxiliary"] + ["solve"] * 9),
    (["--lambda1-grid", "0.9,0.5,0.9"], ["build_auxiliary"] + ["solve"] * 8),
], ids=["lambda3-grid-0", "default-grids", "repeated-lambda1"])
def test_gridsearch_builds_the_auxiliary_video_once_before_any_solve(tmp_path, truth_file,
                                                                     monkeypatch, grids, calls):
    # A singular SH fit must fail before the first solve; with no lambda3 > 0
    # the auxiliary video is never built. Each distinct triple is solved once:
    # stage 3's lambda3 = 0 repeats stage 1's point, and a repeated lambda1
    # value its first.
    seen = []
    for name in ("build_auxiliary", "solve"):
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "grid", *grids,
         "--rank", "4", "--max-iter", "10", "--sh-lmax", "4", "--seed", "2"])
    assert seen == calls


def test_gridsearch_manifest_counts_points_that_ran_out_of_sweeps(tmp_path, truth_file):
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "grid",
         "--lambda1-grid", "0.5,0.9", "--lambda2-grid", "0.05", "--lambda3-grid", "0",
         "--rank", "4", "--max-iter", "1", "--seed", "2"])
    manifest = vio.read_manifest(tmp_path / "grid" / "manifest.txt")
    assert manifest["result_unconverged_points"] == "4"


def test_gridsearch_manifest_records_the_default_holdout(tmp_path, truth_file):
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "a",
         "--lambda1-grid", "0.5,0.9", "--lambda2-grid", "0.05", "--lambda3-grid", "0",
         "--rank", "3", "--max-iter", "5", "--seed", "2"])
    assert vio.read_manifest(tmp_path / "a" / "manifest.txt")["holdout"] == "0.2"
    run(["gridsearch", "--config", tmp_path / "a" / "manifest.txt", "--output-dir", tmp_path / "b"])
    for name in ("gridsearch.csv", "best.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_cli_import_loads_no_scipy():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool, and
    # the two pools contend on the solver's small calls.
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, vista.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("value, named", [
    ("nan", "lambda1 must be finite"),
    ("0", "the solver requires lambda1 > 0, got 0.0"),
], ids=["nan", "zero"])
def test_impute_rejects_nan_penalty_before_any_work(tmp_path, truth_file, monkeypatch, capsys,
                                                    value, named):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the configuration check")

    monkeypatch.setattr(cli, "build_auxiliary", unreachable)
    monkeypatch.setattr(cli, "solve", unreachable)
    fails(["impute", "--input", truth_file, "--output-dir", tmp_path / "out",
           "--lambda1", value], capsys, named)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--holdout", "nan"],
     "holdout fraction must lie strictly inside \\(0, 1\\), got nan"),
    (["simulate", "--pattern", "random", "--fraction", "1.5"], "got 1.5"),
    (["gridsearch", "--holdout", "0.0"], "holdout fraction .*got 0.0"),
    (["gridsearch", "--lambda1-grid", "0.9,nan"],
     "lambda1 grid values must be finite and positive, got nan"),
    (["gridsearch", "--lambda1-grid", "0"], "lambda1 grid values .* positive, got 0.0"),
    (["gridsearch", "--lambda3-grid", "0.01,-0.1"],
     "lambda3 grid values must be finite and non-negative, got -0.1"),
    (["gridsearch", "--lambda2-grid", "0.05,abc"], "lambda2 grid '0.05,abc': .*'abc'"),
    (["gridsearch", "--lambda1-grid", ","], "empty lambda1 grid ','"),
    (["simulate", "--pattern", "random", "--holdout", "0.3"],
     "give --pattern or --holdout, not both"),
    # A line break would split the value's manifest line, which --config could not replay.
    (["gridsearch", "--lambda2-grid", "0.05\n0.2"],
     r"--lambda2-grid must not contain a line break, got '0\.05\\n0\.2'"),
    (["gridsearch", "--lambda1-grid", "0.9\r"],
     r"--lambda1-grid must not contain a line break, got '0\.9\\r'"),
], ids=["simulate-holdout-nan", "simulate-fraction-1.5", "gridsearch-holdout-0",
        "gridsearch-lambda1-nan", "gridsearch-lambda1-0", "gridsearch-lambda3-negative",
        "gridsearch-lambda2-text", "gridsearch-lambda1-empty", "simulate-pattern-and-holdout",
        "gridsearch-lambda2-grid-line-break", "gridsearch-lambda1-grid-carriage-return"])
def test_bad_fraction_fails_before_any_work(tmp_path, capsys, argv, named):
    # The input does not exist: a read before the check would fail differently.
    fails([*argv, "--input", tmp_path / "missing.vmc", "--output-dir", tmp_path / "out"],
          capsys, named)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["--imputed", "full=a.vmc", "--imputed", "full=b.vmc"],
     "model name 'full' is given more than once"),
    # Each of these values would be written to the manifest across two lines.
    (["--imputed", "fu\nll=a.vmc"], r"--imputed name must not contain a line break, got 'fu\\nll'"),
    (["--imputed", "soft=a.vmc", "--level", "a\nb"],
     r"--level must not contain a line break, got 'a\\nb'"),
    (["--imputed", "soft=a.vmc", "--truth", "t\r\nx.vmc"],
     r"--truth must not contain a line break, got 't\\r\\nx\.vmc'"),
], ids=["imputed-twice", "imputed-name-line-break", "level-line-break", "truth-line-break"])
def test_evaluate_rejects_repeated_model_name_before_any_work(tmp_path, capsys, argv, named):
    # No input exists: a read before the check would fail differently.
    fails(["evaluate", "--truth", tmp_path / "truth.vmc", "--eval-mask", tmp_path / "mask.vmc",
           *argv, "--output-dir", tmp_path / "out"], capsys, named)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("item", ["=a.vmc", "full=", "full"],
                         ids=["empty-name", "empty-path", "no-equals"])
def test_evaluate_rejects_imputed_without_name_and_path_before_any_work(tmp_path, capsys, item):
    # No input exists: a read before the check would fail differently.
    fails(["evaluate", "--truth", tmp_path / "truth.vmc", "--eval-mask", tmp_path / "mask.vmc",
           "--imputed", item, "--output-dir", tmp_path / "out"], capsys,
          f"--imputed expects name=path, got '{item}'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["impute", "--max", "3"],
    ["gridsearch", "--lambda1", "0.5"],
    ["simulate", "--rank", "4"],
    ["impute", "--holdout", "0.2"],
    ["evaluate", "--seed", "1", "--truth", "t.vmc", "--eval-mask", "m.vmc",
     "--imputed", "soft=s.vmc"],
    ["gridsearch", "--profile", "storm"],
    ["gridsearch", "--lambda2", "0.3"],
], ids=["impute-abbreviated-max-iter", "gridsearch-abbreviated-lambda1-grid",
        "simulate-rank", "impute-holdout", "evaluate-seed", "gridsearch-profile",
        "gridsearch-lambda2"])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, argv):
    # Neither an abbreviation nor another command's flag is accepted.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--pattern", "random"],
    ["impute"],
    ["gridsearch"],
    ["impute", "--config", "CONFIG"],
], ids=["simulate", "impute", "gridsearch", "impute-config-without-input"])
def test_missing_input_fails_before_any_work(tmp_path, capsys, argv):
    config = tmp_path / "config.txt"
    config.write_text("model=soft\nrank=4\n")
    argv = [config if a == "CONFIG" else a for a in argv]
    fails([*argv, "--output-dir", tmp_path / "out"], capsys, "--input")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--pattern", "random", "--input", "MISSING"],
    ["simulate", "--holdout", "0.2", "--input", "MISSING"],
    ["impute", "--input", "MISSING"],
    ["evaluate", "--truth", "TRUTH", "--eval-mask", "MISSING", "--imputed", "soft=TRUTH"],
    ["gridsearch", "--input", "MISSING"],
], ids=["simulate-pattern", "simulate-holdout", "impute", "evaluate", "gridsearch"])
def test_missing_input_file_leaves_no_output_directory(tmp_path, truth_file, capsys, argv):
    argv = [a.replace("MISSING", str(tmp_path / "missing.vmc")).replace("TRUTH", str(truth_file))
            for a in argv]
    fails([*argv, "--output-dir", tmp_path / "fo" / "out"], capsys,
          r"No such file or directory: '.*missing\.vmc'")
    assert not (tmp_path / "fo").exists()


@pytest.mark.parametrize("argv, named", [
    (["--input", "MISSING"], r"No such file or directory: '.*missing\.vmc'"),
    (["--input", "TINY", "--model", "sh", "--sh-v", "0", "--sh-lmax", "4", "--rank", "2"],
     "spherical-harmonics fit is singular"),
], ids=["missing-input-file", "singular-sh-fit"])
def test_impute_failure_prints_one_line(tmp_path, capsys, argv, named):
    # 20 observed pixels a frame cannot fix 25 unridged coefficients.
    tiny = tmp_path / "tiny.vmc"
    vio.write_frames(tiny, np.random.default_rng(0).uniform(1.0, 2.0, size=(2, 4, 5)))
    paths = {"MISSING": tmp_path / "missing.vmc", "TINY": tiny}
    fails(["impute", *[paths.get(a, a) for a in argv], "--output-dir", tmp_path / "out"],
          capsys, named)
    assert not (tmp_path / "out" / "auxiliary.vmc").exists()


@pytest.mark.parametrize("command", [["impute"], ["simulate", "--holdout", "0.2"],
                                     ["gridsearch", "--sh-lmax", "3"]],
                         ids=["impute", "simulate-holdout", "gridsearch"])
def test_read_video_content_errors_name_the_file(tmp_path, truth_file, capsys, command):
    # A short payload is reported first, then the lowest frame with no
    # observed entries, then an infinite observed entry.
    data = truth_file.read_bytes()
    frames = np.frombuffer(data[20:], dtype="<f8").reshape(4, 40, 60)
    infinite, hollow = frames.copy(), frames.copy()
    infinite[3, 39, 59] = np.inf
    hollow[2] = np.nan
    both = np.where(np.isnan(hollow), np.nan, infinite)
    for name, payload, named in (
            ("infinite", infinite.tobytes(), "observed entries must be finite"),
            ("hollow", hollow.tobytes(), "frame 2 has no observed entries"),
            ("both", both.tobytes(), "frame 2 has no observed entries"),
            ("short", both.tobytes()[:-8],
             re.escape("payload for dims (40, 60, 4) needs 76800 bytes, got 76792"))):
        path = tmp_path / f"{name}.vmc"
        path.write_bytes(data[:20] + payload)
        fails([*command, "--input", path, "--output-dir", tmp_path / "out"], capsys,
              rf"^vista: error: {re.escape(str(path))}: {named}$")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault, named", [
    ("infinite frame 0, empty frame 5", "frame 5 has no observed entries"),
    ("empty frame 0, short payload", "payload for dims (3, 4, 6) needs 576 bytes, got 568"),
    ("one -inf", "observed entries must be finite"),
], ids=["infinite-and-empty", "empty-and-short", "one-negative-infinity"])
def test_read_video_content_errors_keep_their_order_in_any_chunk_count(tmp_path, chunk_count,
                                                                      capsys, fault, named):
    # Six frames, in chunks [0, 2), [2, 4) and [4, 6) at three: a short
    # payload first, then the lowest empty frame, then an infinite entry,
    # wherever each lies, for read_video and for simulate --holdout alike.
    frames = np.ones((6, 3, 4))
    if fault.startswith("infinite"):
        frames[0, 1, 2], frames[5] = np.inf, np.nan
    if fault.startswith("empty"):
        frames[0] = np.nan
    if fault == "one -inf":
        frames[3, 2, 1] = -np.inf
    path = tmp_path / "bad.vmc"
    vio._write_payload(path, frames)
    if fault.endswith("short payload"):
        path.write_bytes(path.read_bytes()[:-8])
    message = f"{path}: {named}"
    for count in (1, 3):
        chunk_count(count)
        with pytest.raises(ValueError) as exc:
            vio.read_video(path)
        assert str(exc.value) == message
        fails(["simulate", "--input", path, "--output-dir", tmp_path / "out", "--holdout", "0.2"],
              capsys, rf"^vista: error: {re.escape(message)}$")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error, named", [
    (MemoryError("Unable to allocate 1.38 TiB for an array with shape (24, 181, 361, 10000)"),
     r"vista: error: Unable to allocate 1\.38 TiB for an array"),
    (MemoryError(), "vista: error: MemoryError$"),
], ids=["numpy-message", "no-message"])
def test_failed_allocation_prints_one_line(tmp_path, truth_file, monkeypatch, capsys, error,
                                           named):
    # Whether a huge request is refused depends on the host's overcommit
    # policy, so the allocation failure is raised by a stand-in.
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build_auxiliary", refuse)
    fails(["impute", "--input", truth_file, "--output-dir", tmp_path / "out"], capsys, named)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["impute", "gridsearch"])
def test_over_large_rank_fails_right_after_reading(tmp_path, truth_file, monkeypatch, capsys,
                                                   command):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the rank check")

    for name in ("build_auxiliary", "fit_transform", "holdout"):
        monkeypatch.setattr(cli, name, unreachable)
    fails([command, "--input", truth_file, "--rank", "50", "--sh-lmax", "3",
           "--output-dir", tmp_path / "out"], capsys, r"rank 50 exceeds min\(m, n\) = 40$")
    assert not (tmp_path / "out").exists()


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        command, options = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        documented[command] = set(re.findall(r"`(--[\w-]+)`", options))
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    defined = {name: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help", "--config"} for name, parser in commands.items()}
    assert documented == defined


def test_manifest_records_the_fields_the_command_reads(tmp_path, truth_file):
    # Each run uses all of its command's fields but these: the pattern runs no
    # holdout, the random pattern no patch size and the patch pattern no
    # fraction, the soft model no lambda2 or lambda3, and a run with lambda3 = 0
    # no spherical-harmonics field.
    fit = {"rank", "max_iter", "tol", "boxcox_lambda", "boxcox_offset"}
    expected = {
        "sim": {"input", "output_dir", "pattern", "fraction", "seed"},
        "patch": {"input", "output_dir", "pattern", "patch_size", "seed"},
        "imp": {"input", "output_dir", "model", "lambda1", *fit, "seed", "keep_observed"},
        "eval": {"truth", "eval_mask", "output_dir", "level"},
        "grid": {"input", "output_dir", *fit, "holdout", "seed",
                 "lambda1_grid", "lambda2_grid", "lambda3_grid"},
    }
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "sim",
         "--pattern", "random", "--seed", "1"])
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "patch",
         "--pattern", "temporal-patch", "--patch-size", "9", "--seed", "1"])
    run(["impute", "--input", tmp_path / "sim" / "masked.vmc", "--output-dir", tmp_path / "imp",
         "--model", "soft", "--rank", "2", "--max-iter", "3"])
    run(["evaluate", "--truth", truth_file, "--eval-mask", tmp_path / "sim" / "test_mask.vmc",
         "--imputed", f"soft={tmp_path / 'imp' / 'imputed.vmc'}",
         "--output-dir", tmp_path / "eval"])
    run(["gridsearch", "--input", truth_file, "--output-dir", tmp_path / "grid",
         "--lambda1-grid", "0.9", "--lambda2-grid", "0", "--lambda3-grid", "0",
         "--rank", "2", "--max-iter", "3"])
    for name, own in expected.items():
        keys = set(vio.read_manifest(tmp_path / name / "manifest.txt"))
        assert {k for k in keys if not k.startswith(("result_", "timestamp"))} == {"version", *own}


def test_simulate_holdout_manifest_leaves_out_the_pattern_fields(tmp_path, truth_file):
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "h",
         "--holdout", "0.3", "--fraction", "0.2", "--patch-size", "9", "--seed", "2"])
    manifest = vio.read_manifest(tmp_path / "h" / "manifest.txt")
    assert manifest["holdout"] == "0.3"
    assert not {"pattern", "fraction", "patch_size"} & set(manifest)


@pytest.mark.parametrize("pattern, unused", [
    (["--pattern", "temporal-patch", "--patch-size", "9"], ["--fraction", "1.5"]),
    (["--pattern", "random"], ["--patch-size", "0"]),
], ids=["patch-fraction-1.5", "random-patch-size-0"])
def test_simulate_pattern_does_not_check_an_option_it_never_reads(tmp_path, truth_file,
                                                                   pattern, unused):
    argv = ["simulate", "--input", truth_file, *pattern, "--seed", "2"]
    run([*argv, "--output-dir", tmp_path / "plain"])
    run([*argv, *unused, "--output-dir", tmp_path / "unused"])
    for name in ("masked.vmc", "test_mask.vmc"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "unused" / name).read_bytes()
    assert unused[0][2:].replace("-", "_") not in vio.read_manifest(
        tmp_path / "unused" / "manifest.txt")


def test_simulate_pattern_that_empties_a_frame_leaves_no_output_directory(tmp_path, capsys):
    small = tmp_path / "small.vmc"
    vio.write_frames(small, make_demo_video(4, 4, 3, seed=1))
    argv = ["simulate", "--input", small, "--output-dir", tmp_path / "sim", "--seed", "1"]
    fails([*argv, "--pattern", "random", "--fraction", "0.99"], capsys,
          "frame 0 has no observed entries: pattern random at fraction 0.99 drops all of its pixels")
    assert not (tmp_path / "sim").exists()
    # A patch as large as the frame; the first stderr line warns of the non-preset size.
    assert main([str(a) for a in [*argv, "--pattern", "random-patch", "--patch-size", "4"]]) == 2
    assert re.fullmatch(r"warning: .*\nvista: error: frame \d+ has no observed entries: pattern "
                        r"random-patch at patch size 4 drops all of its pixels\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "sim").exists()


def test_evaluate_scores_a_holdout_split_of_a_masked_video(tmp_path, truth_file):
    # The truth is the masked video itself: NaN off its observed pixels, and
    # the evaluation mask holds only observed ones.
    run(["simulate", "--input", truth_file, "--output-dir", tmp_path / "sim",
         "--pattern", "random", "--fraction", "0.3", "--seed", "4"])
    masked = tmp_path / "sim" / "masked.vmc"
    run(["simulate", "--input", masked, "--output-dir", tmp_path / "split",
         "--holdout", "0.2", "--seed", "5"])
    run(["impute", "--input", tmp_path / "split" / "masked.vmc", "--output-dir", tmp_path / "imp",
         "--model", "soft", "--rank", "3", "--max-iter", "10"])
    run(["evaluate", "--truth", masked, "--eval-mask", tmp_path / "split" / "test_mask.vmc",
         "--imputed", f"soft={tmp_path / 'imp' / 'imputed.vmc'}", "--output-dir", tmp_path / "ev"])
    video = vio.read_video(masked)
    truth = np.where(video.masks, video.frames, np.nan)
    imputed = vio.read_frames(tmp_path / "imp" / "imputed.vmc")
    test = vio.read_mask(tmp_path / "split" / "test_mask.vmc")
    assert np.isnan(truth).any() and not np.isnan(truth[test]).any()
    expected = np.mean([100.0 * np.linalg.norm(imputed[t][test[t]] - truth[t][test[t]])
                        / np.linalg.norm(truth[t][test[t]]) for t in range(truth.shape[0])])
    reported = float(vio.read_manifest(tmp_path / "ev" / "manifest.txt")["result_rse_soft"])
    assert reported == pytest.approx(expected, rel=1e-12)


def _evaluate_inputs(directory, shape, seed):
    """Truth, 0/1 evaluation mask and two perturbed imputations written as .vmc files."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(1.0, 2.0, size=shape)
    mask = rng.random(shape) < 0.3
    mask[:, 0, 0] = True
    paths = {name: directory / f"{name}.vmc" for name in ("truth", "mask", "soft", "full")}
    vio.write_frames(paths["truth"], truth)
    vio.write_mask(paths["mask"], mask)
    vio.write_frames(paths["soft"], truth + rng.normal(scale=0.1, size=shape))
    vio.write_frames(paths["full"], truth + rng.normal(scale=0.05, size=shape))
    return paths


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_evaluate_reads_its_inputs_from_pipes(tmp_path):
    # A pipe reports size 0 and cannot seek, so evaluate must read each input
    # once, front to back, while the writers feed them.
    paths = _evaluate_inputs(tmp_path, (5, 7, 9), seed=8)
    argv = ["evaluate", "--truth", paths["truth"], "--imputed", f"full={paths['full']}"]
    run([*argv, "--eval-mask", paths["mask"], "--imputed", f"soft={paths['soft']}",
         "--output-dir", tmp_path / "files"])
    writers = []
    for name in ("mask", "soft"):
        fifo = tmp_path / f"{name}.pipe"
        os.mkfifo(fifo)
        writers.append(threading.Thread(target=fifo.write_bytes, args=(paths[name].read_bytes(),),
                                        daemon=True))
        writers[-1].start()
    run([*argv, "--eval-mask", tmp_path / "mask.pipe", "--imputed", f"soft={tmp_path / 'soft.pipe'}",
         "--output-dir", tmp_path / "pipes"])
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    for name in ("frame_metrics.csv", "summary.csv", "margins.csv"):
        assert (tmp_path / "pipes" / name).read_bytes() == (tmp_path / "files" / name).read_bytes()


@pytest.mark.parametrize("count", [1, 3])
def test_evaluate_skips_a_frame_with_no_evaluation_pixel(tmp_path, chunk_count, count):
    # Frame 2 of 5 has an empty evaluation mask: it has no frame_metrics.csv
    # rows, the manifest counts it, and the summary and margins are those of
    # the other four frames alone.
    chunk_count(count)
    paths = _evaluate_inputs(tmp_path, (5, 7, 9), seed=10)
    frames = {name: vio.read_frames(path) for name, path in paths.items()}
    frames["mask"][2] = 0.0
    vio.write_mask(paths["mask"], frames["mask"] == 1.0)
    kept = [0, 1, 3, 4]
    (tmp_path / "kept").mkdir()
    for name, values in frames.items():
        vio._write_payload(tmp_path / "kept" / f"{name}.vmc", values[kept])
    for directory in (tmp_path, tmp_path / "kept"):
        run(["evaluate", "--truth", directory / "truth.vmc", "--eval-mask", directory / "mask.vmc",
             "--imputed", f"soft={directory / 'soft.vmc'}",
             "--imputed", f"full={directory / 'full.vmc'}", "--output-dir", directory / "ev"])
    for name in ("summary.csv", "margins.csv"):
        assert (tmp_path / "ev" / name).read_bytes() == (tmp_path / "kept" / "ev" / name).read_bytes()
    with open(tmp_path / "ev" / "frame_metrics.csv") as handle:
        rows = list(csv.reader(handle))
    with open(tmp_path / "kept" / "ev" / "frame_metrics.csv") as handle:
        alone = list(csv.reader(handle))
    assert rows == [alone[0], *([r[0], str(kept[int(r[1])]), *r[2:]] for r in alone[1:])]
    assert vio.read_manifest(tmp_path / "ev" / "manifest.txt")["result_skipped_frames"] == "1"
    assert vio.read_manifest(tmp_path / "kept" / "ev" / "manifest.txt")["result_skipped_frames"] == "0"


def test_evaluate_holds_a_few_frames_not_its_inputs(tmp_path):
    # The command's fixed costs (the parser, the csv module's 128 KiB record
    # buffer) do not depend on T, so they are measured on a one-frame input
    # and taken off; reading the four 64-frame inputs whole would add 252 frames.
    m, n = 40, 60

    def peak(T):
        paths = _evaluate_inputs(tmp_path / str(T), (T, m, n), seed=9)
        argv = ["evaluate", "--truth", paths["truth"], "--eval-mask", paths["mask"],
                "--imputed", f"soft={paths['soft']}", "--imputed", f"full={paths['full']}",
                "--output-dir", tmp_path / str(T) / "ev"]
        tracemalloc.start()
        try:
            run(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (tmp_path / "1").mkdir()
    (tmp_path / "64").mkdir()
    peak(1)  # warm-up: first-call allocations of the modules the command uses
    assert peak(64) - peak(1) < 8 * m * n * 8


def test_evaluate_rejects_a_nan_truth_at_an_evaluation_pixel(tmp_path, truth_file, capsys):
    # An imputation must be fully observed (read_frames); the truth may hold
    # NaN, but only off the evaluation mask.
    frames = vio.read_frames(truth_file)
    frames[1, 5, 8] = np.nan
    vio.write_video(tmp_path / "nan.vmc", MaskedVideo.from_dense(frames))
    mask = np.zeros(frames.shape, dtype=bool)
    mask[:, 5, 7:9] = True
    vio.write_mask(tmp_path / "mask.vmc", mask)
    fails(["evaluate", "--truth", tmp_path / "nan.vmc", "--eval-mask", tmp_path / "mask.vmc",
           "--imputed", f"soft={truth_file}", "--output-dir", tmp_path / "ev"],
          capsys, "frame 1 of the truth is not finite on the evaluation mask")
    assert not (tmp_path / "ev").exists()


def test_soft_manifest_replays_as_full_despite_unused_bad_sh_values(tmp_path, truth_file):
    # A soft run neither reads nor checks the spherical-harmonics options, so
    # its manifest leaves them out and a replay with --model full takes the defaults.
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.3", "--seed", "4"])
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", tmp_path / "soft",
         "--model", "soft", "--sh-lmax", "-1", "--sh-v", "-5", "--lambda2", "-1",
         "--rank", "3", "--max-iter", "5"])
    manifest = vio.read_manifest(tmp_path / "soft" / "manifest.txt")
    assert not {"sh_lmax", "sh_v", "lambda2", "lambda3"} & set(manifest)
    run(["impute", "--config", tmp_path / "soft" / "manifest.txt", "--model", "full",
         "--output-dir", tmp_path / "full"])
    replayed = vio.read_manifest(tmp_path / "full" / "manifest.txt")
    assert (replayed["sh_lmax"], replayed["sh_v"]) == ("11", "0.1")
    assert (tmp_path / "full" / "auxiliary.vmc").exists()


def test_impute_manifest_reports_where_the_run_stopped(tmp_path, truth_file):
    sim = tmp_path / "sim"
    run(["simulate", "--input", truth_file, "--output-dir", sim,
         "--pattern", "random", "--fraction", "0.3", "--seed", "4"])
    out = tmp_path / "imp"
    run(["impute", "--input", sim / "masked.vmc", "--output-dir", out,
         "--rank", "3", "--max-iter", "5", "--sh-lmax", "3"])
    manifest = vio.read_manifest(out / "manifest.txt")
    with open(out / "diagnostics.csv") as handle:
        objectives = [float(row["objective"]) for row in csv.DictReader(handle)]
    assert float(manifest["result_final_objective"]) == objectives[-1]
    expected = (objectives[-2] - objectives[-1]) / objectives[-2]
    assert float(manifest["result_last_rel_decrease"]) == expected
    assert repr(float(manifest["result_last_rel_decrease"])) == manifest["result_last_rel_decrease"]


def _replay_case(command, tmp_path, truth_file):
    """(argv without --output-dir, the argv a replay adds to --config, data outputs)."""
    sim = tmp_path / "sim"
    if command in ("impute", "evaluate"):
        run(["simulate", "--input", truth_file, "--output-dir", sim,
             "--pattern", "random", "--fraction", "0.3", "--seed", "4"])
    if command == "simulate":
        return (["simulate", "--input", truth_file, "--pattern", "temporal-patch",
                 "--fraction", "0.2", "--patch-size", "15", "--seed", "6"],
                [], ["masked.vmc", "test_mask.vmc"])
    if command == "impute":
        return (["impute", "--input", sim / "masked.vmc", "--model", "sh", "--profile", "storm",
                 "--rank", "3", "--max-iter", "15", "--tol", "1e-7", "--sh-lmax", "3",
                 "--sh-v", "0.2", "--boxcox-lambda", "0.3", "--seed", "4", "--keep-observed"],
                [], ["imputed.vmc", "diagnostics.csv", "auxiliary.vmc"])
    if command == "evaluate":
        shifted = tmp_path / "shifted.vmc"
        vio.write_frames(shifted, 1.01 * vio.read_frames(truth_file))
        imputed = ["--imputed", f"soft={shifted}", "--imputed", f"full={truth_file}",
                   "--imputed", f"a,b={shifted}"]
        return (["evaluate", "--truth", truth_file, "--eval-mask", sim / "test_mask.vmc",
                 *imputed, "--level", "scattered"],
                imputed, ["frame_metrics.csv", "summary.csv", "margins.csv"])
    return (["gridsearch", "--input", truth_file, "--lambda1-grid", "0.3,2.0",
             "--lambda2-grid", "0.1", "--lambda3-grid", "0,0.02", "--rank", "3",
             "--max-iter", "10", "--sh-lmax", "3", "--holdout", "0.3", "--seed", "2"],
            [], ["gridsearch.csv", "best.txt"])


@pytest.mark.parametrize("command", ["simulate", "impute", "evaluate", "gridsearch"])
def test_every_command_replays_from_its_manifest(tmp_path, truth_file, command):
    argv, replay, outputs = _replay_case(command, tmp_path, truth_file)
    run([*argv, "--output-dir", tmp_path / "a"])
    run([command, "--config", tmp_path / "a" / "manifest.txt", *replay,
         "--output-dir", tmp_path / "b"])
    for name in outputs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert (manifest_without_timestamps(tmp_path / "a" / "manifest.txt")
            == manifest_without_timestamps(tmp_path / "b" / "manifest.txt"))
    # Every text output is written in one format: `\n` line ends, CSV with minimal quoting.
    for path in (tmp_path / "a").iterdir():
        if path.suffix != ".vmc":
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path.name
    if command == "evaluate":
        for name in ("summary.csv", "frame_metrics.csv"):
            assert '\n"a,b",' in (tmp_path / "a" / name).read_text(), name
            with open(tmp_path / "a" / name, newline="") as handle:
                assert "a,b" in {row[0] for row in csv.reader(handle)}, name
    if command == "impute":
        with open(tmp_path / "a" / "diagnostics.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["sweep", "objective", "max_rel_change"] and len(rows) > 1
        for k, (sweep, objective, change) in enumerate(rows):
            assert sweep == str(k) and objective == repr(float(objective))
            assert change == ("nan" if k == 0 else repr(float(change)))


@pytest.mark.parametrize("argv, named", [
    (["gridsearch", "--input", "MISSING", "--max-iter", "0"], "max_iter must be at least 1"),
    (["gridsearch", "--input", "MISSING", "--rank", "0"], "rank must be at least 1"),
    (["gridsearch", "--input", "MISSING", "--tol", "0"], "tol must be positive"),
    (["gridsearch", "--input", "TRUTH", "--rank", "100", "--sh-lmax", "3"],
     "rank 100 exceeds min"),
    (["gridsearch", "--input", "TRUTH", "--sh-v", "-1", "--sh-lmax", "3"],
     "ridge weight v must be finite and non-negative, got -1.0"),
    (["impute", "--input", "TRUTH", "--sh-v", "-1", "--sh-lmax", "3"],
     "ridge weight v must be finite and non-negative, got -1.0"),
    (["impute", "--input", "TRUTH", "--rank", "100", "--sh-lmax", "3"], "rank 100 exceeds min"),
    (["impute", "--input", "TINY", "--model", "sh", "--sh-v", "0", "--sh-lmax", "4",
      "--rank", "2"], "spherical-harmonics fit is singular"),
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "MASK", "--imputed", "soft=TINY"],
     "model 'soft' frames have shape"),
    # A header with no payload: the shape is checked before any payload byte is read.
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "MASK", "--imputed", "soft=HEADONLY"],
     "model 'soft' frames have shape"),
    (["impute", "--input", "TRUTH", "--sh-lmax", "-1"],
     "spherical-harmonics degree cap must be non-negative, got -1"),
    (["impute", "--input", "TRUTH", "--boxcox-offset", "-5", "--sh-lmax", "3"],
     "power-transform offset must be finite and positive, got -5.0"),
    (["gridsearch", "--input", "TRUTH", "--boxcox-offset", "nan", "--sh-lmax", "3"],
     "power-transform offset must be finite and positive, got nan"),
    (["simulate", "--input", "TRUTH", "--holdout", "0.0001"],
     "holdout fraction 0.0001 moves 0 of the 2400 observed pixels of frame 0"),
    (["gridsearch", "--input", "TRUTH", "--holdout", "0.9999", "--sh-lmax", "3"],
     "holdout fraction 0.9999 moves 2400 of the 2400 observed pixels of frame 0"),
    (["impute", "--input", "RESERVED"], r"reserved\.vmc: reserved header word must be zero, got 7$"),
    # evaluate streams its inputs, so these faults sit in the last frame it reads.
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "MASK", "--imputed", "soft=CUT"],
     r"cut\.vmc: payload for dims \(40, 60, 4\) needs 76800 bytes, got 76792$"),
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "LONG", "--imputed", "soft=TRUTH"],
     r"long\.vmc: payload for dims \(40, 60, 4\) needs 76800 bytes, got 76808$"),
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "HALF", "--imputed", "soft=TRUTH"],
     r"half\.vmc: mask file must contain only 0 and 1$"),
    (["evaluate", "--truth", "TRUTH", "--eval-mask", "MASK", "--imputed", "soft=TRUTH",
      "--imputed", "full=INF"], r"inf\.vmc: expected a fully observed video with finite values$"),
    # simulate --pattern reads and checks its whole input before it makes the output directory.
    (["simulate", "--input", "CUT", "--pattern", "random"],
     r"cut\.vmc: payload for dims \(40, 60, 4\) needs 76800 bytes, got 76792$"),
    (["simulate", "--input", "INF", "--pattern", "temporal-patch", "--patch-size", "27"],
     r"inf\.vmc: expected a fully observed video with finite values$"),
    # A negative seed is refused before any read, so a missing input is never opened.
    (["impute", "--input", "MISSING", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1$"),
    (["simulate", "--input", "MISSING", "--pattern", "random", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1$"),
    (["simulate", "--input", "MISSING", "--holdout", "0.2", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1$"),
    (["gridsearch", "--input", "MISSING", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1$"),
    # So are the fit options: the spherical-harmonics ones where lambda3 > 0.
    (["impute", "--input", "MISSING", "--sh-lmax", "-1"],
     "spherical-harmonics degree cap must be non-negative, got -1$"),
    (["gridsearch", "--input", "MISSING", "--sh-lmax", "-1"],
     "spherical-harmonics degree cap must be non-negative, got -1$"),
    (["impute", "--input", "MISSING", "--sh-v", "nan"],
     "ridge weight v must be finite and non-negative, got nan$"),
    (["gridsearch", "--input", "MISSING", "--sh-v", "nan"],
     "ridge weight v must be finite and non-negative, got nan$"),
    (["impute", "--input", "MISSING", "--boxcox-offset", "0"],
     "power-transform offset must be finite and positive, got 0.0$"),
    (["gridsearch", "--input", "MISSING", "--boxcox-offset", "0"],
     "power-transform offset must be finite and positive, got 0.0$"),
    (["impute", "--input", "MISSING", "--boxcox-lambda", "inf"],
     "power-transform exponent must be finite, got inf$"),
    (["gridsearch", "--input", "MISSING", "--boxcox-lambda", "inf"],
     "power-transform exponent must be finite, got inf$"),
], ids=["gridsearch-max-iter-0", "gridsearch-rank-0", "gridsearch-tol-0", "gridsearch-rank-100",
        "gridsearch-sh-v-negative", "impute-sh-v-negative", "impute-rank-100",
        "impute-singular-sh-fit", "evaluate-wrong-shape", "evaluate-header-only-imputation",
        "impute-sh-lmax-negative", "impute-boxcox-offset-negative", "gridsearch-boxcox-offset-nan",
        "simulate-holdout-empties-test", "gridsearch-holdout-empties-training",
        "impute-reserved-header-word", "evaluate-truncated-imputation", "evaluate-long-mask",
        "evaluate-half-mask-value", "evaluate-infinite-imputation", "simulate-truncated-input",
        "simulate-infinite-last-frame", "impute-seed-negative", "simulate-pattern-seed-negative",
        "simulate-holdout-seed-negative", "gridsearch-seed-negative",
        "impute-sh-lmax-negative-missing-input", "gridsearch-sh-lmax-negative-missing-input",
        "impute-sh-v-nan-missing-input", "gridsearch-sh-v-nan-missing-input",
        "impute-boxcox-offset-0-missing-input", "gridsearch-boxcox-offset-0-missing-input",
        "impute-boxcox-lambda-inf-missing-input", "gridsearch-boxcox-lambda-inf-missing-input"])
def test_failure_after_reading_leaves_no_output_directory(tmp_path, truth_file, capsys,
                                                          argv, named):
    # 20 observed pixels a frame cannot fix 25 unridged coefficients.
    tiny = tmp_path / "tiny.vmc"
    vio.write_frames(tiny, np.random.default_rng(0).uniform(1.0, 2.0, size=(2, 4, 5)))
    mask = tmp_path / "mask.vmc"
    vio.write_mask(mask, np.ones(vio.read_frames(truth_file).shape, dtype=bool))
    reserved = tmp_path / "reserved.vmc"  # header bytes 16..19 must be zero
    data = tiny.read_bytes()
    reserved.write_bytes(data[:16] + (7).to_bytes(4, "little") + data[20:])
    headonly = tmp_path / "headonly.vmc"  # the 20-byte header of a (2, 4, 5) video
    headonly.write_bytes(data[:20])
    # Faults at the end of the payload: one value short, one value over, and
    # a last value of 0.5 in a mask or inf in an imputation.
    cut, long, half, inf = (tmp_path / f"{name}.vmc" for name in ("cut", "long", "half", "inf"))
    cut.write_bytes(truth_file.read_bytes()[:-8])
    long.write_bytes(mask.read_bytes() + np.array([1.0], dtype="<f8").tobytes())
    half.write_bytes(mask.read_bytes()[:-8] + np.array([0.5], dtype="<f8").tobytes())
    inf.write_bytes(truth_file.read_bytes()[:-8] + np.array([np.inf], dtype="<f8").tobytes())
    for name, path in (("MISSING", tmp_path / "missing.vmc"), ("TRUTH", truth_file),
                       ("TINY", tiny), ("MASK", mask), ("RESERVED", reserved), ("CUT", cut),
                       ("LONG", long), ("HALF", half), ("INF", inf), ("HEADONLY", headonly)):
        argv = [a.replace(name, str(path)) for a in argv]
    fails([*argv, "--output-dir", tmp_path / "fo" / "out"], capsys, named)
    assert not (tmp_path / "fo").exists()
