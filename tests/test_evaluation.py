import csv
import sys
from contextlib import ExitStack

import numpy as np
import pytest

from vista import io as vio
from vista.evaluation import (
    Z95,
    _mean_rse,
    compare_models,
    margin_confidence,
    rse,
    write_frame_metrics,
    write_margins,
    write_summary,
)

import oracles


def test_rse_trivial_cases():
    truth = np.array([[3.0, 1.0], [1.0, 4.0]])
    mask = np.array([[True, False], [False, True]])
    assert rse(truth, truth, mask) == 0.0
    assert rse(truth, np.zeros((2, 2)), mask) == pytest.approx(100.0)


def test_rse_hand_arithmetic():
    truth = np.array([[3.0, 0.0], [0.0, 4.0]])
    mask = np.array([[True, False], [False, True]])
    imputed = np.array([[3.0, 9.0], [9.0, 0.0]])
    # residual (0, 4) against truth (3, 4): 4/5 = 80%
    assert rse(truth, imputed, mask) == pytest.approx(80.0)


def test_rse_errors():
    truth = np.zeros((2, 2))
    with pytest.raises(ValueError, match="empty"):
        rse(truth, truth, np.zeros((2, 2), bool))
    with pytest.raises(ValueError, match="zero"):
        rse(truth, truth, np.ones((2, 2), bool))


@pytest.mark.parametrize("imputed_shape, mask_shape", [((2, 3), (2, 2)), ((2, 2), (2, 3))],
                         ids=["imputation", "mask"])
def test_rse_rejects_shape_mismatch(imputed_shape, mask_shape):
    with pytest.raises(ValueError, match="truth, imputation, and mask shapes must match"):
        rse(np.ones((2, 2)), np.ones(imputed_shape), np.ones(mask_shape, bool))


def test_rse_scale_equivariance(rng):
    truth = rng.normal(size=(6, 7))
    imputed = rng.normal(size=(6, 7))
    mask = rng.random((6, 7)) > 0.4
    base = rse(truth, imputed, mask)
    for scale in (0.01, 3.0, -7.5):
        assert rse(scale * truth, scale * imputed, mask) == pytest.approx(base, rel=1e-12)


def test_mse_values():
    # compare_models' per-frame MSE, against hand values and the loop oracle.
    truth = np.zeros((2, 2, 2))
    truth[:, 1, 1] = 1.0
    imputed = np.array([[[1.0, -1.0], [0.0, 1.0]], [[0.0, 0.0], [5.0, 1.0]]])
    masks = np.array([[[True, True], [False, True]], [[False, True], [False, True]]])
    report = compare_models({"a": truth, "b": imputed}, truth, masks)
    np.testing.assert_array_equal(report.frame_mse["a"], [0.0, 0.0])
    np.testing.assert_allclose(report.frame_mse["b"], [2.0 / 3.0, 0.0], rtol=1e-15)
    for t in range(2):
        assert report.frame_mse["b"][t] == pytest.approx(
            oracles.mse(truth[t], imputed[t], masks[t]), rel=1e-15)


def test_margin_confidence_matches_textbook_formula(rng):
    margins = rng.normal(loc=2.0, scale=0.5, size=24)
    center, lo, hi = margin_confidence(margins)
    half = Z95 * margins.std(ddof=1) / np.sqrt(24)
    assert center == pytest.approx(margins.mean())
    assert lo == pytest.approx(margins.mean() - half)
    assert hi == pytest.approx(margins.mean() + half)
    # One frame has no spread: the interval is the point.
    assert margin_confidence([2.5]) == (2.5, 2.5, 2.5)


def make_inputs(rng, T=5):
    truth = rng.normal(size=(T, 6, 7))
    masks = rng.random((T, 6, 7)) > 0.5
    masks[:, 0, 0] = True
    return truth, masks


def test_compare_models_identical_models_tie_to_not_better(rng):
    truth, masks = make_inputs(rng)
    frames = truth + rng.normal(size=truth.shape)
    report = compare_models({"soft": frames, "ts": frames.copy(), "full": frames.copy()},
                            truth, masks)
    for name in ("soft", "ts", "full"):
        np.testing.assert_allclose(report.margins[name], 0.0, atol=1e-12)
        assert report.better_than_baseline[name] == 0
        assert report.worse_than_full[name] == 0


def test_compare_models_margin_and_counts_definitional():
    truth = np.ones((2, 2, 2))
    masks = np.ones((2, 2, 2), bool)
    soft = truth * np.array([1.10, 1.10])[:, None, None]  # RSE 10, 10
    model = truth * np.array([1.09, 1.11])[:, None, None]  # RSE 9, 11
    report = compare_models({"soft": soft, "full": model}, truth, masks)
    np.testing.assert_allclose(report.margins["full"], [1.0, -1.0], atol=1e-9)
    assert report.better_than_baseline["full"] == 1
    assert report.margins["soft"].tolist() == [0.0, 0.0]


def test_compare_models_permutation_consistent(rng):
    truth, masks = make_inputs(rng)
    results = {name: truth + rng.normal(size=truth.shape, scale=0.1 * (k + 1))
               for k, name in enumerate(("soft", "ts", "sh", "full"))}
    fwd = compare_models(results, truth, masks)
    rev = compare_models(dict(reversed(list(results.items()))), truth, masks)
    assert fwd.models == list(reversed(rev.models))
    for name in results:
        np.testing.assert_array_equal(fwd.frame_rse[name], rev.frame_rse[name])
        assert fwd.better_than_baseline[name] == rev.better_than_baseline[name]


def test_compare_models_frames_equal_rse_and_mse_exactly(rng):
    truth, masks = make_inputs(rng)
    results = {name: truth + rng.normal(size=truth.shape, scale=0.1 * (k + 1))
               for k, name in enumerate(("soft", "ts", "sh", "full"))}
    report = compare_models(results, truth, masks)
    for name, frames in results.items():
        for t in range(truth.shape[0]):
            assert report.frame_rse[name][t] == rse(truth[t], frames[t], masks[t])
            residual = (frames[t] - truth[t])[masks[t]]
            assert report.frame_mse[name][t] == np.mean(residual * residual)


def test_compare_models_skips_an_empty_evaluation_frame(rng, chunk_count):
    # Frame 2 has no evaluation pixel: its scores and margins are NaN, and
    # every aggregate is, bit for bit, that of the other frames alone.
    truth, masks = make_inputs(rng)
    results = {name: truth + rng.normal(size=truth.shape, scale=0.1 * (k + 1))
               for k, name in enumerate(("soft", "ts", "full"))}
    masks[2] = False
    kept = [0, 1, 3, 4]
    alone = compare_models({name: frames[kept] for name, frames in results.items()},
                           truth[kept], masks[kept])
    # Up to more chunks than frames, switching threads as often as the
    # interpreter allows, as the chunks mark their skipped frames.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (1, 3, 8):
            chunk_count(count)
            report = compare_models(results, truth, masks)
            for name in results:
                for per_frame in (report.frame_rse, report.frame_mse, report.margins):
                    assert np.isnan(per_frame[name][2])
                for per_frame in ("frame_rse", "frame_mse", "margins"):
                    assert (getattr(report, per_frame)[name][kept].tobytes()
                            == getattr(alone, per_frame)[name].tobytes())
            assert _numbers(report)[:-1] == _numbers(alone)[:-1]
    finally:
        sys.setswitchinterval(interval)
    masks[:] = False
    with pytest.raises(ValueError, match="^evaluation mask is empty$"):
        compare_models(results, truth, masks)


@pytest.mark.parametrize("T, m, n, one_pixel", [(5, 6, 7, False), (1, 6, 7, False),
                                                (4, 6, 7, True), (3, 1, 1, True)],
                         ids=["frames", "one-frame", "one-pixel-masks", "one-pixel-frames"])
def test_mean_rse_from_the_gathered_truth_is_compare_models_mean(rng, T, m, n, one_pixel):
    truth = rng.normal(size=(T, m, n))
    masks = rng.random((T, m, n)) > 0.5
    if one_pixel:
        masks[:] = False
        masks[np.arange(T), rng.integers(m, size=T), rng.integers(n, size=T)] = True
    masks[:, 0, 0] |= ~masks.reshape(T, -1).any(axis=1)
    imputed = truth + rng.normal(size=truth.shape, scale=0.1)
    expected = compare_models({"point": imputed}, truth, masks).mean_rse["point"]
    assert _mean_rse(imputed, truth[masks], masks).hex() == expected.hex()


def test_mean_rse_fails_as_compare_models_does(rng):
    truth, masks = make_inputs(rng)
    at = (2, *np.argwhere(masks[2])[0])
    cases = []
    for value in (np.nan, np.inf, 1e200):
        bad = truth.copy()
        bad[at] = value
        cases += [(bad, truth), (truth, bad)]
    zero = truth.copy()
    zero[3][masks[3]] = 0.0
    cases.append((truth, zero))
    for imputed, reference in cases:
        with pytest.raises(ValueError) as expected:
            compare_models({"point": imputed}, reference, masks)
        with pytest.raises(ValueError) as got:
            _mean_rse(imputed, reference[masks], masks)
        assert str(got.value) == str(expected.value)


def test_non_finite_values_on_the_mask_are_named_and_nan_off_it_is_allowed(rng):
    truth, masks = make_inputs(rng)
    off = np.argwhere(~masks[0])[0]
    truth[(0, *off)] = np.nan
    compare_models({"soft": truth}, truth, masks)
    on = np.argwhere(masks[2])[0]
    for value in (np.nan, np.inf):
        bad = truth.copy()
        bad[(2, *on)] = value
        with pytest.raises(ValueError, match="frame 2 of model 'full' is not finite"):
            compare_models({"soft": truth, "full": bad}, truth, masks)
        with pytest.raises(ValueError, match="frame 2 of the truth is not finite"):
            compare_models({"soft": truth}, bad, masks)
        with pytest.raises(ValueError, match="the imputation is not finite"):
            rse(truth, bad, masks)
        with pytest.raises(ValueError, match="the truth is not finite"):
            rse(bad, truth, masks)


@pytest.mark.filterwarnings("error")
def test_finite_values_whose_squares_overflow_are_not_finite_scores_without_a_warning(rng):
    truth, masks = make_inputs(rng)
    big = truth.copy()
    big[(2, *np.argwhere(masks[2])[0])] = 1e200
    with pytest.raises(ValueError, match="^frame 2 of model 'full' is not finite on the "
                                         "evaluation mask$"):
        compare_models({"soft": truth, "full": big}, truth, masks)
    with pytest.raises(ValueError, match="^frame 2 of the truth is not finite on the "
                                         "evaluation mask$"):
        compare_models({"soft": truth}, big, masks)
    with pytest.raises(ValueError, match="^the imputation is not finite on the evaluation mask$"):
        rse(truth, big, masks)
    with pytest.raises(ValueError, match="^the truth is not finite on the evaluation mask$"):
        rse(big, truth, masks)


def test_compare_models_rejects_shape_mismatch(rng):
    truth, masks = make_inputs(rng)
    with pytest.raises(ValueError, match="model 'soft' frames have shape"):
        compare_models({"soft": truth[:, :, :-1]}, truth, masks)
    with pytest.raises(ValueError, match="truth and evaluation masks must share one shape"):
        compare_models({"soft": truth}, truth, masks[:-1])


def _write_inputs(directory, truth, masks, results) -> dict:
    paths = {name: directory / f"{name}.vmc" for name in ("truth", "mask", *results)}
    vio.write_frames(paths["truth"], truth)
    vio._write_payload(paths["mask"], masks)  # 0/1, or any value a test puts in
    for name, frames in results.items():
        vio._write_payload(paths[name], frames)
    return paths


def _compare_files(paths, names):
    with ExitStack() as stack:
        truth = stack.enter_context(vio.FrameReader(paths["truth"]))
        masks = stack.enter_context(vio.FrameReader(paths["mask"], "mask"))
        results = {name: stack.enter_context(vio.FrameReader(paths[name], "finite"))
                   for name in names}
        return compare_models(results, truth, masks)


def _numbers(report):
    "Everything a report holds, comparable with == bit for bit."
    return (report.models, report.mean_rse, report.mean_mse, report.margin_ci,
            report.better_than_baseline, report.worse_than_full,
            [report.frame_rse[name].tobytes() + report.frame_mse[name].tobytes()
             + report.margins[name].tobytes() for name in report.models])


def test_compare_models_is_the_same_in_any_chunk_count_over_arrays_and_readers(
        tmp_path, rng, chunk_count):
    truth, masks = make_inputs(rng, T=7)
    results = {name: truth + rng.normal(size=truth.shape, scale=0.1 * (k + 1))
               for k, name in enumerate(("soft", "ts", "full"))}
    paths = _write_inputs(tmp_path, truth, masks, results)
    reports = []
    for count in (1, 2, 3):
        chunk_count(count)
        reports.append(_numbers(compare_models(results, truth, masks)))
        reports.append(_numbers(_compare_files(paths, results)))
    # More chunks than cores or frames (one is left empty), switching threads
    # as often as the interpreter allows: a chunk that wrote outside its
    # frames, or read another chunk's, would show here.
    chunk_count(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports.append(_numbers(compare_models(results, truth, masks)))
        reports.append(_numbers(_compare_files(paths, results)))
    finally:
        sys.setswitchinterval(interval)
    assert all(report == reports[0] for report in reports[1:])


@pytest.mark.parametrize("mask_value_at", [None, 2, 4])
def test_compare_models_raises_the_lowest_failing_frame_in_any_chunk_count(
        tmp_path, rng, chunk_count, mask_value_at):
    # Six frames in chunks [0, 2), [2, 4) and [4, 6). Model frame 3 is not
    # finite, and the evaluation mask of frame 5 is empty, which is skipped,
    # not an error; a 0.5 in a mask frame fails at frame 2, before frame 3, or
    # at frame 4, after it.
    truth, masks = make_inputs(rng, T=6)
    full = truth.copy()
    full[(3, *np.argwhere(masks[3])[0])] = np.inf
    masks[5] = False
    stored = masks.astype(float)
    if mask_value_at is not None:
        stored[mask_value_at, 0, 0] = 0.5
    paths = _write_inputs(tmp_path, truth, stored, {"soft": truth, "full": full})
    expected = (f"{paths['mask']}: mask file must contain only 0 and 1" if mask_value_at == 2
                else f"{paths['full']}: expected a fully observed video with finite values")
    for count in (1, 3):
        chunk_count(count)
        with pytest.raises(ValueError) as exc:
            _compare_files(paths, ("soft", "full"))
        assert str(exc.value) == expected
        with pytest.raises(ValueError, match="^frame 3 of model 'full' is not finite"):
            compare_models({"soft": truth, "full": full}, truth, masks)


def test_csv_outputs(tmp_path, rng):
    truth, masks = make_inputs(rng, T=4)
    results = {name: truth + rng.normal(size=truth.shape, scale=0.2)
               for name in ("soft", "ts", "sh", "full")}
    report = compare_models(results, truth, masks)

    frame_csv = tmp_path / "frames.csv"
    write_frame_metrics(frame_csv, report)
    with open(frame_csv) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["model", "t", "rse_pct", "mse"]
    assert len(rows) == 1 + 4 * 4
    t_vals = [float(r[2]) for r in rows[1:5]]
    np.testing.assert_allclose(t_vals, report.frame_rse["soft"], rtol=1e-15)

    summary_csv = tmp_path / "summary.csv"
    write_summary(summary_csv, report)
    with open(summary_csv) as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows] == ["model", "soft", "ts", "sh", "full"]

    margins_csv = tmp_path / "margins.csv"
    write_margins(margins_csv, report, level="0.5")
    with open(margins_csv) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 3  # three non-baseline models
    assert all(r[1] == "0.5" for r in rows[1:])


def test_csv_bytes_on_a_hand_checked_case(tmp_path):
    # Two frames of one row; the third pixel is off the mask, where the
    # models' 100 must not count. Truth norms are 5 and 10 on the mask.
    truth = np.array([[[3.0, 4.0, 7.0]], [[6.0, 8.0, 7.0]]])
    masks = np.array([[[True, True, False]]] * 2)
    results = {
        "soft": [[[1.5, 2.0, 100.0]], [[7.5, 10.0, 100.0]]],  # residuals (1.5, 2): 50%, 25%
        "ts": [[[3.0, 4.0, 100.0]], [[3.0, 4.0, 100.0]]],  # 0%, then (3, 4) of 10: 50%
        "full": [[[2.25, 5.0, 100.0]], [[6.0, 8.0, 100.0]]],  # (0.75, 1) of 5: 25%, then 0%
    }
    report = compare_models({k: np.array(v) for k, v in results.items()}, truth, masks)
    write_frame_metrics(tmp_path / "frame_metrics.csv", report)
    write_summary(tmp_path / "summary.csv", report)
    write_margins(tmp_path / "margins.csv", report, level="0.5")
    assert (tmp_path / "frame_metrics.csv").read_bytes() == (
        b"model,t,rse_pct,mse\n"
        b"soft,0,50,3.125\n"
        b"soft,1,25,3.125\n"
        b"ts,0,0,0\n"
        b"ts,1,50,12.5\n"
        b"full,0,25,0.78125\n"
        b"full,1,0,0\n")
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"model,rse_pct,mse,better_than_baseline,worse_than_full\n"
        b"soft,37.5,3.125,0,2\n"
        b"ts,25,6.25,1,1\n"
        b"full,12.5,0.390625,2,0\n")
    # ts margins (50, -25): mean 12.5, half-width Z95 * 37.5 = 73.49864942025202.
    # full margins (25, 25) have zero spread, so the interval is the point.
    assert (tmp_path / "margins.csv").read_bytes() == (
        b"model,level,margin_mean,ci_lo,ci_hi\n"
        b"ts,0.5,12.5,-60.998649420252022,85.998649420252022\n"
        b"full,0.5,25,25,25\n")
