"""Command-line drivers: simulate missingness, impute, evaluate, grid-search.

Every command is deterministic given its configuration and seed. Each run
writes a ``manifest.txt`` capturing the effective configuration (the only
file allowed to contain timestamps); feeding a manifest back through
``--config`` reproduces the data outputs byte for byte. Option precedence
is defaults < --config file < --profile < explicit flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import io as vio
from .evaluation import compare_models, rse, write_frame_metrics, write_margins, write_summary
from .missingness import MissingnessSpec, default_bbox, generate, holdout
from .solver import solve
from .spherical import SphericalGrid, build_auxiliary
from .transform import fit_transform, invert
from .video import MaskedVideo, PenaltyConfig

PROFILES = {
    "storm": (0.9, 0.2, 0.021),
    "nonstorm": (0.9, 0.31, 0.03),
    "sim-demo": (0.9, 0.05, 0.01),
}
MODELS = ("soft", "ts", "sh", "full")
PRESET_PATCH_SIZES = (27, 45, 63)


@dataclass
class RunConfig:
    input: str = None
    output_dir: str = "."
    model: str = "full"
    lambda1: float = 0.9
    lambda2: float = 0.05
    lambda3: float = 0.01
    rank: int = 10
    max_iter: int = 500
    tol: float = 1e-5
    sh_lmax: int = 11
    sh_v: float = 0.1
    boxcox_lambda: float = 0.5
    boxcox_offset: float = 1e-3
    pattern: str = None
    fraction: float = 0.5
    patch_size: int = 45
    holdout: float = None
    seed: int = 0
    keep_observed: bool = False
    level: str = ""


_OPTIONAL_FIELDS = {"input", "pattern", "holdout"}


def _parse_field(name: str, text: str):
    if name == "level":
        return text
    if text == "" or text.lower() == "none":
        if name in _OPTIONAL_FIELDS:
            return None
        raise ValueError(f"config field {name!r} must have a value")
    if name == "keep_observed":
        return text.lower() in ("1", "true", "yes")
    if name in ("input", "output_dir", "model", "pattern"):
        return text
    if name in ("rank", "max_iter", "sh_lmax", "patch_size", "seed"):
        return int(text)
    return float(text)


def resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        entries = vio.read_manifest(args.config)
        known = {f.name for f in fields(RunConfig)}
        for key, value in entries.items():
            if key in known:
                setattr(cfg, key, _parse_field(key, value))
            elif key.startswith(("result_", "timestamp", "version")):
                continue
            else:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
    if getattr(args, "profile", None):
        cfg.lambda1, cfg.lambda2, cfg.lambda3 = PROFILES[args.profile]
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def effective_lambdas(cfg: RunConfig) -> tuple:
    """Apply the model selector's constraints to the penalty triple."""
    if cfg.model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {cfg.model!r}")
    lam2 = cfg.lambda2 if cfg.model in ("ts", "full") else 0.0
    lam3 = cfg.lambda3 if cfg.model in ("sh", "full") else 0.0
    return cfg.lambda1, lam2, lam3


def _config_entries(cfg: RunConfig) -> dict:
    entries = {"version": __version__}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        entries[f.name] = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    return entries


def _finish_manifest(path, entries: dict) -> None:
    entries["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    vio.write_manifest(path, entries)


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = _config_entries(cfg)
    if cfg.holdout is not None:
        video = vio.read_video(cfg.input)
        train, test = holdout(video, cfg.holdout, cfg.seed)
        vio.write_video(out / "masked.vmc", train)
        vio.write_mask(out / "test_mask.vmc", test)
        entries["result_test_pixels"] = str(int(test.sum()))
    else:
        if cfg.pattern is None:
            raise ValueError("simulate needs --pattern or --holdout")
        if cfg.pattern.endswith("patch") and cfg.patch_size not in PRESET_PATCH_SIZES:
            print(f"warning: patch size {cfg.patch_size} is not one of the presets "
                  f"{PRESET_PATCH_SIZES}", file=sys.stderr)
        frames = vio.read_frames(cfg.input)
        spec = MissingnessSpec(pattern=cfg.pattern, fraction=cfg.fraction,
                               patch_size=cfg.patch_size, rng_seed=cfg.seed)
        dropped, centers = generate(spec, (frames.shape[1], frames.shape[2], frames.shape[0]))
        vio.write_video(out / "masked.vmc", MaskedVideo(frames, ~dropped))
        vio.write_mask(out / "test_mask.vmc", dropped)
        entries["result_dropped_pixels"] = str(int(dropped.sum()))
        if centers is not None:
            bbox = default_bbox(frames.shape[1], frames.shape[2])
            entries["result_bbox"] = ",".join(str(v) for v in bbox)
            entries["result_patch_centers"] = ";".join(f"{i},{j}" for i, j in centers)
    _finish_manifest(out / "manifest.txt", entries)
    print(f"simulate: wrote {out / 'masked.vmc'} and {out / 'test_mask.vmc'}")
    return 0


def cmd_impute(args) -> int:
    cfg = resolve_config(args)
    lam1, lam2, lam3 = effective_lambdas(cfg)
    pcfg = PenaltyConfig(lambda1=lam1, lambda2=lam2, lambda3=lam3, rank=cfg.rank,
                         max_iter=cfg.max_iter, tol=cfg.tol, rng_seed=cfg.seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    video = vio.read_video(cfg.input)
    aux_raw = None
    if lam3 > 0:
        grid = SphericalGrid.from_shape(video.dims.m, video.dims.n)
        aux_raw = build_auxiliary(video, grid, l_max=cfg.sh_lmax, v=cfg.sh_v)
        vio.write_frames(out / "auxiliary.vmc", aux_raw.frames)
    transformed, aux_t, params = fit_transform(video, aux_raw, cfg.boxcox_lambda,
                                               cfg.boxcox_offset)
    imputed, state = solve(transformed, aux_t, pcfg)
    frames_out, clamped = invert(imputed.frames, params)
    if cfg.keep_observed:
        frames_out = np.where(video.masks, video.frames, frames_out)
    vio.write_frames(out / "imputed.vmc", frames_out)
    _write_diagnostics(out / "diagnostics.csv", state)
    entries = _config_entries(cfg)
    entries["result_effective_lambdas"] = f"{lam1!r},{lam2!r},{lam3!r}"
    entries["result_converged"] = str(state.converged)
    entries["result_sweeps"] = str(state.sweeps)
    entries["result_domain_clamped"] = str(clamped)
    _finish_manifest(out / "manifest.txt", entries)
    print(f"impute: model={cfg.model} sweeps={state.sweeps} converged={state.converged} "
          f"-> {out / 'imputed.vmc'}")
    return 0


def _write_diagnostics(path, state) -> None:
    with open(path, "w") as handle:
        handle.write("sweep,objective,max_rel_change\n")
        handle.write(f"0,{state.objective_history[0]!r},nan\n")
        for k in range(state.sweeps):
            change = float(np.max(state.change_history[k]))
            handle.write(f"{k + 1},{state.objective_history[k + 1]!r},{change!r}\n")


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth = vio.read_frames(args.truth)
    masks = vio.read_mask(args.eval_mask)
    results = {}
    for item in args.imputed:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--imputed expects name=path, got {item!r}")
        results[name] = vio.read_frames(path)
    if args.aux:
        results["sh_direct"] = vio.read_frames(args.aux)
    report = compare_models(results, truth, masks)
    write_frame_metrics(out / "frame_metrics.csv", report)
    write_summary(out / "summary.csv", report)
    write_margins(out / "margins.csv", report, level=cfg.level)
    entries = _config_entries(cfg)
    entries["result_models"] = ",".join(report.models)
    for name in report.models:
        entries[f"result_rse_{name}"] = repr(report.mean_rse[name])
    _finish_manifest(out / "manifest.txt", entries)
    for name in report.models:
        print(f"evaluate: {name}: RSE {report.mean_rse[name]:.3f}% "
              f"MSE {report.mean_mse[name]:.4f}")
    return 0


def _parse_grid(text: str) -> list:
    values = [float(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def cmd_gridsearch(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid1 = _parse_grid(args.lambda1_grid)
    grid2 = _parse_grid(args.lambda2_grid)
    grid3 = _parse_grid(args.lambda3_grid)
    video = vio.read_video(cfg.input)
    frac = cfg.holdout if cfg.holdout is not None else 0.2
    train, test = holdout(video, frac, cfg.seed)
    aux_raw = None
    if any(v > 0 for v in grid3):
        grid = SphericalGrid.from_shape(video.dims.m, video.dims.n)
        aux_raw = build_auxiliary(train, grid, l_max=cfg.sh_lmax, v=cfg.sh_v)

    def score(lam1, lam2, lam3):
        aux_in = aux_raw if lam3 > 0 else None
        transformed, aux_t, params = fit_transform(train, aux_in, cfg.boxcox_lambda,
                                                   cfg.boxcox_offset)
        pcfg = PenaltyConfig(lambda1=lam1, lambda2=lam2, lambda3=lam3, rank=cfg.rank,
                             max_iter=cfg.max_iter, tol=cfg.tol, rng_seed=cfg.seed)
        imputed, _ = solve(transformed, aux_t, pcfg)
        frames_out, _ = invert(imputed.frames, params)
        per_frame = [rse(video.frames[t], frames_out[t], test[t])
                     for t in range(video.dims.T)]
        return float(np.mean(per_frame))

    entries = _config_entries(cfg)
    rows = []
    entries["timestamp_stage_lambda1"] = f"{time.time():.6f}"
    scores1 = [score(v, 0.0, 0.0) for v in grid1]
    rows += [("lambda1", v, 0.0, 0.0, s) for v, s in zip(grid1, scores1)]
    best1 = grid1[int(np.argmin(scores1))]
    entries["timestamp_stage_lambda2"] = f"{time.time():.6f}"
    scores2 = [score(best1, v, 0.0) for v in grid2]
    rows += [("lambda2", best1, v, 0.0, s) for v, s in zip(grid2, scores2)]
    best2 = grid2[int(np.argmin(scores2))]
    entries["timestamp_stage_lambda3"] = f"{time.time():.6f}"
    scores3 = [score(best1, 0.0, v) for v in grid3]
    rows += [("lambda3", best1, 0.0, v, s) for v, s in zip(grid3, scores3)]
    best3 = grid3[int(np.argmin(scores3))]

    with open(out / "gridsearch.csv", "w") as handle:
        handle.write("stage,lambda1,lambda2,lambda3,rse_pct\n")
        for stage, l1, l2, l3, s in rows:
            handle.write(f"{stage},{l1!r},{l2!r},{l3!r},{s!r}\n")
    vio.write_manifest(out / "best.txt",
                       {"lambda1": repr(best1), "lambda2": repr(best2), "lambda3": repr(best3)})
    entries["result_best_lambdas"] = f"{best1!r},{best2!r},{best3!r}"
    _finish_manifest(out / "manifest.txt", entries)
    print(f"gridsearch: best (lambda1, lambda2, lambda3) = ({best1}, {best2}, {best3})")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file (a previous run manifest works)")
    parser.add_argument("--input", help="input video file")
    parser.add_argument("--output-dir", dest="output_dir", help="directory for outputs")
    parser.add_argument("--model", choices=MODELS, help="penalty variant to run")
    parser.add_argument("--lambda1", type=float, help="ridge / trace-norm weight")
    parser.add_argument("--lambda2", type=float, help="temporal-smoothing weight")
    parser.add_argument("--lambda3", type=float, help="auxiliary-data weight")
    parser.add_argument("--rank", type=int, help="operating rank")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="sweep budget")
    parser.add_argument("--tol", type=float, help="convergence threshold")
    parser.add_argument("--sh-lmax", dest="sh_lmax", type=int, help="spherical-harmonics degree cap")
    parser.add_argument("--sh-v", dest="sh_v", type=float, help="spherical-harmonics ridge weight")
    parser.add_argument("--boxcox-lambda", dest="boxcox_lambda", type=float,
                        help="power-transform exponent")
    parser.add_argument("--boxcox-offset", dest="boxcox_offset", type=float,
                        help="positive offset added before the power transform")
    parser.add_argument("--pattern", choices=("random", "temporal", "random-patch",
                                              "temporal-patch"), help="missingness pattern")
    parser.add_argument("--fraction", type=float, help="scattered-missing fraction")
    parser.add_argument("--patch-size", dest="patch_size", type=int, help="missing-patch side")
    parser.add_argument("--holdout", type=float, help="observed-pixel holdout fraction")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        help="named penalty triple preset")
    parser.add_argument("--keep-observed", dest="keep_observed", action="store_true",
                        default=None, help="copy observed pixels through to the output")
    parser.add_argument("--level", help="label for the margins report rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vista",
                                     description="Masked-video completion pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="drop pixels from a fully observed video")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_imp = sub.add_parser("impute", help="run the completion pipeline on a masked video")
    _add_common(p_imp)
    p_imp.set_defaults(func=cmd_impute)

    p_eval = sub.add_parser("evaluate", help="score imputations on held-out pixels")
    _add_common(p_eval)
    p_eval.add_argument("--truth", required=True, help="fully observed ground-truth video")
    p_eval.add_argument("--eval-mask", dest="eval_mask", required=True,
                        help="0/1 video marking evaluation pixels")
    p_eval.add_argument("--imputed", action="append", required=True, metavar="NAME=PATH",
                        help="imputed video to score; repeatable")
    p_eval.add_argument("--aux", help="raw-scale smooth auxiliary video to score directly")
    p_eval.set_defaults(func=cmd_evaluate)

    p_grid = sub.add_parser("gridsearch", help="two-stage penalty search by held-out RSE")
    _add_common(p_grid)
    p_grid.add_argument("--lambda1-grid", dest="lambda1_grid", default="0.5,0.9,1.3",
                        help="comma-separated stage-1 values")
    p_grid.add_argument("--lambda2-grid", dest="lambda2_grid", default="0.01,0.05,0.2",
                        help="comma-separated stage-2 temporal values")
    p_grid.add_argument("--lambda3-grid", dest="lambda3_grid", default="0.005,0.01,0.03",
                        help="comma-separated stage-2 auxiliary values")
    p_grid.set_defaults(func=cmd_gridsearch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
