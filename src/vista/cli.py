"""Command-line drivers: simulate missingness, impute, evaluate, grid-search.

Every command is deterministic given its configuration and seed. Each
command's parser defines a flag only for the ``RunConfig`` fields the command
reads. Each run writes a ``manifest.txt`` with the effective values of those
fields (the only file allowed to contain timestamps); feeding a manifest back
through ``--config`` reproduces the data outputs byte for byte. Option
precedence is defaults < --config file < --profile < explicit flags.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import io as vio
from .evaluation import compare_models, write_frame_metrics, write_margins, write_summary
from .missingness import MissingnessSpec, check_fraction, default_bbox, generate, holdout
from .solver import solve
from .spherical import build_auxiliary
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


def _read_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError("expected 1, true, yes, 0, false or no")


def _parse_field(name: str, text: str):
    """A --config value, read with the type and choices of the field's flag.

    An empty or ``none`` value is None for a field whose default is None,
    and an error for every other field but ``level``.
    """
    if text == "" or text.lower() == "none":
        if getattr(RunConfig, name) is None:
            return None
        if name != "level":
            raise ValueError(f"config field {name!r} must have a value")
    flag = _FIELD_FLAGS[name]
    parse = _read_bool if flag.get("action") == "store_true" else flag.get("type", str)
    try:
        value = parse(text)
    except ValueError as exc:
        raise ValueError(f"config field {name!r} cannot read {text!r}: {exc}") from None
    if "choices" in flag and value not in flag["choices"]:
        raise ValueError(f"config field {name!r} must be one of {flag['choices']}, got {text!r}")
    return value


def _command_fields(args) -> list:
    "The RunConfig fields that the command's parser defines, in declaration order."
    return [f.name for f in fields(RunConfig) if hasattr(args, f.name)]


def resolve_config(args) -> RunConfig:
    """Defaults < --config < --profile < flags, for the fields the command's parser defines.

    A --config key that is another command's field is skipped, as older
    manifests list every field; a key that is no field at all is an error.
    """
    cfg = RunConfig()
    own = _command_fields(args)
    if getattr(args, "config", None):
        known = {f.name for f in fields(RunConfig)}
        for key, value in vio.read_manifest(args.config).items():
            if key in own:
                setattr(cfg, key, _parse_field(key, value))
            elif key not in known and not key.startswith(("result_", "timestamp", "version")):
                raise ValueError(f"unknown config key {key!r} in {args.config}")
    if getattr(args, "profile", None):
        cfg.lambda1, cfg.lambda2, cfg.lambda3 = PROFILES[args.profile]
    for name in own:
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    if "input" in own and cfg.input is None:
        raise ValueError("no input video: give --input or an input= line in --config")
    return cfg


def effective_lambdas(cfg: RunConfig) -> tuple:
    """Apply the model selector's constraints to the penalty triple."""
    if cfg.model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {cfg.model!r}")
    lam2 = cfg.lambda2 if cfg.model in ("ts", "full") else 0.0
    lam3 = cfg.lambda3 if cfg.model in ("sh", "full") else 0.0
    return cfg.lambda1, lam2, lam3


def _penalty_config(cfg: RunConfig, lam1: float, lam2: float, lam3: float) -> PenaltyConfig:
    """The solver's configuration; lambda1 = 0, which ``solve`` rejects, fails here first."""
    pcfg = PenaltyConfig(lambda1=lam1, lambda2=lam2, lambda3=lam3, rank=cfg.rank,
                         max_iter=cfg.max_iter, tol=cfg.tol, rng_seed=cfg.seed)
    if pcfg.lambda1 <= 0:
        raise ValueError(f"the solver requires lambda1 > 0, got {lam1!r}")
    return pcfg


def _config_entries(cfg: RunConfig, args) -> dict:
    entries = {"version": __version__}
    for name in _command_fields(args):
        value = getattr(cfg, name)
        entries[name] = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    return entries


def _finish_manifest(path, entries: dict) -> None:
    entries["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    vio.write_manifest(path, entries)


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    # Reject a bad fraction before creating the output directory or reading.
    spec = None
    if cfg.holdout is not None:
        check_fraction(cfg.holdout, "holdout fraction")
    elif cfg.pattern is None:
        raise ValueError("simulate needs --pattern or --holdout")
    else:
        spec = MissingnessSpec(pattern=cfg.pattern, fraction=cfg.fraction,
                               patch_size=cfg.patch_size, rng_seed=cfg.seed)
    out = Path(cfg.output_dir)
    entries = _config_entries(cfg, args)
    if spec is None:
        video = vio.read_video(cfg.input)
        train, test = holdout(video, cfg.holdout, cfg.seed)
        out.mkdir(parents=True, exist_ok=True)
        vio.write_video(out / "masked.vmc", train)
        vio.write_mask(out / "test_mask.vmc", test)
        entries["result_test_pixels"] = str(int(test.sum()))
    else:
        if cfg.pattern.endswith("patch") and cfg.patch_size not in PRESET_PATCH_SIZES:
            print(f"warning: patch size {cfg.patch_size} is not one of the presets "
                  f"{PRESET_PATCH_SIZES}", file=sys.stderr)
        frames = vio.read_frames(cfg.input)
        dropped, centers = generate(spec, (frames.shape[1], frames.shape[2], frames.shape[0]))
        out.mkdir(parents=True, exist_ok=True)
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
    pcfg = _penalty_config(cfg, lam1, lam2, lam3)
    video = vio.read_video(cfg.input)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    aux_raw = None
    if lam3 > 0:
        aux_raw = build_auxiliary(video, l_max=cfg.sh_lmax, v=cfg.sh_v)
        vio.write_frames(out / "auxiliary.vmc", aux_raw.frames)
    transformed, aux_t, params = fit_transform(video, aux_raw, cfg.boxcox_lambda,
                                               cfg.boxcox_offset)
    imputed, state = solve(transformed, aux_t, pcfg)
    frames_out, clamped = invert(imputed.frames, params)
    if cfg.keep_observed:
        frames_out = np.where(video.masks, video.frames, frames_out)
    vio.write_frames(out / "imputed.vmc", frames_out)
    _write_diagnostics(out / "diagnostics.csv", state)
    entries = _config_entries(cfg, args)
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
    paths = {}
    for item in args.imputed + ([f"sh_direct={args.aux}"] if args.aux else []):
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--imputed expects name=path, got {item!r}")
        if name in paths:
            raise ValueError(f"model name {name!r} is given more than once "
                             "(--aux is scored as sh_direct)")
        paths[name] = path
    truth = vio.read_frames(args.truth)
    masks = vio.read_mask(args.eval_mask)
    results = {name: vio.read_frames(path) for name, path in paths.items()}
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = compare_models(results, truth, masks)
    write_frame_metrics(out / "frame_metrics.csv", report)
    write_summary(out / "summary.csv", report)
    write_margins(out / "margins.csv", report, level=cfg.level)
    entries = _config_entries(cfg, args)
    entries["result_models"] = ",".join(report.models)
    for name in report.models:
        entries[f"result_rse_{name}"] = repr(report.mean_rse[name])
    _finish_manifest(out / "manifest.txt", entries)
    for name in report.models:
        print(f"evaluate: {name}: RSE {report.mean_rse[name]:.3f}% "
              f"MSE {report.mean_mse[name]:.4f}")
    return 0


def _parse_grid(name: str, text: str) -> list:
    """Comma-separated values, all finite; lambda1 values positive, the others non-negative."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{name} grid {text!r}: {exc}") from None
    if not values:
        raise ValueError(f"empty {name} grid {text!r}")
    sign = "positive" if name == "lambda1" else "non-negative"
    for value in values:
        if not (math.isfinite(value) and (value > 0 if name == "lambda1" else value >= 0)):
            raise ValueError(f"{name} grid values must be finite and {sign}, got {value!r}")
    return values


def cmd_gridsearch(args) -> int:
    cfg = resolve_config(args)
    frac = cfg.holdout if cfg.holdout is not None else 0.2
    check_fraction(frac, "holdout fraction")
    stages = ("lambda1", "lambda2", "lambda3")
    grids = [_parse_grid(stage, getattr(args, stage + "_grid")) for stage in stages]
    video = vio.read_video(cfg.input)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = holdout(video, frac, cfg.seed)
    aux_raw = None
    if any(v > 0 for v in grids[2]):
        aux_raw = build_auxiliary(train, l_max=cfg.sh_lmax, v=cfg.sh_v)
    # The transform depends on the penalties only through whether the
    # auxiliary video is pooled in, so each of the two variants is fitted once.
    fitted = {}

    def score(lam1, lam2, lam3):
        with_aux = lam3 > 0
        if with_aux not in fitted:
            fitted[with_aux] = fit_transform(train, aux_raw if with_aux else None,
                                             cfg.boxcox_lambda, cfg.boxcox_offset)
        transformed, aux_t, params = fitted[with_aux]
        imputed, _ = solve(transformed, aux_t, _penalty_config(cfg, lam1, lam2, lam3))
        frames_out, _ = invert(imputed.frames, params)
        return compare_models({"point": frames_out}, video.frames, test).mean_rse["point"]

    # Stage k varies lambda_k; stages 2 and 3 hold lambda1 at stage 1's best
    # value and the other penalty at 0.
    entries = _config_entries(cfg, args)
    rows, best = [], []
    for k, (stage, grid) in enumerate(zip(stages, grids)):
        entries[f"timestamp_stage_{stage}"] = f"{time.time():.6f}"
        scores = []
        for value in grid:
            lams = [best[0] if best else 0.0, 0.0, 0.0]
            lams[k] = value
            scores.append(score(*lams))
            rows.append((stage, *lams, scores[-1]))
        best.append(grid[int(np.argmin(scores))])

    with open(out / "gridsearch.csv", "w") as handle:
        handle.write("stage,lambda1,lambda2,lambda3,rse_pct\n")
        for stage, l1, l2, l3, s in rows:
            handle.write(f"{stage},{l1!r},{l2!r},{l3!r},{s!r}\n")
    vio.write_manifest(out / "best.txt", {stage: repr(b) for stage, b in zip(stages, best)})
    entries["result_best_lambdas"] = ",".join(map(repr, best))
    _finish_manifest(out / "manifest.txt", entries)
    print(f"gridsearch: best (lambda1, lambda2, lambda3) = ({', '.join(map(str, best))})")
    return 0


# The flag of each RunConfig field; a command's parser takes the fields it reads.
_FIELD_FLAGS = {
    "input": dict(help="input video file"),
    "output_dir": dict(help="directory for outputs"),
    "model": dict(choices=MODELS, help="penalty variant to run"),
    "lambda1": dict(type=float, help="ridge / trace-norm weight"),
    "lambda2": dict(type=float, help="temporal-smoothing weight"),
    "lambda3": dict(type=float, help="auxiliary-data weight"),
    "rank": dict(type=int, help="operating rank"),
    "max_iter": dict(type=int, help="sweep budget"),
    "tol": dict(type=float, help="convergence threshold"),
    "sh_lmax": dict(type=int, help="spherical-harmonics degree cap"),
    "sh_v": dict(type=float, help="spherical-harmonics ridge weight"),
    "boxcox_lambda": dict(type=float, help="power-transform exponent"),
    "boxcox_offset": dict(type=float, help="positive offset added before the power transform"),
    "pattern": dict(choices=("random", "temporal", "random-patch", "temporal-patch"),
                    help="missingness pattern"),
    "fraction": dict(type=float, help="scattered-missing fraction"),
    "patch_size": dict(type=int, help="missing-patch side"),
    "holdout": dict(type=float, help="observed-pixel holdout fraction"),
    "seed": dict(type=int, help="random seed"),
    "keep_observed": dict(action="store_true", default=None,
                          help="copy observed pixels through to the output"),
    "level": dict(help="label for the margins report rows"),
}
_FIT_FIELDS = ("rank", "max_iter", "tol", "sh_lmax", "sh_v", "boxcox_lambda", "boxcox_offset")


def _add_command(sub, name: str, func, summary: str, *field_names) -> argparse.ArgumentParser:
    """A subparser with --config and one flag for each named RunConfig field."""
    parser = sub.add_parser(name, help=summary, allow_abbrev=False)
    parser.add_argument("--config", help="key=value config file (a previous run manifest works)")
    for field_name in field_names:
        parser.add_argument("--" + field_name.replace("_", "-"), **_FIELD_FLAGS[field_name])
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vista", allow_abbrev=False,
                                     description="Masked-video completion pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "simulate", cmd_simulate, "drop pixels from a fully observed video",
                 "input", "output_dir", "pattern", "fraction", "patch_size", "holdout", "seed")

    p_imp = _add_command(sub, "impute", cmd_impute,
                         "run the completion pipeline on a masked video",
                         "input", "output_dir", "model", "lambda1", "lambda2", "lambda3",
                         *_FIT_FIELDS, "seed", "keep_observed")
    p_imp.add_argument("--profile", choices=sorted(PROFILES), help="named penalty triple preset")

    p_eval = _add_command(sub, "evaluate", cmd_evaluate, "score imputations on held-out pixels",
                          "output_dir", "level")
    p_eval.add_argument("--truth", required=True, help="fully observed ground-truth video")
    p_eval.add_argument("--eval-mask", dest="eval_mask", required=True,
                        help="0/1 video marking evaluation pixels")
    p_eval.add_argument("--imputed", action="append", required=True, metavar="NAME=PATH",
                        help="imputed video to score; repeatable")
    p_eval.add_argument("--aux", help="raw-scale smooth auxiliary video to score directly")

    p_grid = _add_command(sub, "gridsearch", cmd_gridsearch,
                          "two-stage penalty search by held-out RSE",
                          "input", "output_dir", *_FIT_FIELDS, "holdout", "seed")
    p_grid.add_argument("--lambda1-grid", dest="lambda1_grid", default="0.5,0.9,1.3",
                        help="comma-separated stage-1 values")
    p_grid.add_argument("--lambda2-grid", dest="lambda2_grid", default="0.01,0.05,0.2",
                        help="comma-separated stage-2 temporal values")
    p_grid.add_argument("--lambda3-grid", dest="lambda3_grid", default="0.005,0.01,0.03",
                        help="comma-separated stage-2 auxiliary values")
    return parser


def main(argv=None) -> int:
    """Run one command; a bad value, file or singular fit prints one line and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"vista: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
