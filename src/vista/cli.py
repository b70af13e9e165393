"""Command-line drivers: simulate missingness, impute, evaluate, grid-search.

Every command is deterministic given its configuration and seed. Each
``RunConfig`` field declares one option, and each command's parser defines a
flag only for the fields the command reads (plus ``--config``, ``impute``'s
``--profile`` preset and ``evaluate``'s repeatable ``--imputed``). Each run
writes a ``manifest.txt`` with the effective values of those of the fields
that it used (the only file allowed to contain timestamps); feeding a
manifest back through ``--config`` reproduces the data outputs byte for
byte. Option precedence is defaults < --config file < --profile < explicit
flags. A command creates its output directory only after its last step that
can fail.
"""

import argparse
import math
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from . import io as vio
from .evaluation import _mean_rse, compare_models, write_frame_metrics, write_margins, write_summary
from .missingness import PATTERNS, MissingnessSpec, check_fraction, default_bbox, generate, holdout
from .solver import check_rank, solve
from .spherical import _check_fit, build_auxiliary
from .transform import _check_power, fit_transform, invert
from .video import MaskedVideo, PenaltyConfig, _give_up, _writable

PROFILES = {
    "storm": (0.9, 0.2, 0.021),
    "nonstorm": (0.9, 0.31, 0.03),
    "sim-demo": (0.9, 0.05, 0.01),
}
# The penalties each model applies beyond lambda1.
MODEL_PENALTIES = {"soft": (), "ts": ("lambda2",), "sh": ("lambda3",),
                   "full": ("lambda2", "lambda3")}
MODELS = tuple(MODEL_PENALTIES)
PRESET_PATCH_SIZES = (27, 45, 63)


def _option(default, help: str, **choices):
    "A RunConfig field whose flag has this help text and, given ``choices=``, these choices."
    return field(default=default, metadata={"help": help, **choices})


@dataclass
class RunConfig:
    """One field per option; a command's parser takes the fields it reads.

    The flag of field ``name`` is ``--name`` with ``_`` spelled ``-``, of the
    field's type; a ``bool`` field is a ``store_true`` flag.
    """

    input: str = _option(None, "input video file")
    truth: str = _option(None, "fully observed ground-truth video")
    eval_mask: str = _option(None, "0/1 video marking evaluation pixels")
    output_dir: str = _option(".", "directory for outputs")
    model: str = _option("full", "penalty variant to run", choices=MODELS)
    lambda1: float = _option(0.9, "ridge / trace-norm weight")
    lambda2: float = _option(0.05, "temporal-smoothing weight")
    lambda3: float = _option(0.01, "auxiliary-data weight")
    lambda1_grid: str = _option("0.5,0.9,1.3", "comma-separated stage-1 values")
    lambda2_grid: str = _option("0.01,0.05,0.2", "comma-separated stage-2 temporal values")
    lambda3_grid: str = _option("0.005,0.01,0.03", "comma-separated stage-2 auxiliary values")
    rank: int = _option(10, "operating rank")
    max_iter: int = _option(500, "sweep budget")
    tol: float = _option(1e-5, "convergence threshold")
    sh_lmax: int = _option(11, "spherical-harmonics degree cap")
    sh_v: float = _option(0.1, "spherical-harmonics ridge weight")
    boxcox_lambda: float = _option(0.5, "power-transform exponent")
    boxcox_offset: float = _option(1e-3, "positive offset added before the power transform")
    pattern: str = _option(None, "missingness pattern", choices=PATTERNS)
    fraction: float = _option(0.5, "scattered-missing fraction")
    patch_size: int = _option(45, "missing-patch side")
    holdout: float = _option(None, "observed-pixel holdout fraction")
    seed: int = _option(0, "random seed")
    keep_observed: bool = _option(False, "copy observed pixels through to the output (holds the "
                                         "read video through the solve: one more (T, m, n) array)")
    level: str = _option("", "label for the margins report rows")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _read_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError("expected 1, true, yes, 0, false or no")


def _parse_field(name: str, text: str):
    """A --config value, read with the type and choices of the field's flag.

    Empty or ``none`` text is None where the default is None, is read as
    text where the default is ``""``, and is an error elsewhere.
    """
    spec = _FIELDS[name]
    if text == "" or text.lower() == "none":
        if spec.default is None:
            return None
        if spec.default != "":
            raise ValueError(f"config field {name!r} must have a value")
    try:
        value = (_read_bool if spec.type is bool else spec.type)(text)
    except ValueError as exc:
        raise ValueError(f"config field {name!r} cannot read {text!r}: {exc}") from None
    choices = spec.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"config field {name!r} must be one of {choices}, got {text!r}")
    return value


def _command_fields(args) -> list:
    "The RunConfig fields that the command's parser defines, in declaration order."
    return [name for name in _FIELDS if hasattr(args, name)]


def _check_one_line(option: str, text: str) -> None:
    "A line break in a value would split its manifest line, so that no --config could replay it."
    if "\n" in text or "\r" in text:
        raise ValueError(f"{option} must not contain a line break, got {text!r}")


def resolve_config(args) -> RunConfig:
    """Defaults < --config < --profile < flags, for the fields the command's parser defines.

    A --config key that is another command's field is skipped, as older
    manifests list every field; a key that is no field at all is an error.
    """
    cfg = RunConfig()
    own = _command_fields(args)
    if getattr(args, "config", None):
        for key, value in vio.read_manifest(args.config).items():
            if key in own:
                setattr(cfg, key, _parse_field(key, value))
            elif key not in _FIELDS and not key.startswith(("result_", "timestamp", "version")):
                raise ValueError(f"unknown config key {key!r} in {args.config}")
    if getattr(args, "profile", None):
        cfg.lambda1, cfg.lambda2, cfg.lambda3 = PROFILES[args.profile]
    for name in own:
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    for name in own:
        value, flag = getattr(cfg, name), "--" + name.replace("_", "-")
        if value is None and name in ("input", "truth", "eval_mask"):
            raise ValueError(f"no {flag} video: give {flag} or a {name}= line in --config")
        if isinstance(value, str):
            _check_one_line(flag, value)
        if name == "seed" and value < 0:
            raise ValueError(f"{flag} must be a non-negative integer, got {value}")
    return cfg


def effective_lambdas(cfg: RunConfig) -> tuple:
    """Apply the model selector's constraints to the penalty triple."""
    used = MODEL_PENALTIES[cfg.model]
    lam2 = cfg.lambda2 if "lambda2" in used else 0.0
    lam3 = cfg.lambda3 if "lambda3" in used else 0.0
    return cfg.lambda1, lam2, lam3


def _penalty_config(cfg: RunConfig, lam1: float, lam2: float, lam3: float) -> PenaltyConfig:
    """The solver's configuration; lambda1 = 0, which ``solve`` rejects, fails here first."""
    pcfg = PenaltyConfig(lambda1=lam1, lambda2=lam2, lambda3=lam3, rank=cfg.rank,
                         max_iter=cfg.max_iter, tol=cfg.tol, rng_seed=cfg.seed)
    if pcfg.lambda1 <= 0:
        raise ValueError(f"the solver requires lambda1 > 0, got {lam1!r}")
    return pcfg


def _config_entries(cfg: RunConfig, args, unused=()) -> dict:
    "The manifest lines of the command's fields, less those the run did not use."
    entries = {"version": __version__}
    for name in _command_fields(args):
        if name in unused:
            continue
        value = getattr(cfg, name)
        entries[name] = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    return entries


def _finish_manifest(path, entries: dict) -> None:
    entries["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    vio.write_manifest(path, entries)


def cmd_simulate(args) -> int:
    """Two frame-chunked passes over the input, holding masks but no (T, m, n) float array.

    Pass 1 reads and checks each frame through ``read_video``'s chunked read,
    which for ``--holdout`` also records the observed (non-NaN) pixels and
    applies the content rule. Then the test mask is drawn and checked. Only
    then is the output directory made, and pass 2
    reads each frame again and writes both files by position. An input that
    cannot be read twice (a pipe) or that is one of the outputs keeps its
    frames from pass 1.
    """
    cfg = resolve_config(args)
    # Reject a bad choice of mode or fraction before creating the output directory or reading.
    if (cfg.pattern is None) == (cfg.holdout is None):
        raise ValueError("simulate needs --pattern or --holdout" if cfg.pattern is None
                         else "give --pattern or --holdout, not both")
    if cfg.holdout is not None:
        check_fraction(cfg.holdout, "holdout fraction")
        entries = _config_entries(cfg, args, ("pattern", "fraction", "patch_size"))
    else:
        spec = MissingnessSpec(pattern=cfg.pattern, fraction=cfg.fraction,
                               patch_size=cfg.patch_size, rng_seed=cfg.seed)
        patch = cfg.pattern.endswith("patch")
        entries = _config_entries(cfg, args, ("holdout", "fraction" if patch else "patch_size"))
        if patch and cfg.patch_size not in PRESET_PATCH_SIZES:
            print(f"warning: patch size {cfg.patch_size} is not one of the presets "
                  f"{PRESET_PATCH_SIZES}", file=sys.stderr)
    out = Path(cfg.output_dir)
    outputs = out / "masked.vmc", out / "test_mask.vmc"
    with ExitStack() as stack:
        reader = stack.enter_context(
            vio.FrameReader(cfg.input, "finite" if cfg.holdout is None else None))
        shape = T, m, n = reader.shape
        kept = None
        if not reader._positional or any(p.exists() and p.samefile(reader.path) for p in outputs):
            kept = reader._empty(shape)
        observed = None if cfg.holdout is None else reader._empty(shape, bool)
        vio._read_all(reader, kept, observed)
        if cfg.holdout is not None:
            test = holdout(observed, cfg.holdout, cfg.seed)
            entries["result_test_pixels"] = str(np.count_nonzero(test))
            dropped = np.logical_or(np.logical_not(observed, out=observed), test, out=observed)
        else:
            test, centers = generate(spec, (m, n, T))
            emptied = np.flatnonzero(test.reshape(T, -1).all(axis=1))
            if emptied.size:
                setting = (f"patch size {spec.patch_size}" if centers is not None
                           else f"fraction {spec.fraction!r}")
                raise ValueError(f"frame {emptied[0]} has no observed entries: pattern "
                                 f"{spec.pattern} at {setting} drops all of its pixels")
            dropped = test
            entries["result_dropped_pixels"] = str(np.count_nonzero(test))
            if centers is not None:
                entries["result_bbox"] = ",".join(str(v) for v in default_bbox(m, n))
                entries["result_patch_centers"] = ";".join(f"{i},{j}" for i, j in centers)
        out.mkdir(parents=True, exist_ok=True)
        masked, mask = (stack.enter_context(vio.FrameWriter(path, shape)) for path in outputs)

        def write(lo, hi, buffer, scratch):
            frames = reader._read(lo, repeat(buffer, hi - lo)) if kept is None else kept[lo:hi]
            masked._write(lo, frames, scratch, dropped[lo:hi])
            mask._write(lo, test[lo:hi], scratch)

        vio._in_chunks(write, shape, [masked, mask], (m, n), (m, n))
    _finish_manifest(out / "manifest.txt", entries)
    print(f"simulate: wrote {outputs[0]} and {outputs[1]}")
    return 0


def _complete(video, aux, cfg: RunConfig, lams, cache: dict = None) -> tuple:
    """Transform, solve and invert at one penalty triple.

    Returns (frames, auxiliary frames or None, SolverState, clamp count). The
    transform pools ``aux`` in only when lambda3 > 0. ``cache`` keeps the variant
    of the latest fit alone, so a caller that groups its triples by variant fits each once.
    A transform that no cache keeps is used up: the imputation is built in
    its video's buffer, and its auxiliary, the one the solver used, is mapped
    back by the same ``invert`` in its own buffer and returned too. The clamp
    count is the imputation's.
    """
    with_aux = lams[2] > 0
    transform = None if cache is None else cache.get(with_aux)
    if transform is None:
        transform = fit_transform(video, aux if with_aux else None,
                                  cfg.boxcox_lambda, cfg.boxcox_offset)
        if cache is None:
            _give_up(transform[0])
        else:
            cache.clear()
            cache[with_aux] = transform
    transformed, aux_t, params = transform
    del transform
    imputed, state = solve(transformed, aux_t, _penalty_config(cfg, *lams))
    outputs = [imputed.frames]
    if cache is None and aux_t is not None:
        outputs.append(_writable(_give_up(aux_t)))
    del transformed, aux_t
    inverted = [invert(frames, params) for frames in outputs]
    frames, clamped = inverted[0]
    aux_frames = inverted[1][0] if len(inverted) > 1 else None
    return frames, aux_frames, state, clamped


def cmd_impute(args) -> int:
    cfg = resolve_config(args)
    lams = effective_lambdas(cfg)
    _penalty_config(cfg, *lams)  # penalties, solver and fit options, before any read
    if lams[2] > 0:
        _check_fit(cfg.sh_lmax, cfg.sh_v)
    _check_power(cfg.boxcox_lambda, cfg.boxcox_offset)
    video = vio.read_video(cfg.input)
    check_rank(cfg.rank, *video.dims[:2])
    aux = build_auxiliary(video, l_max=cfg.sh_lmax, v=cfg.sh_v) if lams[2] > 0 else None
    # Two (T, m, n) arrays live through the solve, the transformed pair. The
    # video is transformed in the read buffer unless --keep-observed reads
    # the raw frames again, and the auxiliary always in its own buffer, where
    # it is mapped back after the solve to be written as auxiliary.vmc.
    frames_out, aux_out, state, clamped = _complete(
        video if cfg.keep_observed else _give_up(video), _give_up(aux), cfg, lams)
    if cfg.keep_observed:
        np.copyto(frames_out, video.frames, where=video.masks)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if aux_out is not None:
        vio.write_frames(out / "auxiliary.vmc", aux_out)
    vio.write_frames(out / "imputed.vmc", frames_out)
    vio.write_table(out / "diagnostics.csv", ["sweep", "objective", "max_rel_change"],
                    zip(range(state.sweeps + 1), state.objective_history,
                        [math.nan, *(float(np.max(c)) for c in state.change_history)]))
    unused = [name for name in ("lambda2", "lambda3") if name not in MODEL_PENALTIES[cfg.model]]
    if aux is None:
        unused += ["sh_lmax", "sh_v"]
    entries = _config_entries(cfg, args, unused)
    entries["result_effective_lambdas"] = ",".join(map(repr, lams))
    entries["result_converged"] = str(state.converged)
    history = state.objective_history
    entries["result_final_objective"] = repr(history[-1])
    entries["result_last_rel_decrease"] = repr((history[-2] - history[-1]) / history[-2]
                                               if history[-2] else 0.0)
    entries["result_sweeps"] = str(state.sweeps)
    entries["result_domain_clamped"] = str(clamped)
    _finish_manifest(out / "manifest.txt", entries)
    print(f"impute: model={cfg.model} sweeps={state.sweeps} converged={state.converged} "
          f"-> {out / 'imputed.vmc'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    paths = {}
    for item in args.imputed:
        name, _, path = item.partition("=")
        if not (name and path):
            raise ValueError(f"--imputed expects name=path, got {item!r}")
        _check_one_line("--imputed name", name)
        if name in paths:
            raise ValueError(f"model name {name!r} is given more than once")
        paths[name] = path
    # Every input is read frame by frame while it is scored; the truth may
    # hold NaN off the evaluation mask.
    with ExitStack() as stack:
        truth = stack.enter_context(vio.FrameReader(cfg.truth))
        masks = stack.enter_context(vio.FrameReader(cfg.eval_mask, "mask"))
        results = {name: stack.enter_context(vio.FrameReader(path, "finite"))
                   for name, path in paths.items()}
        report = compare_models(results, truth, masks)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_frame_metrics(out / "frame_metrics.csv", report)
    write_summary(out / "summary.csv", report)
    write_margins(out / "margins.csv", report, level=cfg.level)
    entries = _config_entries(cfg, args)
    entries["result_models"] = ",".join(report.models)
    entries["result_skipped_frames"] = str(sum(map(math.isnan, report.frame_rse[report.models[0]])))
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
    if cfg.holdout is None:
        cfg.holdout = 0.2
    check_fraction(cfg.holdout, "holdout fraction")
    stages = ("lambda1", "lambda2", "lambda3")
    grids = [_parse_grid(stage, getattr(cfg, stage + "_grid")) for stage in stages]
    _penalty_config(cfg, grids[0][0], 0.0, 0.0)  # solver and fit options, before any read
    if max(grids[2]) > 0:
        _check_fit(cfg.sh_lmax, cfg.sh_v)
    _check_power(cfg.boxcox_lambda, cfg.boxcox_offset)
    video = vio.read_video(cfg.input)
    check_rank(cfg.rank, *video.dims[:2])
    test = holdout(video.masks, cfg.holdout, cfg.seed)
    # The truth is kept at the test pixels alone, and train adopts the read buffer.
    truth = video.frames[test]
    train = MaskedVideo._adopt(_writable(_give_up(video)), video.masks & ~test)
    del video
    aux_raw = (_give_up(build_auxiliary(train, l_max=cfg.sh_lmax, v=cfg.sh_v))
               if max(grids[2]) > 0 else None)
    # Stage k varies lambda_k, holding lambda1 at stage 1's best value and the
    # other penalty at 0; a triple met again (a 0, a repeated value) is not re-solved.
    entries = _config_entries(cfg, args, () if aux_raw is not None else ("sh_lmax", "sh_v"))
    rows, best, fitted, solved, unconverged = [], [], {}, {}, 0
    for k, (stage, grid) in enumerate(zip(stages, grids)):
        entries[f"timestamp_stage_{stage}"] = f"{time.time():.6f}"
        scores = []
        for value in grid:
            lams = tuple(value if i == k else best[0] if i == 0 else 0.0 for i in range(3))
            if lams not in solved:
                frames, _, state, _ = _complete(train, aux_raw, cfg, lams, fitted)
                solved[lams] = _mean_rse(frames, truth, test), state.converged
                del frames
            scores.append(solved[lams][0])
            unconverged += not solved[lams][1]
            rows.append((stage, *lams, scores[-1]))
        best.append(grid[int(np.argmin(scores))])

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_table(out / "gridsearch.csv", ["stage", *stages, "rse_pct"], rows)
    vio.write_manifest(out / "best.txt", {stage: repr(b) for stage, b in zip(stages, best)})
    entries["result_best_lambdas"] = ",".join(map(repr, best))
    entries["result_unconverged_points"] = str(unconverged)
    _finish_manifest(out / "manifest.txt", entries)
    print(f"gridsearch: best (lambda1, lambda2, lambda3) = ({', '.join(map(str, best))})")
    return 0


_FIT_FIELDS = ("rank", "max_iter", "tol", "sh_lmax", "sh_v", "boxcox_lambda", "boxcox_offset")


def _add_command(sub, name: str, func, summary: str, *field_names) -> argparse.ArgumentParser:
    """A subparser with --config and one flag, None when not given, per named RunConfig field."""
    parser = sub.add_parser(name, help=summary, allow_abbrev=False)
    parser.add_argument("--config", help="key=value config file (a previous run manifest works)")
    for field_name in field_names:
        spec = _FIELDS[field_name]
        kind = ({"action": "store_true", "default": None} if spec.type is bool
                else {"type": spec.type})
        parser.add_argument("--" + field_name.replace("_", "-"), **kind, **spec.metadata)
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
                          "truth", "eval_mask", "output_dir", "level")
    p_eval.add_argument("--imputed", action="append", required=True, metavar="NAME=PATH",
                        help="imputed video to score; repeatable")

    _add_command(sub, "gridsearch", cmd_gridsearch, "two-stage penalty search by held-out RSE",
                 "input", "output_dir", *_FIT_FIELDS, "holdout", "seed",
                 "lambda1_grid", "lambda2_grid", "lambda3_grid")
    return parser


def main(argv=None) -> int:
    """Run one command; a bad value or file, a singular fit or a failed allocation prints one
    line and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"vista: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
