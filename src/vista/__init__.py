"""vista: joint low-rank completion of masked matrix sequences.

Couples per-frame softImpute-style factorization with a temporal-smoothing
penalty and an optional smooth auxiliary video, plus the preprocessing,
synthetic-missingness, and evaluation tooling needed to run end-to-end
imputation experiments.
"""

from .evaluation import EvalReport, compare_models, rse
from .missingness import MissingnessSpec, holdout
from .solver import (
    ImputedVideo,
    SolverState,
    check_convergence,
    finalize,
    init_factors,
    objective,
    solve,
    sweep,
    update_left,
    update_right,
)
from .spherical import ShModel, SphericalGrid, build_auxiliary, fit_frame
from .transform import TransformParams, fit_transform, invert
from .video import (
    AuxiliaryVideo,
    FactorSequence,
    MaskedVideo,
    PenaltyConfig,
    fill_in,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryVideo",
    "EvalReport",
    "FactorSequence",
    "ImputedVideo",
    "MaskedVideo",
    "MissingnessSpec",
    "PenaltyConfig",
    "ShModel",
    "SolverState",
    "SphericalGrid",
    "TransformParams",
    "build_auxiliary",
    "check_convergence",
    "compare_models",
    "fill_in",
    "finalize",
    "fit_frame",
    "fit_transform",
    "holdout",
    "init_factors",
    "invert",
    "objective",
    "rse",
    "solve",
    "sweep",
    "update_left",
    "update_right",
]
