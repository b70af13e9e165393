"""vista: joint low-rank completion of masked matrix sequences.

Couples per-frame softImpute-style factorization with a temporal-smoothing
penalty and an optional smooth auxiliary video, plus the preprocessing,
synthetic-missingness, and evaluation tooling needed to run end-to-end
imputation experiments. Only the pipeline's six names are re-exported here.
"""

from .solver import solve
from .spherical import build_auxiliary
from .transform import fit_transform, invert
from .video import MaskedVideo, PenaltyConfig

__version__ = "0.1.0"

__all__ = ["MaskedVideo", "PenaltyConfig", "build_auxiliary", "fit_transform", "invert", "solve"]
