"""Low-rank matrix recovery from tight-frame measurements via truncated
nuclear norm regularization, with automatic truncation-rank estimation."""

from .linalg import (TruncationPair, nuclear_norm, shrink, truncated_nuclear_norm,
                     truncation_pair)
from .operators import LinearMap, PartialDct2D, SamplingMask, project_ball
from .sve import SveConfig, SveProfile, default_kappa, estimate_rank
from .solvers import (SolverConfig, SolverDivergence, StageTrace, lrisd, lrisd_stages, objective,
                      solve_with_rank, tnnr_admm, tnnr_admmap, tnnr_apgl)
from .data import SyntheticSpec, load_image, save_image, stream_rng, synth_lowrank
from .metrics import MetricsReport, psnr, relative_error

__version__ = "0.1.0"
