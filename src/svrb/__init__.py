"""Stein variational sampling with adaptive reduced-basis surrogates
for PDE-constrained Bayesian inverse problems."""

from .adaptive import AdaptiveConfig, greedy_sweep, initialize, run_svrb, tolerance_update
from .backends import GaussianBackend, HiFiBackend, RBBackend
from .cases import (
    AffineTerm,
    CaseConfig,
    StandardGaussian,
    UniformBox,
    assemble_problem,
    custom_case,
    gaussian9_case,
    uniform4_case,
)
from .config import ConfigError, ExperimentConfig
from .fem import (
    AffineParametricProblem,
    CoercivityLost,
    ConfigurationError,
    MeshGrid,
    SolveFailed,
    build_mesh,
)
from .reduced import RBEvaluation, RBSolveFailed, ReducedModel
from .runlog import IterationRecord, RunLog
from .svgd import (
    NumericalAbort,
    ParticleEnsemble,
    SVGDConfig,
    line_search,
    median_bandwidth,
    prior_score,
    stopping_indicator,
    svgd_direction,
    svgd_run,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AffineParametricProblem",
    "AffineTerm",
    "CaseConfig",
    "CoercivityLost",
    "ConfigError",
    "ConfigurationError",
    "ExperimentConfig",
    "GaussianBackend",
    "HiFiBackend",
    "IterationRecord",
    "MeshGrid",
    "NumericalAbort",
    "ParticleEnsemble",
    "RBEvaluation",
    "RBSolveFailed",
    "RBBackend",
    "ReducedModel",
    "RunLog",
    "SVGDConfig",
    "SolveFailed",
    "StandardGaussian",
    "UniformBox",
    "assemble_problem",
    "build_mesh",
    "custom_case",
    "gaussian9_case",
    "greedy_sweep",
    "initialize",
    "line_search",
    "median_bandwidth",
    "prior_score",
    "run_svrb",
    "stopping_indicator",
    "svgd_direction",
    "svgd_run",
    "tolerance_update",
    "uniform4_case",
]
