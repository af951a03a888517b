"""Closed-form mean-field stochastic bridges and demand-response experiments."""

from .schedule import PwcSchedule, geometric_schedule, interval_of
from .guidance import linear_guidance, self_consistent_guidance
from .greens import build_tables, CoeffTables
from .lqg import LqgProblem, solve_lqg, ia_baseline, lqg_metrics
from .score import GaussianMixture, ScoreContext, marginal_density
from .simulate import SimConfig, run_bridge

__version__ = "0.1.0"

__all__ = [
    "PwcSchedule", "geometric_schedule", "interval_of",
    "linear_guidance", "self_consistent_guidance",
    "build_tables", "CoeffTables",
    "LqgProblem", "solve_lqg", "ia_baseline", "lqg_metrics",
    "GaussianMixture", "ScoreContext", "marginal_density",
    "SimConfig", "run_bridge",
    "__version__",
]
