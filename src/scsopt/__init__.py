"""scsopt: adaptive-sampling conjugate subgradient solvers for two-stage stochastic programs."""

from .baselines import SgdSolver, SmdSolver
from .cli import RunConfig, compare, load_instance, run_experiment
from .model import (
    Discrete,
    Normal,
    RandomEntry,
    ScenarioSampler,
    ScenarioSet,
    TwoStageProblem,
    Uniform,
    draw_scenarios,
    enumerate_support,
    extensive_form,
    true_objective,
)
from .native import load_native, write_native
from .oracle import SaaFunction, solve_recourse
from .records import CSV_HEADER, IterateRecord, read_history_csv, write_history_csv
from .scs import ScsSolver
from .smps import load_smps

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "Discrete",
    "IterateRecord",
    "Normal",
    "RandomEntry",
    "RunConfig",
    "SaaFunction",
    "ScenarioSampler",
    "ScenarioSet",
    "ScsSolver",
    "SgdSolver",
    "SmdSolver",
    "TwoStageProblem",
    "Uniform",
    "compare",
    "draw_scenarios",
    "enumerate_support",
    "extensive_form",
    "load_instance",
    "load_native",
    "load_smps",
    "read_history_csv",
    "run_experiment",
    "solve_recourse",
    "true_objective",
    "write_history_csv",
    "write_native",
]
