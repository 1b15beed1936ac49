"""Resource allocation for latency- and energy-constrained edge offloading
under stochastic per-bit workloads.

Single-user: an analytic success/outage model and block-coordinate solvers
whose inner step is majorize-maximize with either first-order or quadratic
surrogates (the latter solved in closed form).  Multi-user: an interference-
and contention-aware slotted environment with a from-scratch value-learning
agent, classical scheduler baselines, and a reproducible experiment harness.
"""

from .model import (
    Allocation,
    FeasibilityError,
    SystemParams,
    monte_carlo_outage,
    reference_params,
    success_breakdown,
)
from .solver import BcdResult, BcdTrace, SolverError, WaterfillBracketError, bcd_solve
from .special import GammaWorkload, chi, regularized_lower_gamma, solve_quartic_real
from .multiuser import (
    ActionGrid,
    MultiUserAction,
    MultiUserEnv,
    MultiUserParams,
    MultiUserState,
    default_multiuser,
    enumerate_actions,
)
from .dqn import (
    QNetworkParams,
    ReplayBuffer,
    TrainConfig,
    load_checkpoint,
    q_forward,
    save_checkpoint,
    select_action,
    train,
)
from .baselines import baseline_full_offload, evaluate_policy, schedulers
from .metrics import energy_efficiency, jain_index, latency_benchmark
from .experiments import ExperimentConfig, MetricRow, load_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "FeasibilityError",
    "SystemParams",
    "monte_carlo_outage",
    "reference_params",
    "success_breakdown",
    "BcdResult",
    "BcdTrace",
    "SolverError",
    "WaterfillBracketError",
    "bcd_solve",
    "GammaWorkload",
    "chi",
    "regularized_lower_gamma",
    "solve_quartic_real",
    "ActionGrid",
    "MultiUserAction",
    "MultiUserEnv",
    "MultiUserParams",
    "MultiUserState",
    "default_multiuser",
    "enumerate_actions",
    "QNetworkParams",
    "ReplayBuffer",
    "TrainConfig",
    "load_checkpoint",
    "q_forward",
    "save_checkpoint",
    "select_action",
    "train",
    "baseline_full_offload",
    "evaluate_policy",
    "schedulers",
    "energy_efficiency",
    "jain_index",
    "latency_benchmark",
    "ExperimentConfig",
    "MetricRow",
    "load_config",
    "run_experiment",
]
