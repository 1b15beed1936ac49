"""Resource allocation for latency- and energy-constrained edge offloading
under stochastic per-bit workloads.

Single-user: an analytic success/outage model and block-coordinate solvers
whose inner step is majorize-maximize with either first-order or quadratic
surrogates (the latter solved in closed form).  Multi-user: an interference-
and contention-aware slotted environment with a from-scratch value-learning
agent, classical scheduler baselines, and a reproducible experiment harness.

Importing the package loads the solvers, the environment and the learner.
The experiment harness (``airalloc.experiments``, which needs PyYAML) and
``airalloc.metrics`` load on first use of one of their names.
"""

import importlib

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

# Names of the submodules that load on first use, each with its exported names.
_LAZY_MODULES = {
    "metrics": ("energy_efficiency", "jain_index", "latency_benchmark"),
    "experiments": ("ExperimentConfig", "MetricRow", "load_config", "run_experiment"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    """Import a lazy submodule on first use of it or of one of its names,
    and keep the value in the package namespace (PEP 562)."""
    module = _LAZY_NAMES.get(name, name)
    if module not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
