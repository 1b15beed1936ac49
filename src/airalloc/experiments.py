"""Reproducible experiment harness.

Each experiment kind regenerates one figure-equivalent data set as a CSV of
uniform ``MetricRow`` records: a sweep coordinate, a metric name carrying its
unit, a value, an optional standard error, and a tag naming the method or
cell.  Everything is driven by a structured-text config with strict key
checking, and every stochastic path is seeded, so re-running a config
reproduces the same bytes (the latency benchmark is the one exception: it
reports wall-clock medians, which are machine state, not derivable from the
seed).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import (
    SCHEDULER_KINDS,
    baseline_full_offload,
    evaluate_policy,
    greedy_policy,
    schedulers,
)
from .dqn import TrainConfig, train
from .metrics import energy_efficiency, jain_index, latency_benchmark
from .model import (
    Allocation,
    SystemParams,
    local_cycle_energy,
    monte_carlo_outage,
    reference_params,
    success_breakdown,
)
from .multiuser import (
    ActionGrid,
    MultiUserAction,
    MultiUserEnv,
    MultiUserParams,
    default_multiuser,
    enumerate_actions,
    grid_steps,
)
from .solver import VARIANTS, bcd_solve

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "MetricRow",
    "EXPERIMENT_KINDS",
    "load_config",
    "write_rows",
    "read_rows",
    "run_experiment",
]

CSV_HEADER = "sweep_value,metric,value,std_error,tag"


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass
class MetricRow:
    """One data point of a figure-equivalent.

    ``metric`` carries the unit in brackets, e.g. ``outage [probability]`` or
    ``median_latency [s]``; ``tag`` names the method, variant, or cell.
    """

    sweep_value: float
    metric: str
    value: float
    std_error: float | None
    tag: str

    def __post_init__(self) -> None:
        self.sweep_value = float(self.sweep_value)
        self.value = float(self.value)
        if self.std_error is not None:
            self.std_error = float(self.std_error)
        if not (math.isfinite(self.sweep_value) and math.isfinite(self.value)):
            raise ValueError(f"metric rows must be finite, got {self}")
        if self.std_error is not None and not math.isfinite(self.std_error):
            raise ValueError(f"std_error must be finite or absent, got {self.std_error}")

    def to_line(self) -> str:
        se = "" if self.std_error is None else repr(self.std_error)
        return f"{self.sweep_value!r},{self.metric},{self.value!r},{se},{self.tag}"

    @classmethod
    def from_line(cls, line: str) -> "MetricRow":
        parts = line.rstrip("\n").split(",")
        if len(parts) != 5:
            raise ValueError(f"expected 5 columns, got {len(parts)}: {line!r}")
        sweep, metric, value, se, tag = parts
        return cls(float(sweep), metric, float(value), None if se == "" else float(se), tag)


def write_rows(path: Path, rows: list[MetricRow]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_line() + "\n")
    return path


def read_rows(path: Path) -> list[MetricRow]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        return [MetricRow.from_line(line) for line in fh if line.strip()]


@dataclass
class ExperimentConfig:
    """Validated experiment description; see ``load_config`` for the schema."""

    experiment: str
    seed: int
    output_dir: Path
    variant: str = "mm2"
    single_user: dict = field(default_factory=dict)
    multi_user: dict = field(default_factory=dict)
    sweep_values: list = field(default_factory=list)
    trials: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)


_TOP_KEYS = {"experiment", "seed", "output_dir", "variant", "single_user",
             "multi_user", "sweep", "trials", "train"}
_SINGLE_KEYS = {"n_servers", "task_mbits", "latency_s", "energy_j"}
_MULTI_KEYS = {"n_users", "n_servers", "task_range_mbits", "weights", "energy_weight"}
_SWEEP_KEYS = {"values"}
_TRIAL_KEYS = {"episodes", "steps", "mc_trials", "repetitions"}
_TRAIN_KEYS = {"learning_rate", "discount", "epsilon_start", "epsilon_min",
               "epsilon_decay", "tau", "batch_size", "buffer_capacity",
               "episodes", "steps_per_episode", "granularity"}


def _require_mapping(block, name: str) -> dict:
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(block).__name__}")
    return block


def _check_keys(block: dict, allowed: set, name: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {name}; allowed: {sorted(allowed)}"
        )


@contextmanager
def _config_errors(name: str):
    """Report a ``TypeError`` / ``ValueError`` as a :class:`ConfigError`."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config.

    Schema: ``experiment`` (one of the known kinds), ``seed`` (non-negative
    int, required), ``output_dir``, optional ``variant``, optional
    ``single_user`` / ``multi_user`` parameter blocks, optional
    ``sweep: {values: [...]}``, optional ``trials``
    (episodes/steps/mc_trials/repetitions) and ``train`` (network
    hyperparameters and the action grid's ``granularity``) blocks.  Every
    ``trials`` value must be a positive integer.  The parameter blocks, the
    ``train`` block and every sweep value are checked by building the
    parameters they give (``_CELLS`` for a sweep value), so nothing runs on a
    bad config.  Unknown keys anywhere are rejected.
    """
    import yaml  # only config reading needs PyYAML

    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")

    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    seed = raw.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"config requires a non-negative integer seed, got {seed!r}")
    if "output_dir" not in raw:
        raise ConfigError("config requires output_dir")

    single = _require_mapping(raw.get("single_user"), "single_user")
    _check_keys(single, _SINGLE_KEYS, "single_user")
    multi = _require_mapping(raw.get("multi_user"), "multi_user")
    _check_keys(multi, _MULTI_KEYS, "multi_user")
    sweep = _require_mapping(raw.get("sweep"), "sweep")
    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    values = sweep.get("values", [])
    if "values" in sweep and not values:
        raise ConfigError("sweep.values must be non-empty when given")
    trials = _require_mapping(raw.get("trials"), "trials")
    _check_keys(trials, _TRIAL_KEYS, "trials")
    train_block = _require_mapping(raw.get("train"), "train")
    _check_keys(train_block, _TRAIN_KEYS, "train")

    for name, value in trials.items():
        if _count(value, f"trials.{name}") < 1:
            raise ConfigError(f"trials.{name} must be a positive integer, got {value!r}")

    variant = raw.get("variant", "mm2")
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")

    cfg = ExperimentConfig(
        experiment=kind,
        seed=seed,
        output_dir=Path(raw["output_dir"]),
        variant=variant,
        single_user=single,
        multi_user=multi,
        sweep_values=list(values),
        trials=trials,
        train=train_block,
    )
    with _config_errors("train"):
        _train_config(cfg)
        grid_steps(float(train_block.get("granularity", 0.5)))
    with _config_errors("single_user"):
        _single_params(cfg)
    with _config_errors("multi_user"):
        _multi_params(cfg)
    block, cell = _CELLS[kind]
    for value in cfg.sweep_values:
        with _config_errors(f"{block}: sweep value {value!r}"):
            cell(cfg, value)
    return cfg


def _count(value, name: str) -> int:
    """An integer-valued entry; a bool, float or string is a ConfigError
    rather than silently truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _single_params(cfg: ExperimentConfig, **overrides) -> SystemParams:
    block = dict(cfg.single_user)
    block.update(overrides)
    return reference_params(
        n_servers=_count(block.get("n_servers", 2), "n_servers"),
        task_mbits=float(block.get("task_mbits", 10.0)),
        latency_s=float(block.get("latency_s", 1.0)),
        energy_j=float(block.get("energy_j", 1.0)),
    )


def _multi_params(cfg: ExperimentConfig, **overrides):
    block = dict(cfg.multi_user)
    block.update(overrides)
    mp = default_multiuser(
        n_users=_count(block.get("n_users", 2), "n_users"),
        n_servers=_count(block.get("n_servers", 1), "n_servers"),
    )
    changes = {}
    if "task_range_mbits" in block:
        lo, hi = block["task_range_mbits"]
        changes["task_range_bits"] = (float(lo) * 1e6, float(hi) * 1e6)
    if "weights" in block:
        w = tuple(float(x) for x in block["weights"])
        if len(w) != mp.n_users:
            raise ConfigError(f"weights must have {mp.n_users} entries, got {len(w)}")
        changes["weights"] = w
    if "energy_weight" in block:
        changes["energy_weight"] = float(block["energy_weight"])
    return dataclasses.replace(mp, **changes) if changes else mp


def _action_grid(cfg: ExperimentConfig, mp) -> ActionGrid:
    return enumerate_actions(mp, granularity=float(cfg.train.get("granularity", 0.5)))


def _train_config(cfg: ExperimentConfig) -> TrainConfig:
    """The config's ``train`` block and seed."""
    block = {k: v for k, v in cfg.train.items() if k != "granularity"}
    return TrainConfig(seed=cfg.seed, **block)


def _train_policy(cfg: ExperimentConfig, mp, tc: TrainConfig | None = None):
    """Train on ``mp`` with ``tc`` (default: :func:`_train_config`); returns
    ``(grid, train_config, theta, curve)``."""
    grid = _action_grid(cfg, mp)
    if tc is None:
        tc = _train_config(cfg)
    theta, curve = train(MultiUserEnv(mp), grid, tc)
    return grid, tc, theta, curve


# ---------------------------------------------------------------------------
# sweep cells: one sweep value -> the parameters its cell runs on


def _convergence_cell(cfg: ExperimentConfig, cell) -> SystemParams:
    m, task = cell
    return _single_params(cfg, n_servers=m, task_mbits=float(task))


def _task_cell(cfg: ExperimentConfig, task) -> SystemParams:
    return _single_params(cfg, task_mbits=float(task))


def _server_cell(cfg: ExperimentConfig, m) -> SystemParams:
    return _single_params(cfg, n_servers=m)


def _rate_cell(cfg: ExperimentConfig, lr) -> TrainConfig:
    return dataclasses.replace(_train_config(cfg), learning_rate=float(lr))


def _users_cell(cfg: ExperimentConfig, n) -> MultiUserParams:
    return _multi_params(cfg, n_users=n)


def _fairness_cell(cfg: ExperimentConfig, ratio) -> MultiUserParams:
    mp = _multi_params(cfg)
    return dataclasses.replace(mp, weights=(float(ratio),) + (1.0,) * (mp.n_users - 1))


def _efficiency_cell(cfg: ExperimentConfig, task) -> tuple[SystemParams, MultiUserParams]:
    """The single-user problem and the multi-user one with every slot's task
    size pinned to ``task``."""
    return _task_cell(cfg, task), _multi_params(cfg, task_range_mbits=(task, task))


# Each kind's cell builder and the config block its sweep values override.
_CELLS = {
    "convergence": ("single_user", _convergence_cell),
    "task_sweep": ("single_user", _task_cell),
    "server_sweep": ("single_user", _server_cell),
    "speed_uncertainty": ("single_user", _task_cell),
    "learning_rate": ("train", _rate_cell),
    "user_count": ("multi_user", _users_cell),
    "fairness": ("multi_user", _fairness_cell),
    "latency": ("single_user", _server_cell),
    "efficiency": ("single_user and multi_user", _efficiency_cell),
}


# ---------------------------------------------------------------------------
# experiment kinds


def _exp_convergence(cfg: ExperimentConfig) -> list[MetricRow]:
    cells = cfg.sweep_values or [[2, 10.0], [2, 15.0], [3, 10.0], [3, 15.0]]
    rows = []
    for cell in cells:
        p = _convergence_cell(cfg, cell)
        for variant in ("mm2", "mm1"):
            res = bcd_solve(p, variant=variant)
            for it, ln in enumerate(res.trace.ln_p_success):
                rows.append(MetricRow(it, "ln_p_success [nats]", ln, None,
                                      f"{variant}:M={p.n_servers}:L={float(cell[1]):g}"))
    return rows


def _best_solve(p: SystemParams, variant: str, init: Allocation | None):
    """Fresh solve, improved by a warm start when one is supplied."""
    res = bcd_solve(p, variant=variant)
    if init is not None:
        warm = bcd_solve(p, variant=variant, init=init)
        if warm.ln_p_success > res.ln_p_success:
            res = warm
    return res


def _exp_task_sweep(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    rows = []
    prev = None
    for task in values:
        p = _task_cell(cfg, task)
        res = _best_solve(p, cfg.variant, prev)
        prev = res.allocation
        rows.append(MetricRow(float(task), "outage [probability]", res.p_outage, None, "proposed"))
        full = baseline_full_offload(p, variant=cfg.variant)
        rows.append(MetricRow(float(task), "outage [probability]", full.p_outage, None, "full_offload"))
    return rows


def _extend_allocation(prev: Allocation, n_servers: int) -> Allocation:
    """Embed an (M-1)-server solution into an M-server problem: the new
    server starts with zero share and zero airtime."""
    phi = tuple(prev.phi) + (0.0,) * (n_servers + 1 - len(prev.phi))
    t = tuple(prev.t_shares) + (0.0,) * (n_servers - len(prev.t_shares))
    return Allocation(phi=phi, t_shares=t, power_w=prev.power_w, rho=prev.rho)


def _exp_server_sweep(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [1, 2, 3, 4]
    rows = []
    prev = None
    for m in values:
        p = _server_cell(cfg, m)
        init = _extend_allocation(prev, p.n_servers) if prev is not None else None
        res = _best_solve(p, cfg.variant, init)
        prev = res.allocation
        rows.append(MetricRow(float(m), "outage [probability]", res.p_outage, None, "proposed"))
    return rows


def _exp_speed_uncertainty(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [5.0, 10.0, 15.0, 20.0]
    n_trials = int(cfg.trials.get("mc_trials", 100_000))
    rows = []
    for task in values:
        p = _task_cell(cfg, task)
        res = bcd_solve(p, variant=cfg.variant)
        rows.append(MetricRow(float(task), "outage [probability]", res.p_outage, None, "analytic"))
        for jitter, tag in ((0.0, "mc_exact_speed"), (0.2, "mc_speed_jitter_20pct")):
            mc = monte_carlo_outage(p, res.allocation, n_trials=n_trials,
                                    seed=cfg.seed, speed_jitter=jitter)
            rows.append(MetricRow(float(task), "outage [probability]",
                                  mc.p_outage, mc.std_error, tag))
    return rows


def _exp_learning_rate(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [1e-3, 8e-4, 5e-4, 1e-4]
    mp = _multi_params(cfg)
    rows = []
    for lr in values:
        curve = _train_policy(cfg, mp, _rate_cell(cfg, lr))[3]
        for ep, r in enumerate(curve):
            rows.append(MetricRow(float(ep), "episode_reward [1]", r, None, f"lr={float(lr):g}"))
    return rows


def _static_bcd_action(mp, variant: str) -> MultiUserAction:
    """Fig.-7 style static baseline: each user solves its own single-user
    problem at the nominal task size, then its airtime is scaled into an
    equal 1/N share of the slot.  The resulting joint action is replayed
    every slot regardless of the realized state."""
    n, m = mp.n_users, mp.n_servers
    phi = np.zeros((n, m + 1))
    t = np.zeros((n, m))
    power = np.zeros(n)
    for u in range(n):
        alloc = bcd_solve(mp.device(u), variant=variant).allocation
        share = np.asarray(alloc.t_shares, dtype=float)
        cap = mp.slot_s / n
        total = share.sum()
        if total > cap:
            share = share * (cap / total)
        phi[u] = alloc.phi
        t[u] = share
        power[u] = alloc.power_w
    return MultiUserAction(phi, t, power)


def _exp_user_count(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [2, 3]
    episodes = int(cfg.trials.get("episodes", 100))
    steps = int(cfg.trials.get("steps", 20))
    rows = []
    for n in values:
        mp = _users_cell(cfg, n)
        grid, _, theta, _ = _train_policy(cfg, mp)
        learned = evaluate_policy(MultiUserEnv(mp), greedy_policy(theta, grid, mp),
                                  episodes, steps, seed=cfg.seed + 1)
        rows.append(MetricRow(float(n), "mean_success [probability]",
                              learned.mean_success, None, "dqn"))
        static = _static_bcd_action(mp, cfg.variant)
        fixed = evaluate_policy(MultiUserEnv(mp), lambda s, k: static,
                                episodes, steps, seed=cfg.seed + 1)
        rows.append(MetricRow(float(n), "mean_success [probability]",
                              fixed.mean_success, None, "bcd_static"))
    return rows


def _exp_fairness(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [1.0, 2.0, 4.0, 8.0]
    episodes = int(cfg.trials.get("episodes", 100))
    steps = int(cfg.trials.get("steps", 20))
    train_episodes = int(cfg.train.get("episodes", 0))
    rows = []
    for ratio in values:
        mp = _fairness_cell(cfg, ratio)
        for kind in SCHEDULER_KINDS:
            rates = schedulers(kind, mp, episodes=episodes, seed=cfg.seed,
                               steps_per_episode=steps)
            rows.append(MetricRow(float(ratio), "jain_index [1]",
                                  jain_index(rates), None, kind))
        if train_episodes > 0:
            grid, _, theta, _ = _train_policy(cfg, mp)
            learned = evaluate_policy(MultiUserEnv(mp), greedy_policy(theta, grid, mp),
                                      episodes, steps, seed=cfg.seed)
            rows.append(MetricRow(float(ratio), "jain_index [1]",
                                  jain_index(learned.per_user_success), None, "dqn"))
    return rows


def _exp_latency(cfg: ExperimentConfig) -> list[MetricRow]:
    grid = tuple(_server_cell(cfg, v).n_servers for v in cfg.sweep_values) or (1, 2, 3)
    return _latency_rows(grid, int(cfg.trials.get("repetitions", 5)), cfg.seed)


def _latency_rows(server_grid: tuple, repetitions: int, seed: int) -> list[MetricRow]:
    return [MetricRow(float(c.n_servers), "median_latency [s]", c.median_s, None, c.method)
            for c in latency_benchmark(server_grid=server_grid, repetitions=repetitions, seed=seed)]


def _exp_efficiency(cfg: ExperimentConfig) -> list[MetricRow]:
    values = cfg.sweep_values or [5.0, 10.0, 15.0]
    episodes = int(cfg.trials.get("episodes", 10))
    steps = int(cfg.trials.get("steps", 20))
    cells = [(float(task), *_efficiency_cell(cfg, task)) for task in values]
    rows = []
    for p_max in (0.8, 1.0):
        for task, p, _ in cells:
            p = dataclasses.replace(p, p_max_w=p_max)
            res = bcd_solve(p, variant=cfg.variant)
            alloc = res.allocation
            # Times shape, then scale: a product with workload.mean rounds differently.
            spent = (alloc.power_w * sum(alloc.t_shares) + local_cycle_energy(p) * p.task_bits
                     * alloc.phi[0] * p.workload.shape * p.workload.scale)
            done_bits = p.task_bits * (1.0 - res.p_outage)
            rows.append(MetricRow(task, "energy_efficiency [bits/J]",
                                  energy_efficiency(done_bits, spent), None,
                                  f"bcd:pmax={p_max:g}"))
        mp = _multi_params(cfg)
        mp = dataclasses.replace(mp, p_max_w=tuple(p_max for _ in range(mp.n_users)))
        grid, _, theta, _ = _train_policy(cfg, mp)
        for task, _, cell in cells:
            # expected completed bits per joule under the greedy policy, with
            # the slot task size pinned to the sweep value
            cell = dataclasses.replace(cell, p_max_w=mp.p_max_w)
            rollout = evaluate_policy(MultiUserEnv(cell), greedy_policy(theta, grid, cell),
                                      episodes, steps, seed=cfg.seed + 1)
            rows.append(MetricRow(task, "energy_efficiency [bits/J]",
                                  energy_efficiency(rollout.bits_completed, rollout.energy_j), None,
                                  f"dqn:pmax={p_max:g}"))
    return rows


_RUNNERS = {
    "convergence": _exp_convergence,
    "task_sweep": _exp_task_sweep,
    "server_sweep": _exp_server_sweep,
    "speed_uncertainty": _exp_speed_uncertainty,
    "learning_rate": _exp_learning_rate,
    "user_count": _exp_user_count,
    "fairness": _exp_fairness,
    "latency": _exp_latency,
    "efficiency": _exp_efficiency,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Run the configured experiment and write its CSV; returns the paths."""
    rows = _RUNNERS[cfg.experiment](cfg)
    out = write_rows(cfg.output_dir / f"{cfg.experiment}.csv", rows)
    return [out]
