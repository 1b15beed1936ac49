"""Cross-cutting evaluation metrics: fairness, energy efficiency, and
per-decision wall-clock latency of the different allocators."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .solver import bcd_solve

__all__ = [
    "jain_index",
    "energy_efficiency",
    "LatencyRow",
    "latency_benchmark",
    "BENCH_METHODS",
]

BENCH_METHODS = ("bcd_mm1", "bcd_mm2", "gradient_descent", "dqn_inference")


def jain_index(values) -> float:
    """Fairness of a finite non-negative vector: (sum x)^2 / (n sum x^2).

    Equals 1 when everyone holds the same amount and 1/n when one user holds
    everything.  An all-zero vector carries no allocation to rate.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("fairness of an empty vector is undefined")
    if not np.all(np.isfinite(x)):
        raise ValueError("fairness inputs must be finite")
    if np.any(x < 0.0):
        raise ValueError("fairness inputs must be non-negative")
    total = x.sum()
    if total == 0.0:
        raise ValueError("fairness of an all-zero vector is undefined")
    return float(total * total / (x.size * np.sum(x * x)))


def energy_efficiency(bits_completed: float, joules_spent: float) -> float:
    """Throughput per unit energy, bits per joule."""
    if not 0.0 < joules_spent < math.inf:
        raise ValueError(f"energy spent must be finite and > 0, got {joules_spent}")
    if not 0.0 <= bits_completed < math.inf:
        raise ValueError(f"completed bits must be finite and >= 0, got {bits_completed}")
    return bits_completed / joules_spent


@dataclass
class LatencyRow:
    """Median per-decision wall time of one method at one problem scale."""

    method: str
    n_servers: int
    median_s: float
    repetitions: int


def _time_calls(fn, repetitions: int) -> float:
    """Median wall time of fn() over the given repetitions, after one
    untimed warmup call."""
    fn()
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def latency_benchmark(cells, repetitions: int = 5, seed: int = 0) -> list[LatencyRow]:
    """Per-decision latency of each allocator (``BENCH_METHODS``) on each
    single-user problem of ``cells`` (a sequence of ``SystemParams``).

    Solver methods time one full allocation of the cell itself; the learned
    method times one decision of ``baselines.greedy_policy`` (state encoding
    through the network to a decoded action) on a two-user environment with
    the cell's server count.  All methods run on the same machine in the same
    process; the first call of each cell is warmup and excluded.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rows: list[LatencyRow] = []
    variant_of = {"bcd_mm1": "mm1", "bcd_mm2": "mm2", "gradient_descent": "pg"}
    for p in cells:
        m = p.n_servers
        for method in BENCH_METHODS:
            if method in variant_of:
                variant = variant_of[method]
                rows.append(LatencyRow(
                    method, m, _time_calls(lambda: bcd_solve(p, variant=variant), repetitions),
                    repetitions,
                ))
            else:  # dqn_inference
                from .baselines import greedy_policy
                from .dqn import init_network
                from .multiuser import MultiUserEnv, default_multiuser, enumerate_actions, state_vector

                mp = default_multiuser(n_users=2, n_servers=m)
                grid = enumerate_actions(mp, granularity=0.5)
                env_state = MultiUserEnv(mp).reset(seed)
                theta = init_network(state_vector(mp, env_state).shape[0], grid.size, seed=seed)
                policy = greedy_policy(theta, grid, mp)
                rows.append(LatencyRow(method, m, _time_calls(lambda: policy(env_state, 0), repetitions),
                                       repetitions))
    return rows
