"""Single-user task-splitting model over wireless edge servers.

A task of ``task_bits`` bits is split into a local share ``phi[0]`` and one
share ``phi[m]`` per edge server.  Each offloaded share must first be
delivered over a fading uplink within its time share, then finish on the
server before the latency budget; the local share must finish on the local
CPU within both the latency budget and the device energy budget.  All three
stages are independent, so the end-to-end success probability factorizes and
the outage probability is one minus the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .special import (
    GammaWorkload,
    chi,
    ln_chi,
    ln_chi_curvature,
    ln_lower_gamma,
    ln_lower_gamma_curvature,
    regularized_lower_gamma,
)

__all__ = [
    "FeasibilityError",
    "SystemParams",
    "Allocation",
    "SuccessBreakdown",
    "MonteCarloResult",
    "reference_params",
    "default_allocation",
    "assert_feasible",
    "transmission_success",
    "computation_success",
    "local_cycle_energy",
    "local_cycle_budget",
    "local_budget_rho",
    "local_success",
    "LogFactors",
    "log_factors",
    "allocation_log_factors",
    "success_breakdown",
    "monte_carlo_outage",
]

_FEAS_TOL = 1e-9


class FeasibilityError(ValueError):
    """An allocation violates one of the problem constraints."""


@dataclass(frozen=True)
class SystemParams:
    """Static description of one device and its reachable edge servers."""

    task_bits: float
    bandwidth_hz: float
    noise_w: float
    p_max_w: float
    mean_gains: tuple[float, ...]          # expected uplink channel gain per server
    local_speed_hz: float
    server_speeds_hz: tuple[float, ...]
    latency_budget_s: float
    energy_budget_j: float
    switched_capacitance: float            # CPU energy coefficient (J per cycle per Hz^2)
    workload: GammaWorkload

    def __post_init__(self) -> None:
        scalars = {
            "task_bits": self.task_bits,
            "bandwidth_hz": self.bandwidth_hz,
            "noise_w": self.noise_w,
            "p_max_w": self.p_max_w,
            "local_speed_hz": self.local_speed_hz,
            "latency_budget_s": self.latency_budget_s,
            "energy_budget_j": self.energy_budget_j,
            "switched_capacitance": self.switched_capacitance,
        }
        for name, v in scalars.items():
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if len(self.mean_gains) != len(self.server_speeds_hz):
            raise ValueError("mean_gains and server_speeds_hz must have equal length")
        if len(self.mean_gains) == 0:
            raise ValueError("at least one edge server is required")
        for g in self.mean_gains:
            if not (math.isfinite(g) and g > 0.0):
                raise ValueError(f"mean gains must be finite and > 0, got {g}")
        for s in self.server_speeds_hz:
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"server speeds must be finite and > 0, got {s}")

    @property
    def n_servers(self) -> int:
        return len(self.mean_gains)


def reference_params(
    n_servers: int = 2,
    task_mbits: float = 10.0,
    latency_s: float = 1.0,
    energy_j: float = 1.0,
) -> SystemParams:
    """Default measurement configuration used throughout the experiments.

    1 GHz local CPU, 5 GHz servers, 100 MHz uplink bandwidth, -90 dBm noise,
    1 W transmit cap, mean channel gains (11-m)*1e-7, and a Gamma(10, 50)
    cycles-per-bit workload.
    """
    return SystemParams(
        task_bits=task_mbits * 1e6,
        bandwidth_hz=1e8,
        noise_w=1e-9,
        p_max_w=1.0,
        mean_gains=tuple((11.0 - m) * 1e-7 for m in range(1, n_servers + 1)),
        local_speed_hz=1e9,
        server_speeds_hz=(5e9,) * n_servers,
        latency_budget_s=latency_s,
        energy_budget_j=energy_j,
        switched_capacitance=1e-27,
        workload=GammaWorkload(10.0, 50.0),
    )


@dataclass(frozen=True)
class Allocation:
    """One decision: task split, per-server airtime, transmit power, and the
    local compute budget ``rho`` (cycles the local CPU may spend)."""

    phi: tuple[float, ...]        # phi[0] local share, phi[m] share of server m
    t_shares: tuple[float, ...]   # uplink airtime per server, seconds
    power_w: float
    rho: float

    def __post_init__(self) -> None:
        if len(self.phi) < 2:
            raise ValueError("phi must hold a local share plus one share per server")
        if len(self.t_shares) != len(self.phi) - 1:
            raise ValueError("t_shares must hold exactly one entry per server")
        for v in self.phi:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"phi entries must be finite and >= 0, got {v}")
        if abs(sum(self.phi) - 1.0) > _FEAS_TOL:
            raise ValueError(f"phi must sum to 1 within {_FEAS_TOL}, got sum {sum(self.phi)!r}")
        for v in self.t_shares:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"time shares must be finite and >= 0, got {v}")
        if not (math.isfinite(self.power_w) and self.power_w > 0.0):
            raise ValueError(f"power must be finite and > 0, got {self.power_w}")
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")


def default_allocation(p: SystemParams, offload_only: bool = False) -> Allocation:
    """Nominal starting point: uniform split, half the latency budget spent on
    the uplink in equal shares, and the largest feasible ``rho``.

    The power is the cap, or less when transmitting at the cap for that half
    would spend more than half the energy budget: E / (2 * sum(T)), written
    as E / latency because the airtime is half the latency budget.  The start
    is therefore feasible for every valid problem.
    """
    m = p.n_servers
    if offload_only:
        phi = (0.0,) + (1.0 / m,) * m
    else:
        phi = (1.0 / (m + 1),) * (m + 1)
    t = (p.latency_budget_s / (2.0 * m),) * m
    power = min(p.p_max_w, p.energy_budget_j / p.latency_budget_s)
    rho = local_budget_rho(p, t, power)
    return Allocation(phi=phi, t_shares=t, power_w=power, rho=max(rho, 0.0))


def assert_feasible(p: SystemParams, alloc: Allocation, tol: float = _FEAS_TOL) -> None:
    """Raise :class:`FeasibilityError` on any constraint violation."""
    if len(alloc.phi) != p.n_servers + 1:
        raise FeasibilityError(
            f"allocation has {len(alloc.phi) - 1} server shares, expected {p.n_servers}"
        )
    if alloc.power_w > p.p_max_w * (1.0 + tol):
        raise FeasibilityError(f"power {alloc.power_w} exceeds cap {p.p_max_w}")
    total_t = sum(alloc.t_shares)
    if total_t >= p.latency_budget_s * (1.0 + tol):
        raise FeasibilityError(
            f"total airtime {total_t} leaves no compute slack within {p.latency_budget_s}"
        )
    for m in range(1, p.n_servers + 1):
        if alloc.phi[m] > tol and alloc.t_shares[m - 1] <= 0.0:
            raise FeasibilityError(f"server {m} receives work but zero airtime")
    rho_cap = local_budget_rho(p, alloc.t_shares, alloc.power_w)
    if rho_cap < -tol * p.energy_budget_j:
        raise FeasibilityError(
            "transmit energy alone exceeds the device energy budget "
            f"(power {alloc.power_w} W for {total_t} s)"
        )
    if alloc.rho > rho_cap + tol * max(1.0, abs(rho_cap)):
        raise FeasibilityError(f"rho {alloc.rho} exceeds its feasible cap {rho_cap}")


def transmission_success(
    p: SystemParams, m: int, phi_m: float, t_m: float, power_w: float
) -> float:
    """Probability that server m's share is delivered within its airtime.

    A zero share never needs the link (probability 1); a positive share with
    zero airtime can never be delivered (probability 0).
    """
    if not 1 <= m <= p.n_servers:
        raise ValueError(f"server index {m} out of range 1..{p.n_servers}")
    if phi_m <= 0.0:
        return 1.0
    if t_m <= 0.0:
        return 0.0
    x = p.task_bits * phi_m / (p.bandwidth_hz * t_m)
    y = power_w * p.mean_gains[m - 1] / p.noise_w
    return chi(x, y)


def computation_success(p: SystemParams, m: int, phi_m: float, time_slack: float) -> float:
    """Probability that server m finishes its share inside ``time_slack``
    seconds (the latency budget minus the airtime spent before it)."""
    if not 1 <= m <= p.n_servers:
        raise ValueError(f"server index {m} out of range 1..{p.n_servers}")
    if phi_m <= 0.0:
        return 1.0
    if time_slack <= 0.0:
        return 0.0
    w = p.workload
    u = p.server_speeds_hz[m - 1] * time_slack / (p.task_bits * phi_m * w.scale)
    return regularized_lower_gamma(w.shape, u)


def local_cycle_energy(p) -> float:
    """Joules per local CPU cycle, kappa * s0 * s0 (multiplied left to right),
    of a :class:`SystemParams` or of the devices of a ``MultiUserParams``."""
    return p.switched_capacitance * p.local_speed_hz * p.local_speed_hz


def local_cycle_budget(p, latency_s, energy_left_j):
    """Cycles the local CPU of ``p`` (as in :func:`local_cycle_energy`) may
    spend: the smaller of what fits in ``latency_s`` and what ``energy_left_j``
    pays for.  Elementwise over arrays; scalars keep the type ``min`` picks."""
    latency_cap = p.local_speed_hz * latency_s
    energy_cap = energy_left_j / local_cycle_energy(p)
    if isinstance(energy_cap, np.ndarray):
        return np.minimum(latency_cap, energy_cap)
    return min(latency_cap, energy_cap)


def local_budget_rho(p: SystemParams, t_shares, power_w: float) -> float:
    """Largest cycle count the local CPU may spend: the binding one of the
    latency budget and of the energy left after paying for the uplink."""
    total_t = float(np.sum(np.asarray(t_shares, dtype=float)))
    return local_cycle_budget(p, p.latency_budget_s, p.energy_budget_j - power_w * total_t)


def local_success(p: SystemParams, phi_0: float, rho: float) -> float:
    """Probability the local share finishes within the cycle budget ``rho``."""
    if phi_0 <= 0.0:
        return 1.0
    if rho <= 0.0:
        return 0.0
    w = p.workload
    u = rho / (p.task_bits * phi_0 * w.scale)
    return regularized_lower_gamma(w.shape, u)


class LogFactors(NamedTuple):
    """Log success factors of one allocation and the derivatives of their sum.

    ``link[m - 1]`` and ``server[m - 1]`` belong to server m; ``d_phi`` has
    one entry per share (local first) and ``d_t`` one per airtime.  A zero
    share contributes a log factor of 0; its link entry of ``d_phi`` is the
    one-sided derivative at zero, so ascent can bring the share back.

    The second derivatives are filled in only on request (``second_order``
    of :func:`log_factors`).  Each factor depends on one share, so the split
    Hessian is diagonal: ``h_phi`` holds it.  In the airtimes, link m
    depends on T_m alone and server m on the cumulative airtime
    T_1 + ... + T_m, so ``h_t`` (dense, one row per airtime) is a diagonal
    link term plus one all-ones block over the first m airtimes per server.
    """

    local: float
    link: list[float]
    server: list[float]
    d_phi: list[float]
    d_t: list[float]
    h_phi: list[float] | None = None
    h_t: np.ndarray | None = None

    @property
    def total(self) -> float:
        """ln P_success: the sum of every log factor."""
        return self.local + sum(self.link) + sum(self.server)


def log_factors(
    task_bits: float,
    bandwidth_hz: float,
    workload: GammaWorkload,
    deadline_s: float,
    speeds_hz: Sequence[float],
    cross_cycles: Sequence[float],
    snr: Sequence[float],
    phi,
    t_shares,
    rho: float,
    *,
    second_order: bool = False,
) -> LogFactors:
    """The one definition of the success factors and their derivatives.

    Server m's link succeeds with chi(x, snr[m - 1]) at spectral demand
    x = task_bits * phi[m] / (bandwidth * T_m); its computation succeeds with
    P(shape, u) where u counts, in units of the share's mean-scale demand,
    the cycles left to it before ``deadline_s``: the server speed times the
    slack after the airtime of servers 1..m, minus ``cross_cycles[m - 1]``
    claimed by others.  The local share succeeds with P(shape, u) at the
    cycle budget ``rho``, which is held fixed (its t-gradient is zero).  For
    a positive share, a link without airtime or power, a hopeless link
    (2**x past e**700, see :func:`~airalloc.special.ln_chi`) and a server
    without cycles left each get a log factor of -inf and add no gradient
    and no curvature.  ``second_order`` also fills ``h_phi`` and ``h_t``.
    """
    shape, scale = workload.shape, workload.scale
    n = len(t_shares)
    d_phi = [0.0] * (n + 1)
    d_t = [0.0] * n
    if second_order:
        h_phi = [0.0] * (n + 1)
        h_link = [0.0] * n
        h_server = [0.0] * n  # d^2 / ds_m^2 of server m at s_m = T_1 + ... + T_m

    phi0 = float(phi[0])
    if phi0 <= 0.0:
        ln_local = 0.0
    elif rho <= 0.0:
        ln_local = -math.inf
    else:
        u = rho / (task_bits * phi0 * scale)
        ln_local, r = ln_lower_gamma(shape, u)
        d_phi[0] = -r * u / phi0
        if second_order:
            # u = c / phi: u' = -u / phi, u'' = 2 u / phi^2.
            d2 = ln_lower_gamma_curvature(shape, u, r)
            h_phi[0] = (d2 * u + 2.0 * r) * u / (phi0 * phi0)

    link = [0.0] * n
    server = [0.0] * n
    elapsed = 0.0
    for m in range(1, n + 1):
        t_m = float(t_shares[m - 1])
        elapsed += t_m
        ph = float(phi[m])
        y = snr[m - 1]
        if t_m > 0.0 and y > 0.0:
            x = task_bits * max(ph, 0.0) / (bandwidth_hz * t_m)
            link[m - 1], dx = ln_chi(x, y)
            if link[m - 1] > -math.inf:
                d_phi[m] = dx * task_bits / (bandwidth_hz * t_m)
                d_t[m - 1] = -dx * x / t_m
                if second_order:
                    # x = c phi with c = bits / (bandwidth T); x' = -x / T and
                    # x'' = 2 x / T^2 in T.
                    d2 = ln_chi_curvature(dx)
                    c = task_bits / (bandwidth_hz * t_m)
                    h_phi[m] = d2 * c * c
                    h_link[m - 1] = (d2 * x + 2.0 * dx) * x / (t_m * t_m)
        elif ph > 0.0:
            link[m - 1] = -math.inf
        if ph <= 0.0:
            continue
        cycles = speeds_hz[m - 1] * (deadline_s - elapsed) - cross_cycles[m - 1]
        if cycles <= 0.0:
            server[m - 1] = -math.inf
            continue
        demand = task_bits * ph * scale
        u = cycles / demand
        server[m - 1], r = ln_lower_gamma(shape, u)
        d_phi[m] -= r * u / ph
        # Every airtime up to and including T_m shortens server m's slack.
        d_slack = r * speeds_hz[m - 1] / demand
        for k in range(m):
            d_t[k] -= d_slack
        if second_order:
            d2 = ln_lower_gamma_curvature(shape, u, r)
            h_phi[m] += (d2 * u + 2.0 * r) * u / (ph * ph)
            h_server[m - 1] = d2 * (speeds_hz[m - 1] / demand) ** 2
    if not second_order:
        return LogFactors(ln_local, link, server, d_phi, d_t)
    # Row k, column l: the link term on the diagonal plus the curvature of
    # every server whose cumulative airtime holds both T_k and T_l.
    tail = np.cumsum(h_server[::-1])[::-1]
    idx = np.arange(n)
    h_t = tail[np.maximum.outer(idx, idx)]
    h_t[idx, idx] += h_link
    return LogFactors(ln_local, link, server, d_phi, d_t, h_phi, h_t)


def allocation_log_factors(
    p: SystemParams, phi, t_shares, power_w: float, rho: float, *, second_order: bool = False
) -> LogFactors:
    """:func:`log_factors` of a single-user allocation (no cross load)."""
    return log_factors(
        p.task_bits,
        p.bandwidth_hz,
        p.workload,
        p.latency_budget_s,
        p.server_speeds_hz,
        (0.0,) * p.n_servers,
        [power_w * g / p.noise_w for g in p.mean_gains],
        phi,
        t_shares,
        rho,
        second_order=second_order,
    )


@dataclass(frozen=True)
class SuccessBreakdown:
    """Per-stage success probabilities for one allocation."""

    p_local: float
    p_transmit: tuple[float, ...]
    p_compute: tuple[float, ...]
    p_success: float
    p_outage: float
    ln_p_success: float


def success_breakdown(p: SystemParams, alloc: Allocation) -> SuccessBreakdown:
    """Evaluate every factor of the end-to-end success probability."""
    if len(alloc.phi) != p.n_servers + 1:
        raise FeasibilityError(
            f"allocation has {len(alloc.phi) - 1} server shares, expected {p.n_servers}"
        )
    f = allocation_log_factors(p, alloc.phi, alloc.t_shares, alloc.power_w, alloc.rho)
    ln_p = f.total
    p_sus = math.exp(ln_p)
    return SuccessBreakdown(
        p_local=math.exp(f.local),
        p_transmit=tuple(math.exp(v) for v in f.link),
        p_compute=tuple(math.exp(v) for v in f.server),
        p_success=p_sus,
        p_outage=1.0 - p_sus,
        ln_p_success=ln_p,
    )


@dataclass(frozen=True)
class MonteCarloResult:
    p_outage: float
    std_error: float
    n_trials: int


def monte_carlo_outage(
    p: SystemParams,
    alloc: Allocation,
    n_trials: int = 100_000,
    seed: int | None = None,
    speed_jitter: float = 0.0,
) -> MonteCarloResult:
    """Estimate the outage probability by direct event simulation.

    Channels are sampled as exponential gains, per-stage workloads as Gamma
    draws; a trial succeeds when every offloaded share is delivered and
    computed in time and the local share fits both the latency and energy
    budgets.  ``speed_jitter`` of j rescales each server speed by an
    independent Uniform[1-j, 1+j] factor per trial, modelling execution-speed
    uncertainty; the analytic model knows nothing about it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0.0 <= speed_jitter < 1.0:
        raise ValueError("speed_jitter must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    n_srv = p.n_servers
    phi = np.asarray(alloc.phi, dtype=float)
    t_shares = np.asarray(alloc.t_shares, dtype=float)
    elapsed = np.cumsum(t_shares)
    w = p.workload

    gains = rng.exponential(scale=np.asarray(p.mean_gains), size=(n_trials, n_srv))
    kappa_srv = rng.gamma(w.shape, w.scale, size=(n_trials, n_srv))
    kappa_loc = rng.gamma(w.shape, w.scale, size=n_trials)
    speeds = np.asarray(p.server_speeds_hz, dtype=float)
    if speed_jitter > 0.0:
        speeds = speeds * rng.uniform(1.0 - speed_jitter, 1.0 + speed_jitter, size=(n_trials, n_srv))

    ok = np.ones(n_trials, dtype=bool)
    # Offloaded shares: deliverable bits within the airtime, then compute in the slack.
    snr = alloc.power_w * gains / p.noise_w
    deliverable = t_shares * p.bandwidth_hz * np.log2(1.0 + snr)
    share_bits = p.task_bits * phi[1:]
    finish = elapsed + share_bits * kappa_srv / speeds
    active = phi[1:] > 0.0
    if np.any(active):
        ok &= np.all(deliverable[:, active] >= share_bits[active], axis=1)
        ok &= np.all(finish[:, active] <= p.latency_budget_s, axis=1)
    # Local share: the cycle demand must fit inside the joint latency/energy budget.
    if phi[0] > 0.0:
        ok &= kappa_loc * p.task_bits * phi[0] <= alloc.rho
    p_hat = 1.0 - float(np.mean(ok))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n_trials)
    return MonteCarloResult(p_outage=p_hat, std_error=se, n_trials=int(n_trials))
