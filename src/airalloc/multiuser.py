"""Multi-user extension of the task-splitting model as a stochastic game.

``N`` devices share the same ``M`` edge servers.  Concurrent uplinks leak
interference into each other, server cycles are shared, and every device
carries a battery that drains slot by slot.  The resulting decision problem
(one allocation matrix per slot, maximizing a weighted sum of per-user
log-success) is wrapped as a Markov decision process with a finite,
enumerable action grid so that value-based learners can be trained on it.

State, dynamics, and reward follow a few explicit modeling choices that the
analytic single-user model does not pin down; they are documented on the
functions below.  The most consequential one: other users' random per-bit
workloads enter a given user's computation-success factor at their *mean*
(``shape * scale`` cycles per bit), which keeps the factor a closed-form
lower-incomplete-gamma expression.  The Monte-Carlo oracle in the test suite
samples those workloads instead, so the size of the mean-field gap is
measured rather than assumed away.

A slot's state and joint action are frozen dataclasses of tuples of Python
floats, from the environment's draws to the reward, so the environment hands
out its state without copies; ``success_vector`` and ``spent_energy``
return lists, summed by ``model._total`` as every float sum in the package
is.  numpy appears only in the random draws, in ``state_vector`` (the value
network's input) and in the joint action table of :class:`ActionGrid`,
whose ``decode`` hands out a row as tuples.  Because a slot's objects are
immutable, ``success_vector`` remembers its last scoring by the identity of
its arguments: a rollout scores each slot and the reward scores it again
with the same objects, and the second scoring costs nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _FEAS_TOL,
    _total,
    FeasibilityError,
    SystemParams,
    local_cycle_budget,
    local_cycle_energy,
    log_factors,
    reference_params,
)
from .special import GammaWorkload

__all__ = [
    "ActionSpaceError",
    "MultiUserParams",
    "MultiUserState",
    "MultiUserAction",
    "default_multiuser",
    "success_vector",
    "violations",
    "spent_energy",
    "state_vector",
    "MultiUserEnv",
    "ActionGrid",
    "grid_steps",
    "action_options",
    "enumerate_actions",
]

_LN_FLOOR = math.log(1e-12)
_PENALTY = -10.0
_TIME_FRACS = (0.25, 0.5)   # airtime levels per server, fractions of the slot
_POWER_FRACS = (0.5, 1.0)   # power levels, fractions of each user's cap
_MAX_ACTIONS = 200_000      # cap on the joint grid's combinations before filtering


class ActionSpaceError(ValueError):
    """The requested action grid is too large to enumerate jointly or has no feasible action."""


@dataclass(frozen=True)
class MultiUserParams:
    """Static description of ``n_users`` devices sharing ``M`` edge servers.

    Per-user quantities are tuples of length ``n_users``; ``mean_gains`` is a
    tuple of per-user rows, one expected uplink gain per server.  ``slot_s``
    is the slot duration every user's airtime must fit into, ``capacities_s``
    the per-slot compute-time budget of each server, and ``energy_weight``
    the price attached to normalized per-slot energy spend in the reward.
    """

    task_bits: tuple[float, ...]            # nominal L_n, refreshed each slot
    latency_budgets_s: tuple[float, ...]
    energy_budgets_j: tuple[float, ...]     # per-slot energy allowance
    p_max_w: tuple[float, ...]
    weights: tuple[float, ...]
    mean_gains: tuple[tuple[float, ...], ...]
    bandwidth_hz: float
    noise_w: float
    local_speed_hz: float
    server_speeds_hz: tuple[float, ...]
    capacities_s: tuple[float, ...]
    slot_s: float
    switched_capacitance: float
    energy_weight: float
    energy_capacity_j: tuple[float, ...]    # battery size E_max,n
    workload: GammaWorkload
    task_range_bits: tuple[float, float] = (5e6, 30e6)

    def __post_init__(self) -> None:
        n = len(self.task_bits)
        if n == 0:
            raise ValueError("at least one user is required")
        for name in ("latency_budgets_s", "energy_budgets_j", "p_max_w", "weights",
                     "mean_gains", "energy_capacity_j"):
            k = len(getattr(self, name))
            if k != n:
                raise ValueError(f"{name} must have one entry per user ({n}), got {k}")
        if len(self.capacities_s) != len(self.server_speeds_hz):
            raise ValueError("capacities_s must have one entry per server")
        for k in range(n):
            self.device(k)  # checks every shared device field
        if not (math.isfinite(self.slot_s) and self.slot_s > 0.0):
            raise ValueError(f"slot_s must be finite and > 0, got {self.slot_s}")
        if not (math.isfinite(self.energy_weight) and self.energy_weight >= 0.0):
            raise ValueError("energy_weight must be finite and >= 0")
        for name in ("weights", "capacities_s", "energy_capacity_j"):
            for v in getattr(self, name):
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"{name} entries must be finite and > 0, got {v}")
        lo, hi = self.task_range_bits
        if not (0.0 < lo <= hi < math.inf):
            raise ValueError(f"task_range_bits must satisfy 0 < lo <= hi < inf, got {self.task_range_bits}")

    @property
    def n_users(self) -> int:
        return len(self.task_bits)

    @property
    def n_servers(self) -> int:
        return len(self.server_speeds_hz)

    def device(self, n: int) -> SystemParams:
        """User n's single-user problem on the shared servers, at its
        nominal task size and per-slot energy allowance."""
        return SystemParams(
            task_bits=self.task_bits[n],
            bandwidth_hz=self.bandwidth_hz,
            noise_w=self.noise_w,
            p_max_w=self.p_max_w[n],
            mean_gains=tuple(self.mean_gains[n]),
            local_speed_hz=self.local_speed_hz,
            server_speeds_hz=tuple(self.server_speeds_hz),
            latency_budget_s=self.latency_budgets_s[n],
            energy_budget_j=self.energy_budgets_j[n],
            switched_capacitance=self.switched_capacitance,
            workload=self.workload,
        )


def default_multiuser(n_users: int = 2, n_servers: int = 1) -> MultiUserParams:
    """Measurement configuration for the shared-server experiments: the
    single-user reference device (:func:`model.reference_params`) replicated
    per user, unit priority weights, a one-second slot, a 50 J battery, and
    per server a compute-time budget of 1.5 x 30e6 over its speed: 1.5
    times the top of the default task range (30 Mbit), fixed, so a config's
    ``task_range_mbits`` does not rescale it."""
    ref = reference_params(n_servers)
    task_hi = 30e6
    return MultiUserParams(
        task_bits=(ref.task_bits,) * n_users,
        latency_budgets_s=(ref.latency_budget_s,) * n_users,
        energy_budgets_j=(ref.energy_budget_j,) * n_users,
        p_max_w=(ref.p_max_w,) * n_users,
        weights=(1.0,) * n_users,
        mean_gains=(ref.mean_gains,) * n_users,
        bandwidth_hz=ref.bandwidth_hz,
        noise_w=ref.noise_w,
        local_speed_hz=ref.local_speed_hz,
        server_speeds_hz=ref.server_speeds_hz,
        capacities_s=tuple(1.5 * task_hi / s for s in ref.server_speeds_hz),
        slot_s=1.0,
        switched_capacitance=ref.switched_capacitance,
        energy_weight=0.1,
        energy_capacity_j=(50.0,) * n_users,
        workload=ref.workload,
    )


@dataclass(frozen=True)
class MultiUserState:
    """Observable system snapshot at the start of a slot, as tuples of
    Python floats.

    ``task_bits`` are this slot's job sizes, ``gains`` the realized uplink
    gains (N rows of M), ``queues`` the per-server backlog in pending cycles,
    and ``energies`` the per-user battery levels in joules.
    """

    task_bits: tuple[float, ...]
    gains: tuple[tuple[float, ...], ...]
    queues: tuple[float, ...]
    energies: tuple[float, ...]


@dataclass(frozen=True)
class MultiUserAction:
    """One joint decision, as tuples of Python floats: task split rows
    ``phi`` (N rows of M+1, local share first), airtime rows ``t`` (N rows
    of M), and transmit powers (N)."""

    phi: tuple[tuple[float, ...], ...]
    t: tuple[tuple[float, ...], ...]
    power: tuple[float, ...]


def _check_dims(mp: MultiUserParams, action: MultiUserAction) -> None:
    n, m = mp.n_users, mp.n_servers
    for name, rows, width in (("phi", action.phi, m + 1), ("t", action.t, m)):
        if len(rows) != n or any(len(row) != width for row in rows):
            raise FeasibilityError(f"{name} must be {n} rows of {width} entries")
    if len(action.power) != n:
        raise FeasibilityError(f"power must have {n} entries, got {len(action.power)}")


def _tuples(a: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Rows of a 2-D array as tuples of Python floats."""
    return tuple(map(tuple, a.tolist()))


def _server_loads(mp: MultiUserParams, bits, phi) -> list[list[float]]:
    """Cycles each user's server shares claim, at the mean per-bit workload."""
    mean = mp.workload.mean
    return [[b * ph * mean for ph in phi_n[1:]] for b, phi_n in zip(bits, phi)]


# The last scoring, as (mp, state, action, successes).  A rollout slot is
# scored twice with the same three objects, by the rollout loop and by the
# reward in `MultiUserEnv.step`, and all three are frozen tuples of floats,
# so the same objects always give the same successes.  The entry holds its
# objects, so their identities cannot be reused while it stands.  It goes
# once `step` hands the slot's successes back to the rollout loop.
_last_scored: tuple = (None, None, None, ())


def success_vector(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> list[float]:
    """Every user's end-to-end success probability under the joint action.

    Each user's factors are the single-user ones (:func:`model.log_factors`)
    with two couplings.  The link SNR is P * g / (noise + I), I being the
    realized power of every other user transmitting to the same server.  The
    server's cycles before the deadline are reduced by the cycles other
    users' shares on it are expected to claim, each at the mean per-bit
    workload; a non-positive residual gives probability 0 rather than an
    error, so that reward surfaces stay continuous.  A zero share needs no
    link (probability 1); a positive share with no airtime or power cannot
    be delivered.

    A call with the very objects of the previous call returns its values
    again, as a new list, without recomputing them.
    """
    global _last_scored
    last_mp, last_state, last_action, last = _last_scored
    if last_mp is mp and last_state is state and last_action is action:
        return list(last)
    _check_dims(mp, action)
    rx = [[p * g if ph > 0.0 else 0.0 for g, ph in zip(g_n, phi_n[1:])]
          for p, g_n, phi_n in zip(action.power, state.gains, action.phi)]
    loads = _server_loads(mp, state.task_bits, action.phi)
    rx_total = [_total(col) for col in zip(*rx)]
    load_total = [_total(col) for col in zip(*loads)]
    rows = zip(state.task_bits, action.phi, action.t, action.power, mp.mean_gains, rx, loads,
               mp.latency_budgets_s, mp.energy_budgets_j, state.energies)
    out = []
    for b, phi_n, t_n, p, gains_n, rx_n, load_n, deadline, budget, energy in rows:
        snr = [p * g / (mp.noise_w + max(s - r, 0.0)) for g, s, r in zip(gains_n, rx_total, rx_n)]
        cross = [s - c for s, c in zip(load_total, load_n)]
        # Local cycle budget after the uplink bill; the per-slot energy
        # allowance is additionally capped by the battery's remaining charge.
        rho = local_cycle_budget(mp, deadline, min(budget, energy) - p * _total(t_n))
        out.append(math.exp(log_factors(b, mp.bandwidth_hz, mp.workload, deadline, mp.server_speeds_hz,
                                        cross, snr, phi_n, t_n, rho, order=0).total))
    _last_scored = (mp, state, action, tuple(out))
    return out


def violations(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> list[str]:
    """Names of the joint constraints the action breaks, empty if feasible.

    Checked: per-user share rows on the simplex, per-server airtime budget,
    per-server compute capacity against this slot's task sizes, and per-user
    power caps.  Each violated constraint is reported once; a NaN entry
    fails every check it enters.
    """
    _check_dims(mp, action)
    phi, t = action.phi, action.t
    out: list[str] = []
    for n, (phi_n, t_n, p, cap) in enumerate(zip(phi, t, action.power, mp.p_max_w), start=1):
        if not (all(v >= -_FEAS_TOL for v in phi_n) and abs(_total(phi_n) - 1.0) <= 1e-6):
            out.append(f"share row of user {n} off the simplex")
        if not all(v >= -_FEAS_TOL for v in t_n):
            out.append(f"negative airtime for user {n}")
        if not 0.0 <= p <= cap + _FEAS_TOL:
            out.append(f"power of user {n} outside [0, {cap}]")
    for m, (speed, capacity) in enumerate(zip(mp.server_speeds_hz, mp.capacities_s), start=1):
        if not _total(t_n[m - 1] for t_n in t) <= mp.slot_s + _FEAS_TOL:
            out.append(f"airtime on server {m} over the slot budget")
        if not _total(b * phi_n[m] for b, phi_n in zip(state.task_bits, phi)) / speed <= capacity + _FEAS_TOL:
            out.append(f"compute load on server {m} over capacity")
    return out


def spent_energy(mp: MultiUserParams, state: MultiUserState, action: MultiUserAction) -> list[float]:
    """Per-user energy bill for the slot: uplink power times total airtime
    plus local-compute energy at the mean per-bit workload."""
    per_cycle = local_cycle_energy(mp)
    mean = mp.workload.mean
    return [p * _total(t_n) + per_cycle * (b * phi_n[0] * mean)
            for p, t_n, b, phi_n in zip(action.power, action.t, state.task_bits, action.phi)]


def _feasible_reward(mp: MultiUserParams, breakdowns: list[float], energies: list[float]) -> float:
    lnp = [max(math.log(p), _LN_FLOOR) if p > 0.0 else _LN_FLOOR for p in breakdowns]
    spend = _total(e / c for e, c in zip(energies, mp.energy_capacity_j))
    return _total(w * lp for w, lp in zip(mp.weights, lnp)) - mp.energy_weight * spend


def state_vector(mp: MultiUserParams, state: MultiUserState) -> np.ndarray:
    """Flat observation for a value network, all features roughly unit scale:
    task sizes over the sampling range, gains over their means, queue backlog
    saturating against one slot of service, and battery fractions."""
    lo, hi = mp.task_range_bits
    tasks = (np.array(state.task_bits) - lo) / max(hi - lo, 1e-300)
    gains = np.array(state.gains) / np.asarray(mp.mean_gains, dtype=float)
    backlog = np.array(state.queues)
    queues = backlog / (backlog + np.asarray(mp.server_speeds_hz, dtype=float) * mp.slot_s)
    energy = np.array(state.energies) / np.asarray(mp.energy_capacity_j, dtype=float)
    return np.concatenate([tasks, gains.ravel(), queues, energy])


class MultiUserEnv:
    """Slotted environment: apply a joint action, collect the reward, draw the
    next slot's channel and task randomness from an owned generator.

    Dynamics per slot: channel gains are redrawn i.i.d. exponential at their
    per-pair means (block fading, no coherence across slots), task sizes are
    redrawn uniformly from ``task_range_bits``, each server's backlog grows by
    the cycles assigned to it (at the mean per-bit workload) and shrinks by
    one slot of service, and each battery pays the slot's energy bill.  A
    battery hitting empty terminates the episode.  Infeasible actions are
    rejected by the reward but still advance time: nothing is assigned, no
    energy is spent, queues drain by service only.
    """

    def __init__(self, mp: MultiUserParams, seed: int | None = None):
        self.mp = mp
        self._rng = np.random.default_rng(seed)
        self.state: MultiUserState | None = None
        self._mean_gains = np.asarray(mp.mean_gains, dtype=float)
        self._served = [s * mp.slot_s for s in mp.server_speeds_hz]  # cycles per slot

    def _draw(self) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """This slot's task sizes and channel gains."""
        lo, hi = self.mp.task_range_bits
        bits = self._rng.uniform(lo, hi, size=self.mp.n_users)
        # Standard exponentials times the means: the draws of
        # exponential(means), without its per-call argument checks.
        gains = self._rng.standard_exponential(self._mean_gains.shape) * self._mean_gains
        return tuple(bits.tolist()), _tuples(gains)

    def reset(self, seed: int | None = None) -> MultiUserState:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        mp = self.mp
        self.state = MultiUserState(*self._draw(), queues=(0.0,) * mp.n_servers,
                                    energies=tuple(map(float, mp.energy_capacity_j)))
        return self.state

    def step(self, action: MultiUserAction) -> tuple[MultiUserState, float, bool]:
        if self.state is None:
            raise RuntimeError("environment must be reset before stepping")
        mp = self.mp
        state = self.state
        # Reward: weighted log-success, each user's clamped at ln(1e-12) so a
        # zero-probability user costs a large but finite amount, minus the
        # normalized energy bill; an infeasible action earns a fixed penalty
        # per violated constraint instead.
        broken = violations(mp, state, action)
        if broken:
            r = _PENALTY * len(broken)
            bill = [0.0] * mp.n_users
            assigned = [0.0] * mp.n_servers
        else:
            bill = spent_energy(mp, state, action)
            r = _feasible_reward(mp, success_vector(mp, state, action), bill)
            assigned = [_total(col) for col in zip(*_server_loads(mp, state.task_bits, action.phi))]

        energies = tuple(max(e - b, 0.0) for e, b in zip(state.energies, bill))
        queues = tuple(max(q + a - s, 0.0) for q, a, s in zip(state.queues, assigned, self._served))
        self.state = MultiUserState(*self._draw(), queues=queues, energies=energies)
        return self.state, r, any(e <= 0.0 for e in energies)


def grid_steps(granularity: float) -> int:
    """Number of share steps ``1 / granularity``; the granularity must lie in
    (0, 1] and divide 1."""
    if not 0.0 < granularity <= 1.0:
        raise ValueError(f"granularity must lie in (0, 1], got {granularity}")
    k = round(1.0 / granularity)
    if abs(k * granularity - 1.0) > 1e-9:
        raise ValueError(f"granularity must divide 1, got {granularity}")
    return k


def _share_rows(n_servers: int, granularity: float) -> list[tuple[float, ...]]:
    k = grid_steps(granularity)
    rows = []
    for cuts in itertools.combinations(range(k + n_servers), n_servers):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(k + n_servers - 1 - prev)
        rows.append(tuple(c / k for c in counts))
    return rows


@dataclass
class ActionGrid:
    """Finite joint action space as one table: action i is row i of ``phi``
    (K x N x (M+1)), ``t`` (K x N x M) and ``power`` (K x N)."""

    granularity: float
    phi: np.ndarray
    t: np.ndarray
    power: np.ndarray

    @property
    def size(self) -> int:
        return self.phi.shape[0]

    def decode(self, idx: int) -> MultiUserAction:
        if not 0 <= idx < self.size:
            raise IndexError(f"action index {idx} outside [0, {self.size})")
        return MultiUserAction(_tuples(self.phi[idx]), _tuples(self.t[idx]),
                               tuple(self.power[idx].tolist()))

    def encode(self, action: MultiUserAction) -> int:
        """Index of the grid point the action sits on: equal share counts on
        the granularity lattice, airtimes and powers equal to 12 decimals."""
        phi, t, power = np.array(action.phi), np.array(action.t), np.array(action.power)
        if (phi.shape, t.shape, power.shape) == (
                self.phi.shape[1:], self.t.shape[1:], self.power.shape[1:]):
            k = grid_steps(self.granularity)
            hit = (np.all(np.rint(self.phi * k) == np.rint(phi * k), axis=(1, 2))
                   & np.all(np.round(self.t, 12) == np.round(t, 12), axis=(1, 2))
                   & np.all(np.round(self.power, 12) == np.round(power, 12), axis=1))
            found = np.flatnonzero(hit)
            if found.size:
                return int(found[0])
        raise ValueError("action is not a point of this grid")


def action_options(mp: MultiUserParams, granularity: float) -> tuple[int, int, int]:
    """Each user's option counts on the joint action grid: share rows on the
    ``granularity`` simplex grid, airtime rows and power levels.  Raises
    :class:`ActionSpaceError` when the joint grid has more than
    ``_MAX_ACTIONS`` combinations before filtering, or none after it (every
    user at the lowest airtime level overfills the slot), without enumerating."""
    m = mp.n_servers
    per_user = (math.comb(grid_steps(granularity) + m, m), len(_TIME_FRACS) ** m,
                len(_POWER_FRACS))
    total = math.prod(per_user) ** mp.n_users
    if total > _MAX_ACTIONS:
        raise ActionSpaceError(
            f"joint action grid has {total} combinations before filtering, over the "
            f"cap of {_MAX_ACTIONS}; coarsen the grid or switch to factored per-user "
            f"action selection (enumerate each user's options separately)"
        )
    if _total([min(_TIME_FRACS) * mp.slot_s] * mp.n_users) > mp.slot_s + _FEAS_TOL:
        raise ActionSpaceError(
            "no jointly feasible action: per-user airtime levels cannot share the slot; "
            "lower _TIME_FRACS or switch to factored per-user action selection"
        )
    return per_user


def enumerate_actions(mp: MultiUserParams, granularity: float) -> ActionGrid:
    """Enumerate the joint discretized action space.

    Each user picks a share row on the ``granularity`` simplex grid, one
    airtime level per server (``_TIME_FRACS`` of the slot), and one power
    level (``_POWER_FRACS`` of the user's cap); the joint table keeps only
    combinations whose summed airtime fits the slot on every server.  Server
    capacity depends on the slot's task sizes, so it is left to the reward
    penalty.  Actions are ordered as nested loops over users (user 1
    slowest), each user's option running over share row, then airtime row,
    then power level.  Raises as :func:`action_options` does.
    """
    n, m = mp.n_users, mp.n_servers
    per_user = action_options(mp, granularity)
    rows = np.array(_share_rows(m, granularity))
    levels = np.array(_TIME_FRACS) * mp.slot_s
    t_rows = levels[np.indices((len(levels),) * m).reshape(m, -1).T]

    combos = np.indices((math.prod(per_user),) * n).reshape(n, -1).T
    share, airtime, level = np.unravel_index(combos, per_user)
    t = t_rows[airtime]
    keep = ~np.any(t.sum(axis=1) > mp.slot_s + _FEAS_TOL, axis=1)
    powers = np.array(_POWER_FRACS)[None, :] * np.asarray(mp.p_max_w, dtype=float)[:, None]
    return ActionGrid(granularity, rows[share[keep]], t[keep],
                      powers[np.arange(n), level[keep]])
