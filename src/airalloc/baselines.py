"""Reference policies the optimized and learned allocators are compared to.

Single-user side: a full-offloading allocator (local share pinned to zero,
everything else optimized by the same block-coordinate machinery).  Multi-user
side: four classical schedulers that divide the slot's airtime and server
capacity by fixed rules, plus rollout helpers that score any policy in the
stochastic environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .multiuser import (
    ActionGrid,
    MultiUserAction,
    MultiUserEnv,
    MultiUserParams,
    MultiUserState,
    spent_energy,
    state_vector,
    success_vector,
)
from .solver import BcdResult, bcd_solve

__all__ = [
    "SCHEDULER_KINDS",
    "baseline_full_offload",
    "scheduler_action",
    "schedulers",
    "scheduler_nominal_rates",
    "EvalResult",
    "evaluate_policy",
    "random_policy",
    "greedy_policy",
]

SCHEDULER_KINDS = ("round_robin", "weighted", "max_min", "proportional")


def baseline_full_offload(p: SystemParams, variant: str = "mm2") -> BcdResult:
    """Best allocation with the local share forced to zero: every bit goes to
    some edge server.  Shares, times, and power are optimized as usual."""
    return bcd_solve(p, variant=variant, offload_only=True)


def _fraction_action(mp: MultiUserParams, state: MultiUserState, fracs: np.ndarray) -> MultiUserAction:
    """Turn per-server resource fractions ``fracs[n, m-1]`` (each column
    summing to at most 1) into a feasible action: user n gets its fraction of
    server m's airtime and capacity, offloading greedily server by server
    until its task is placed."""
    n_users, m_srv = mp.n_users, mp.n_servers
    phi = np.zeros((n_users, m_srv + 1))
    phi[:, 0] = 1.0
    t = np.zeros((n_users, m_srv))
    for n in range(n_users):
        for m in range(1, m_srv + 1):
            bits_cap = fracs[n, m - 1] * mp.capacities_s[m - 1] * mp.server_speeds_hz[m - 1]
            share = min(float(phi[n, 0]), bits_cap / float(state.task_bits[n]))
            phi[n, m] += share
            phi[n, 0] -= share
            if phi[n, m] > 0.0:
                # Airtime only where something is actually sent; half the
                # granted window stays free so the server can still compute.
                t[n, m - 1] = 0.5 * fracs[n, m - 1] * mp.slot_s
    return MultiUserAction(phi, t, np.asarray(mp.p_max_w, dtype=float))


def _max_min_fractions(mp: MultiUserParams, state: MultiUserState) -> np.ndarray:
    """Raise every user's served task fraction together until the fraction
    budget runs out, freezing users whose whole task fits."""
    total_bits = sum(c * s for c, s in zip(mp.capacities_s, mp.server_speeds_hz))
    tasks = np.asarray(state.task_bits, dtype=float)
    f = np.zeros(mp.n_users)
    served = np.zeros(mp.n_users)
    budget = 1.0
    active = list(range(mp.n_users))
    while active and budget > 1e-12:
        rate = sum(tasks[n] / total_bits for n in active)
        dr = min(min(1.0 - served[n] for n in active), budget / rate)
        if dr <= 0.0:
            break
        for n in active:
            f[n] += dr * tasks[n] / total_bits
            served[n] += dr
        budget -= dr * rate
        active = [n for n in active if served[n] < 1.0 - 1e-12]
    return f


def scheduler_action(kind: str, mp: MultiUserParams, state: MultiUserState, slot: int) -> MultiUserAction:
    """Action the named scheduling rule takes in the given slot.

    round_robin rotates exclusive server assignment across users slot by
    slot; the remaining rules split every resource by fixed per-user
    fractions: weighted by priority weight, proportional by weight times
    task size, max_min by equalizing served task fractions.
    """
    if kind == "round_robin":
        fracs = np.zeros((mp.n_users, mp.n_servers))
        servers = np.arange(mp.n_servers)
        fracs[(slot + servers) % mp.n_users, servers] = 1.0
        return _fraction_action(mp, state, fracs)
    if kind == "weighted":
        w = np.asarray(mp.weights, dtype=float)
        fracs = w / w.sum()
    elif kind == "proportional":
        wl = np.asarray(mp.weights, dtype=float) * np.asarray(state.task_bits, dtype=float)
        fracs = wl / wl.sum()
    elif kind == "max_min":
        fracs = _max_min_fractions(mp, state)
    else:
        raise ValueError(f"unknown scheduler kind {kind!r}, expected one of {SCHEDULER_KINDS}")
    return _fraction_action(mp, state, np.repeat(fracs[:, None], mp.n_servers, axis=1))


def schedulers(
    kind: str,
    mp: MultiUserParams,
    episodes: int = 50,
    seed: int = 0,
    steps_per_episode: int = 20,
) -> np.ndarray:
    """Per-user mean success probability of the named rule over seeded
    rollouts of the stochastic environment."""
    def policy(state: MultiUserState, slot: int) -> MultiUserAction:
        return scheduler_action(kind, mp, state, slot)

    return evaluate_policy(MultiUserEnv(mp), policy, episodes, steps_per_episode,
                           seed=seed).per_user_success


def scheduler_nominal_rates(kind: str, mp: MultiUserParams) -> np.ndarray:
    """Per-user success of the rule on the nominal deterministic state (mean
    gains, configured task sizes, full batteries), averaged over one full
    rotation of slots.  Symmetric users under round_robin come out exactly
    equal, which pins the fairness index at 1."""
    state = MultiUserState(
        task_bits=np.asarray(mp.task_bits, dtype=float),
        gains=np.asarray(mp.mean_gains, dtype=float),
        queues=np.zeros(mp.n_servers),
        energies=np.asarray(mp.energy_capacity_j, dtype=float),
    )
    slots = [success_vector(mp, state, scheduler_action(kind, mp, state, k))
             for k in range(mp.n_users)]
    # fsum rounds once, so the result does not depend on the order of the
    # slots: symmetric users see the same numbers in a rotated order.
    return np.array([math.fsum(user) for user in zip(*slots)]) / mp.n_users


@dataclass
class EvalResult:
    """Rollout summary of one policy."""

    mean_reward: float
    se_reward: float               # standard error of the per-episode totals
    mean_success: float            # over users and slots
    per_user_success: np.ndarray
    episodes: int
    bits_completed: float          # expected completed bits, summed over slots
    energy_j: float                # energy bill of every action taken, rejected ones too


def evaluate_policy(
    env: MultiUserEnv,
    policy,
    episodes: int,
    steps_per_episode: int,
    seed: int = 0,
) -> EvalResult:
    """Score ``policy(state, slot) -> MultiUserAction`` over seeded episodes."""
    if episodes < 1 or steps_per_episode < 1:
        raise ValueError(
            f"episodes and steps_per_episode must be >= 1, got {episodes}, {steps_per_episode}")
    mp = env.mp
    seeds = np.random.SeedSequence(seed).generate_state(episodes)
    ep_rewards = []
    success_sum = np.zeros(mp.n_users)
    bits = joules = 0.0
    slots = 0
    for ep in range(episodes):
        state = env.reset(seed=int(seeds[ep]))
        total = 0.0
        for k in range(steps_per_episode):
            action = policy(state, k)
            success = success_vector(mp, state, action)
            success_sum += success
            bits += float(np.sum(state.task_bits * success))
            joules += float(np.sum(spent_energy(mp, state, action)))
            slots += 1
            state, r, done = env.step(action)
            total += r
            if done:
                break
        ep_rewards.append(total)
    rewards = np.asarray(ep_rewards)
    se = float(rewards.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    per_user = success_sum / slots
    return EvalResult(
        mean_reward=float(rewards.mean()),
        se_reward=se,
        mean_success=float(per_user.mean()),
        per_user_success=per_user,
        episodes=episodes,
        bits_completed=bits,
        energy_j=joules,
    )


def random_policy(grid: ActionGrid, seed: int = 0):
    """Uniform choice over the action grid (owns its generator)."""
    rng = np.random.default_rng(seed)

    def policy(state, slot):
        return grid.decode(int(rng.integers(grid.size)))

    return policy


def greedy_policy(theta, grid: ActionGrid, mp: MultiUserParams):
    """Always the argmax action of the given Q-network."""
    from .dqn import q_forward

    def policy(state, slot):
        q = q_forward(theta, state_vector(mp, state))
        return grid.decode(int(np.argmax(q)))

    return policy
