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

from .model import SystemParams, _total
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


def _fraction_action(mp: MultiUserParams, state: MultiUserState, fracs: list[list[float]]) -> MultiUserAction:
    """Turn per-server resource fractions ``fracs[n][m-1]`` (each column
    summing to at most 1) into a feasible action: user n gets its fraction of
    server m's airtime and capacity, offloading greedily server by server
    until its task is placed."""
    phi, t = [], []
    for f_n, bits in zip(fracs, state.task_bits):
        local = 1.0
        shares, times = [], []
        for f, capacity, speed in zip(f_n, mp.capacities_s, mp.server_speeds_hz):
            share = min(local, f * capacity * speed / bits)
            local -= share
            shares.append(share)
            # Airtime only where something is actually sent; half the
            # granted window stays free so the server can still compute.
            times.append(0.5 * f * mp.slot_s if share > 0.0 else 0.0)
        phi.append((local, *shares))
        t.append(tuple(times))
    return MultiUserAction(tuple(phi), tuple(t), tuple(map(float, mp.p_max_w)))


def _max_min_fractions(mp: MultiUserParams, tasks: tuple[float, ...]) -> list[float]:
    """Raise every user's served task fraction together until the fraction
    budget runs out, freezing users whose whole task fits."""
    total_bits = _total(c * s for c, s in zip(mp.capacities_s, mp.server_speeds_hz))
    f = [0.0] * mp.n_users
    served = [0.0] * mp.n_users
    budget = 1.0
    active = list(range(mp.n_users))
    while active and budget > 1e-12:
        rate = _total(tasks[n] / total_bits for n in active)
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
        # Server m goes wholly to user (slot + m) mod N, both counted from 0.
        return _fraction_action(mp, state, [
            [1.0 if (slot + m) % mp.n_users == n else 0.0 for m in range(mp.n_servers)]
            for n in range(mp.n_users)
        ])
    if kind == "max_min":
        fracs = _max_min_fractions(mp, state.task_bits)
    elif kind in ("weighted", "proportional"):
        claims = list(mp.weights)
        if kind == "proportional":
            claims = [w * b for w, b in zip(claims, state.task_bits)]
        total = _total(claims)
        fracs = [c / total for c in claims]
    else:
        raise ValueError(f"unknown scheduler kind {kind!r}, expected one of {SCHEDULER_KINDS}")
    return _fraction_action(mp, state, [[f] * mp.n_servers for f in fracs])


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
    success_sum = [0.0] * mp.n_users
    bits = joules = 0.0
    slots = 0
    for ep in range(episodes):
        state = env.reset(seed=int(seeds[ep]))
        total = 0.0
        for k in range(steps_per_episode):
            action = policy(state, k)
            success = success_vector(mp, state, action)
            success_sum = [s + p for s, p in zip(success_sum, success)]
            bits += _total(b * p for b, p in zip(state.task_bits, success))
            joules += _total(spent_energy(mp, state, action))
            slots += 1
            state, r, done = env.step(action)
            total += r
            if done:
                break
        ep_rewards.append(total)
    rewards = np.asarray(ep_rewards)
    se = float(rewards.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    per_user = np.array(success_sum) / slots
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
