import dataclasses
import json

import numpy as np
import pytest

import pinned
from oracles import scheduler_nominal_rates, slot_fields_are_float_tuples

from airalloc.baselines import (
    SCHEDULER_KINDS,
    baseline_full_offload,
    evaluate_policy,
    greedy_policy,
    random_policy,
    scheduler_action,
    schedulers,
)
from airalloc.dqn import init_network, q_forward
from airalloc.model import reference_params
from airalloc.multiuser import (
    MultiUserEnv,
    MultiUserState,
    default_multiuser,
    enumerate_actions,
    spent_energy,
    state_vector,
    success_vector,
    violations,
)
from airalloc.solver import bcd_solve


def _nominal_state(mp):
    return MultiUserState(mp.task_bits, mp.mean_gains, (0.0,) * mp.n_servers, mp.energy_capacity_j)


def test_full_offload_pins_local_share():
    p = reference_params(2, task_mbits=10.0)
    res = baseline_full_offload(p)
    assert res.allocation.phi[0] == 0.0
    joint = bcd_solve(p, variant="mm2")
    assert joint.ln_p_success >= res.ln_p_success - 1e-6


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_scheduler_actions_are_always_feasible(kind):
    mp = default_multiuser(3, 2)
    env = MultiUserEnv(mp, seed=17)
    state = env.reset()
    for slot in range(1, 7):
        action = scheduler_action(kind, mp, state, slot)
        assert violations(mp, state, action) == [], f"{kind} slot {slot}"
        assert slot_fields_are_float_tuples(action), f"{kind} slot {slot}"
        state, _, _ = env.step(action)


def test_scheduler_unknown_kind():
    mp = default_multiuser(2, 1)
    with pytest.raises(ValueError):
        scheduler_action("fifo", mp, _nominal_state(mp), 1)


def test_round_robin_rotates_exclusive_assignment():
    mp = default_multiuser(3, 1)
    state = _nominal_state(mp)
    owners = []
    for slot in range(1, 4):
        action = scheduler_action("round_robin", mp, state, slot)
        phi, t = np.array(action.phi), np.array(action.t)
        offloaders = np.flatnonzero(phi[:, 1] > 0.0)
        assert offloaders.size == 1  # one user owns the server per slot
        owner = int(offloaders[0])
        owners.append(owner)
        # The owner splits airtime and slack; everyone else stays local.
        assert t[owner, 0] == pytest.approx(0.5 * mp.slot_s)
        silent = [n for n in range(3) if n != owner]
        assert np.all(phi[silent, 0] == 1.0)
        assert np.all(t[silent, 0] == 0.0)
    assert sorted(owners) == [0, 1, 2]  # a full rotation visits everyone


def test_weighted_split_follows_priorities():
    mp = default_multiuser(2, 1)
    lopsided = dataclasses.replace(mp, weights=(3.0, 1.0))
    # Tasks big enough that capacity binds.
    state = dataclasses.replace(_nominal_state(lopsided), task_bits=(3e7, 3e7))
    action = scheduler_action("weighted", lopsided, state, 1)
    assert violations(lopsided, state, action) == []
    # The heavy user gets the larger slice of airtime and offloaded bits.
    assert action.t[0][0] > action.t[1][0]
    off_bits = np.array(state.task_bits) * np.array(action.phi)[:, 1]
    assert off_bits[0] > off_bits[1]


def test_proportional_split_scales_with_task_size():
    mp = default_multiuser(2, 1)
    state = dataclasses.replace(_nominal_state(mp), task_bits=(3e7, 1e7))
    action = scheduler_action("proportional", mp, state, 1)
    # Equal weights: fractions follow task size (3:1), so airtime does too.
    assert action.t[0][0] == pytest.approx(3.0 * action.t[1][0], rel=1e-9)


def test_max_min_equalizes_served_fractions():
    mp = default_multiuser(2, 1)
    state = dataclasses.replace(_nominal_state(mp), task_bits=(3e7, 5e6))  # badly asymmetric
    action = scheduler_action("max_min", mp, state, 1)
    assert violations(mp, state, action) == []
    rates_mm = scheduler_nominal_rates("max_min", dataclasses.replace(
        mp, task_bits=(3e7, 5e6)))
    rates_w = scheduler_nominal_rates("weighted", dataclasses.replace(
        mp, task_bits=(3e7, 5e6)))
    # The equalizing rule protects the worst-off user at least as well.
    assert rates_mm.min() >= rates_w.min() - 1e-12


def test_nominal_rates_symmetric_round_robin_exactly_equal():
    for n_users in (2, 3):
        mp = default_multiuser(n_users, 1)
        rates = scheduler_nominal_rates("round_robin", mp)
        assert rates.shape == (n_users,)
        assert np.all(rates == rates[0])  # exact, not approximate
        assert rates[0] > 0.0


def test_schedulers_rollout_summary():
    mp = default_multiuser(2, 1)
    a = schedulers("weighted", mp, episodes=4, seed=9, steps_per_episode=5)
    b = schedulers("weighted", mp, episodes=4, seed=9, steps_per_episode=5)
    assert a.shape == (2,)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_evaluate_policy_statistics():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    env = MultiUserEnv(mp)
    res = evaluate_policy(env, random_policy(grid, seed=4), episodes=6,
                          steps_per_episode=5, seed=21)
    assert res.episodes == 6
    assert np.isfinite(res.mean_reward) and res.se_reward >= 0.0
    assert 0.0 <= res.mean_success <= 1.0
    assert res.per_user_success.shape == (2,)
    again = evaluate_policy(MultiUserEnv(mp), random_policy(grid, seed=4),
                            episodes=6, steps_per_episode=5, seed=21)
    assert again.mean_reward == res.mean_reward


def test_evaluate_policy_sums_bits_and_energy_per_slot():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)

    def overdrawing_policy():
        # Odd slots exceed the power cap, so the environment rejects them.
        pick = random_policy(grid, seed=3)

        def policy(state, slot):
            a = pick(state, slot)
            return dataclasses.replace(a, power=tuple(
                p + slot % 2 * cap for p, cap in zip(a.power, mp.p_max_w)))

        return policy

    episodes, steps = 4, 6
    res = evaluate_policy(MultiUserEnv(mp), overdrawing_policy(), episodes, steps, seed=9)

    # Independent reference: one fresh environment per episode on the same seeds.
    policy = overdrawing_policy()
    seeds = np.random.SeedSequence(9).generate_state(episodes)
    bits = joules = 0.0
    rejected = 0
    for ep in range(episodes):
        env = MultiUserEnv(mp)
        state = env.reset(int(seeds[ep]))
        for k in range(steps):
            action = policy(state, k)
            bits += float(np.sum(np.array(state.task_bits) * success_vector(mp, state, action)))
            joules += float(np.sum(spent_energy(mp, state, action)))
            broken = violations(mp, state, action)
            nxt, _, done = env.step(action)
            if broken:
                # The bill still counts in energy_j, but the battery pays nothing.
                rejected += 1
                assert np.array_equal(nxt.energies, state.energies)
                assert np.sum(spent_energy(mp, state, action)) > 0.0
            state = nxt
            if done:
                break
    assert rejected > 0
    assert res.bits_completed == bits and res.energy_j == joules
    assert bits > 0.0


@pytest.mark.parametrize("episodes,steps", [(0, 5), (3, 0), (-1, 5)])
def test_evaluate_policy_rejects_empty_rollouts(episodes, steps):
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    with pytest.raises(ValueError, match="must be >= 1"):
        evaluate_policy(MultiUserEnv(mp), random_policy(grid), episodes, steps)


def test_greedy_policy_picks_argmax_action():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    env = MultiUserEnv(mp, seed=30)
    state = env.reset()
    theta = init_network(state_vector(mp, state).shape[0], grid.size, seed=8)
    pol = greedy_policy(theta, grid, mp)
    action = pol(state, 1)
    want = int(np.argmax(q_forward(theta, state_vector(mp, state))))
    assert grid.encode(action) == want


def test_random_policy_is_seeded():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    state = _nominal_state(mp)
    pol_a = random_policy(grid, seed=5)
    pol_b = random_policy(grid, seed=5)
    seq_a = [grid.encode(pol_a(state, s)) for s in range(10)]
    seq_b = [grid.encode(pol_b(state, s)) for s in range(10)]
    assert seq_a == seq_b
    assert len(set(seq_a)) > 1  # the policy actually explores the grid


def test_rollouts_and_training_match_golden_values():
    # Every EvalResult field of short scheduler and greedy rollouts and the
    # training digest, exactly (tests/pinned.py regenerates the manifest).
    manifest = json.loads(pinned.ROLLOUT_MANIFEST.read_text())
    moved = pinned.moved_entries(manifest["values"], pinned.rollout_values())
    assert not moved, f"rollouts moved: {moved}." + pinned.environment_note(manifest)
