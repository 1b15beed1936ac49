import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airalloc import multiuser
from airalloc.model import Allocation, local_budget_rho, reference_params, success_breakdown
from airalloc.multiuser import (
    ActionSpaceError,
    MultiUserAction,
    MultiUserEnv,
    MultiUserParams,
    MultiUserState,
    default_multiuser,
    enumerate_actions,
    spent_energy,
    state_vector,
    success_vector,
    violations,
)
from airalloc.special import chi, regularized_lower_gamma
from oracles import (
    enumerate_actions_loop,
    interference_matrix,
    reward,
    slot_fields_are_float_tuples,
    spent_energy_numpy,
    success_vector_numpy,
    user_success,
    violations_numpy,
)


def _floats(values):
    """A vector or a matrix (nested sequences or an array) as a tuple of
    Python floats or a tuple of such rows."""
    a = np.asarray(values, dtype=float)
    return tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist())


def _action(phi, t, power):
    return MultiUserAction(_floats(phi), _floats(t), _floats(power))


def _state(task_bits, gains, queues, energies):
    return MultiUserState(_floats(task_bits), _floats(gains), _floats(queues), _floats(energies))


def _arrays(action):
    """Writable float arrays of an action's phi, t and power."""
    return tuple(np.array(v, dtype=float) for v in (action.phi, action.t, action.power))


def _feasible_action(mp, offload=0.5, time_frac=0.5, power_frac=1.0):
    n, m = mp.n_users, mp.n_servers
    phi = np.zeros((n, m + 1))
    phi[:, 0] = 1.0 - offload
    phi[:, 1:] = offload / m
    t = np.full((n, m), time_frac * mp.slot_s / n)
    power = np.array([power_frac * mp.p_max_w[i] for i in range(n)])
    return _action(phi, t, power)


# ---------------------------------------------------------------------------
# Parameters and state containers.
# ---------------------------------------------------------------------------


def test_default_multiuser_layout():
    mp = default_multiuser(3, 2)
    assert mp.n_users == 3 and mp.n_servers == 2
    assert np.asarray(mp.mean_gains).shape == (3, 2)
    assert len(mp.weights) == 3
    assert mp.task_range_bits[0] < mp.task_range_bits[1]
    assert all(c > 0 for c in mp.capacities_s)
    # Every user's device is the single-user reference problem.
    for m in (1, 2, 3, 4):
        mp = default_multiuser(2, m)
        for k in range(mp.n_users):
            assert mp.device(k) == reference_params(m)


def test_params_validation_catches_shape_errors():
    mp = default_multiuser(2, 1)
    fields = dataclasses.asdict(mp)
    with pytest.raises(ValueError):
        MultiUserParams(**{**fields, "weights": (1.0,)})
    with pytest.raises(ValueError):
        MultiUserParams(**{**fields, "task_bits": (1e7, -1e7)})
    with pytest.raises(ValueError):
        MultiUserParams(**{**fields, "task_range_bits": (5e6, 4e6)})  # hi < lo
    for bad in ((5e6, math.inf), (math.nan, 3e7), (5e6, math.nan)):
        with pytest.raises(ValueError, match="task_range_bits"):
            MultiUserParams(**{**fields, "task_range_bits": bad})
    # A degenerate range is allowed: it pins the task size.
    MultiUserParams(**{**fields, "task_range_bits": (5e6, 5e6)})
    with pytest.raises(ValueError):
        MultiUserParams(**{**fields, "energy_weight": -0.1})
    with pytest.raises(ValueError):
        MultiUserParams(**{**fields, "mean_gains": ((1e-7,), (1e-7,), (1e-7,))})
    # Shared device fields are checked by building each user's device.
    bad_device = [
        {"bandwidth_hz": 0.0},
        {"local_speed_hz": math.nan},
        {"switched_capacitance": -1.0},
        {"mean_gains": ((1e-7,), (1e-7, 2e-7))},  # second row one entry too long
    ]
    for change in bad_device:
        with pytest.raises(ValueError):
            MultiUserParams(**{**fields, **change})


# ---------------------------------------------------------------------------
# Success model: reduction, interference, shared compute.
# ---------------------------------------------------------------------------


def _reference_twin(mp, state, action):
    """Single-user params and allocation that describe user 1 of an N = 1
    problem exactly (no interference, no cross load)."""
    p = dataclasses.replace(
        mp.device(0),
        task_bits=float(state.task_bits[0]),
        energy_budget_j=min(mp.energy_budgets_j[0], float(state.energies[0])),
    )
    t_row = tuple(float(v) for v in action.t[0])
    alloc = Allocation(
        phi=tuple(float(v) for v in action.phi[0]),
        t_shares=t_row,
        power_w=float(action.power[0]),
        rho=max(local_budget_rho(p, t_row, float(action.power[0])), 0.0),
    )
    return p, alloc


def test_single_user_reduces_to_reference_model():
    mp = default_multiuser(1, 2)
    env = MultiUserEnv(mp, seed=42)
    state = env.reset()
    rng = np.random.default_rng(3)
    actions = [_feasible_action(mp, offload=0.6, time_frac=0.4)]
    for _ in range(8):
        phi = rng.dirichlet(np.ones(3))[None, :]
        t = rng.uniform(0.05, 0.45, size=(1, 2))
        actions.append(_action(phi, t, [rng.uniform(0.3, 1.0)]))
    zero_local = dataclasses.replace(_feasible_action(mp), phi=((0.0, 0.7, 0.3),))
    zero_server = dataclasses.replace(_feasible_action(mp), phi=((0.4, 0.0, 0.6),))
    actions += [zero_local, zero_server]
    for action in actions:
        p, alloc = _reference_twin(mp, state, action)
        assert user_success(mp, state, action, 1) == pytest.approx(
            success_breakdown(p, alloc).p_success, rel=1e-12
        )


def _pair_state(mp):
    return _state([1e7, 1e7], mp.mean_gains, np.zeros(mp.n_servers), mp.energy_capacity_j)


def test_transmission_closed_form_and_interference_penalty():
    mp = default_multiuser(2, 1)
    state = _pair_state(mp)
    w = mp.workload
    # User 1 offloads everything, so its local factor is 1; user 2 first
    # stays local, so user 1 hears no interference and shares no cycles.
    action = _action(
        phi=[[0.0, 1.0], [1.0, 0.0]],
        t=[[0.3], [0.3]],
        power=[0.8, 0.5],
    )
    x = 1e7 / (mp.bandwidth_hz * 0.3)
    slack = mp.latency_budgets_s[0] - 0.3
    comp = regularized_lower_gamma(w.shape, mp.server_speeds_hz[0] * slack / (1e7 * w.scale))
    y = 0.8 * mp.mean_gains[0][0] / mp.noise_w
    assert user_success(mp, state, action, 1) == pytest.approx(chi(x, y) * comp, rel=1e-12)

    # User 2 now uploads a sliver to the same server.  Its power raises user
    # 1's effective noise floor; its share claims expected cycles.
    action = dataclasses.replace(action, phi=(action.phi[0], (0.99, 0.01)))
    cross = 1e7 * 0.01 * w.shape * w.scale
    crowded = regularized_lower_gamma(
        w.shape, (mp.server_speeds_hz[0] * slack - cross) / (1e7 * w.scale)
    )
    quiet = user_success(mp, state, action, 1)
    interference = 0.5 * state.gains[1][0]
    y_i = 0.8 * mp.mean_gains[0][0] / (mp.noise_w + interference)
    assert quiet == pytest.approx(chi(x, y_i) * crowded, rel=1e-12)
    # Only the interference changes with user 2's power, and it must hurt.
    action = dataclasses.replace(action, power=(0.8, 1.0))
    assert user_success(mp, state, action, 1) < quiet


def test_zero_share_and_dead_link_conventions():
    mp = default_multiuser(2, 1)
    state = _pair_state(mp)
    w = mp.workload
    s0 = mp.local_speed_hz

    def local_only(airtime: float, power: float) -> float:
        energy_cap = (mp.energy_budgets_j[0] - power * airtime) / (mp.switched_capacitance * s0 * s0)
        rho = min(s0 * mp.latency_budgets_s[0], energy_cap)
        return regularized_lower_gamma(w.shape, rho / (1e7 * w.scale))

    # A zero share needs neither the link nor the server (factor 1), with or
    # without airtime; only the local factor is left.
    for airtime in (0.3, 0.0):
        action = _action(
            phi=[[1.0, 0.0], [0.5, 0.5]],
            t=[[airtime], [0.3]],
            power=[0.8, 0.8],
        )
        assert user_success(mp, state, action, 1) == pytest.approx(
            local_only(airtime, 0.8), rel=1e-12
        )
    # A positive share with no airtime or no power is never delivered.
    action = _action(
        phi=[[0.5, 0.5], [1.0, 0.0]],
        t=[[0.0], [0.3]],
        power=[0.8, 0.8],
    )
    assert user_success(mp, state, action, 1) == 0.0
    action = dataclasses.replace(action, t=((0.3,), (0.3,)))
    assert user_success(mp, state, action, 1) > 0.0
    action = dataclasses.replace(action, power=(0.0, 0.8))
    assert user_success(mp, state, action, 1) == 0.0


def test_interference_matrix_sums_other_transmitters():
    mp = default_multiuser(3, 2)
    env = MultiUserEnv(mp, seed=5)
    state = env.reset()
    phi, t, power = _arrays(_feasible_action(mp, offload=0.9))
    phi[2, 1] = 0.0  # user 3 skips server 1
    phi[2, 0] = 1.0 - phi[2, 1:].sum()
    action = _action(phi, t, power)
    inter = interference_matrix(mp, state, action)
    rx = power[:, None] * np.array(state.gains)
    # User 1 at server 1 hears user 2 (user 3 is silent there).
    assert inter[0, 0] == pytest.approx(rx[1, 0], rel=1e-12)
    # At server 2 everyone transmits, so user 1 hears users 2 and 3.
    assert inter[0, 1] == pytest.approx(rx[1, 1] + rx[2, 1], rel=1e-12)
    assert np.all(inter >= 0.0)


def test_shared_compute_crowding_out():
    mp = default_multiuser(2, 1)
    state = _pair_state(mp)
    # User 2 transmits at zero power, so user 1 hears no interference and
    # only user 2's claim on the shared server's cycles separates the cases.
    power = [1.0, 0.0]
    t = [[0.25], [0.25]]
    solo = _action([[0.0, 1.0], [1.0, 0.0]], t, power)
    both = _action([[0.0, 1.0], [0.5, 0.5]], t, power)
    assert interference_matrix(mp, state, both)[0, 0] == 0.0
    s_solo = user_success(mp, state, solo, 1)
    s_both = user_success(mp, state, both, 1)
    assert s_both < s_solo  # the other user's share claims expected cycles
    # Hand check of the crowded value.
    w = mp.workload
    slack = mp.latency_budgets_s[0] - 0.25
    cross = 1e7 * 0.5 * w.shape * w.scale
    cycles = mp.server_speeds_hz[0] * slack - cross
    x = 1e7 / (mp.bandwidth_hz * 0.25)
    y = 1.0 * mp.mean_gains[0][0] / mp.noise_w
    assert s_both == pytest.approx(
        chi(x, y) * regularized_lower_gamma(w.shape, cycles / (1e7 * w.scale)), rel=1e-12
    )
    # A server already claimed past its cycle budget cannot finish the share.
    both = dataclasses.replace(both, phi=(both.phi[0], (0.0, 1.0)))
    big = dataclasses.replace(state, task_bits=(1e7, 1e9))
    assert user_success(mp, big, both, 1) == 0.0


def test_success_vector_bounds_and_interference_coupling():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=11)
    state = env.reset()
    both = _feasible_action(mp, offload=0.8)
    solo = _feasible_action(mp, offload=0.8)
    solo = dataclasses.replace(solo, phi=(solo.phi[0], (1.0, 0.0)))  # user 2 keeps everything local
    s_both = np.array(success_vector(mp, state, both))
    s_solo = success_vector(mp, state, solo)
    assert np.all(s_both >= 0.0) and np.all(s_both <= 1.0)
    # User 1's own factors are identical; only user 2's concurrent upload
    # (interference + shared compute) separates the two worlds.
    assert s_both[0] < s_solo[0]


# ---------------------------------------------------------------------------
# Constraints, energy bills, rewards.
# ---------------------------------------------------------------------------


def test_violations_name_each_broken_rule():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=1)
    state = env.reset()
    ok = _feasible_action(mp)
    assert violations(mp, state, ok) == []

    phi, t, power = _arrays(_feasible_action(mp))
    phi[0, 0] += 0.2  # off the simplex
    power[1] = mp.p_max_w[1] * 3.0
    t[:, 0] = mp.slot_s  # 2 users x full slot on one server
    msgs = violations(mp, state, _action(phi, t, power))
    assert len(msgs) == 3
    assert any("simplex" in m for m in msgs)
    assert any("power" in m for m in msgs)
    assert any("airtime on server" in m for m in msgs)


@pytest.mark.parametrize("field, row, want", [
    ("phi", (math.nan, 0.5), ["share row of user 1 off the simplex"]),
    ("t", (math.nan,), ["negative airtime for user 1", "airtime on server 1 over the slot budget"]),
])
def test_violations_flag_a_nan_entry(field, row, want):
    # Every comparison with NaN is False, so each check passes only when its
    # comparison holds: a NaN share or airtime is flagged, and step pays the
    # penalty rather than evaluating a success factor at NaN.
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=1)
    state = env.reset()
    ok = _feasible_action(mp)
    action = dataclasses.replace(ok, **{field: (row,) + getattr(ok, field)[1:]})
    assert violations(mp, state, action) == want
    _, r, _ = env.step(action)
    assert r == multiuser._PENALTY * len(want)


def test_capacity_violation_depends_on_task_sizes():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=2)
    state = env.reset()
    action = _feasible_action(mp, offload=1.0)
    state = dataclasses.replace(state, task_bits=(1e6, 1e6))
    assert violations(mp, state, action) == []
    big = mp.capacities_s[0] * mp.server_speeds_hz[0]  # 2x over together
    state = dataclasses.replace(state, task_bits=(big, big))
    msgs = violations(mp, state, action)
    assert any("capacity" in m for m in msgs)


def test_spent_energy_hand_computation():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=3)
    state = env.reset()
    action = _feasible_action(mp, offload=0.6, time_frac=0.5)
    bill = spent_energy(mp, state, action)
    w = mp.workload
    for n in range(2):
        tx = action.power[n] * np.sum(action.t[n])
        cycles = state.task_bits[n] * action.phi[n][0] * w.shape * w.scale
        local = mp.switched_capacitance * mp.local_speed_hz ** 2 * cycles
        assert bill[n] == pytest.approx(tx + local, rel=1e-12)


def test_reward_formula_and_penalty():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=4)
    state = env.reset()
    action = _feasible_action(mp, offload=0.5)
    r = reward(mp, state, action)
    succ = success_vector(mp, state, action)
    bill = spent_energy(mp, state, action)
    floor = math.log(1e-12)
    expect = sum(
        w * (max(math.log(s), floor) if s > 0.0 else floor)
        for w, s in zip(mp.weights, succ)
    ) - mp.energy_weight * float(np.sum(np.array(bill) / np.asarray(mp.energy_capacity_j)))
    assert r == pytest.approx(expect, rel=1e-12)

    phi, t, power = _arrays(_feasible_action(mp))
    phi[0, 0] += 0.5
    power[0] = 10.0
    assert reward(mp, state, _action(phi, t, power)) == -20.0  # two broken rules, -10 each


def test_reward_is_monotone_in_success():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=6)
    state = env.reset()
    action = _feasible_action(mp)
    lo = reward(mp, state, action, breakdowns=np.array([0.2, 0.2]))
    hi = reward(mp, state, action, breakdowns=np.array([0.4, 0.2]))
    assert hi > lo
    # The floor keeps hopeless users finite instead of -inf.
    floor = reward(mp, state, action, breakdowns=np.array([0.0, 0.5]))
    assert math.isfinite(floor)


# ---------------------------------------------------------------------------
# Environment dynamics.
# ---------------------------------------------------------------------------


def test_reset_and_step_are_seed_deterministic():
    mp = default_multiuser(2, 1)
    a_env, b_env = MultiUserEnv(mp, seed=9), MultiUserEnv(mp, seed=9)
    sa, sb = a_env.reset(), b_env.reset()
    assert np.array_equal(sa.task_bits, sb.task_bits)
    assert np.array_equal(sa.gains, sb.gains)
    action = _feasible_action(mp)
    for _ in range(5):
        na, ra, da = a_env.step(action)
        nb, rb, db = b_env.step(action)
        assert ra == rb and da == db
        assert np.array_equal(na.task_bits, nb.task_bits)
        assert np.array_equal(na.gains, nb.gains)
        assert np.array_equal(na.queues, nb.queues)
        assert np.array_equal(na.energies, nb.energies)


def test_step_updates_queues_and_energies():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=10)
    state = env.reset()
    action = _feasible_action(mp, offload=0.8)
    bill = np.array(spent_energy(mp, state, action))
    mean_cpb = mp.workload.shape * mp.workload.scale
    assigned = float(np.sum(np.array(state.task_bits) * np.array(action.phi)[:, 1] * mean_cpb))
    served = mp.server_speeds_hz[0] * mp.slot_s
    nxt, r, done = env.step(action)
    assert r == reward(mp, state, action)
    assert not done
    assert nxt.energies == pytest.approx(np.array(state.energies) - bill, rel=1e-12)
    assert nxt.queues[0] == pytest.approx(max(state.queues[0] + assigned - served, 0.0))
    lo, hi = mp.task_range_bits
    assert all(lo <= b <= hi for b in nxt.task_bits)


def test_infeasible_step_idles_the_slot():
    mp = default_multiuser(2, 1)
    env = MultiUserEnv(mp, seed=12)
    state = env.reset()
    phi, t, power = _arrays(_feasible_action(mp))
    t[:, 0] = mp.slot_s
    nxt, r, done = env.step(_action(phi, t, power))
    assert r == -10.0
    assert not done
    assert np.array_equal(nxt.energies, state.energies)  # nothing spent
    queues = np.array(state.queues)
    assert np.all(np.array(nxt.queues) <= np.maximum(queues - 0.0, queues))


def test_battery_depletion_terminates():
    mp = default_multiuser(1, 1)
    tiny = dataclasses.replace(mp, energy_capacity_j=(1e-6,))
    env = MultiUserEnv(tiny, seed=13)
    env.reset()
    nxt, _, done = env.step(_feasible_action(tiny, offload=0.5))
    assert done
    assert nxt.energies[0] == 0.0


def test_step_requires_reset():
    mp = default_multiuser(1, 1)
    env = MultiUserEnv(mp, seed=0)
    with pytest.raises(RuntimeError):
        env.step(_feasible_action(mp))


def test_state_vector_shape_and_scale():
    mp = default_multiuser(3, 2)
    env = MultiUserEnv(mp, seed=14)
    state = env.reset()
    v = state_vector(mp, state)
    n, m = mp.n_users, mp.n_servers
    assert v.shape == (n + n * m + m + n,)
    assert np.all(np.isfinite(v))
    tasks = v[:n]
    queues = v[n + n * m: n + n * m + m]
    energy = v[-n:]
    assert np.all((tasks >= 0.0) & (tasks <= 1.0))
    assert np.all((queues >= 0.0) & (queues < 1.0))
    assert np.all((energy >= 0.0) & (energy <= 1.0))


# ---------------------------------------------------------------------------
# Action enumeration.
# ---------------------------------------------------------------------------


def test_grid_size_and_row_structure():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    # 3 share rows x 2 airtimes x 2 powers per user, squared for the pair.
    assert grid.size == 144
    for action in map(grid.decode, range(20)):
        assert violations(mp, _state(np.full(2, 1e6), mp.mean_gains, np.zeros(1),
                                     mp.energy_capacity_j), action) == []
        assert np.sum(action.phi, axis=1) == pytest.approx(np.ones(2))


def test_grid_encode_decode_roundtrip():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, grid.size, size=50):
        action = grid.decode(int(idx))
        assert grid.encode(action) == int(idx)
    # Decode hands out tuples: writing to one fails and leaves the table.
    fields = ("phi", "t", "power")
    before = {f: np.array(getattr(grid.decode(7), f)) for f in fields}
    scribbled = grid.decode(7)
    with pytest.raises(TypeError):
        scribbled.phi[0][0] = 0.123
    with pytest.raises(TypeError):
        scribbled.t[0][0] = 0.123
    with pytest.raises(TypeError):
        scribbled.power[0] = 0.123
    after = grid.decode(7)
    for f in fields:
        assert np.array_equal(getattr(after, f), before[f])


def test_grid_rejects_foreign_action():
    mp = default_multiuser(2, 1)
    grid = enumerate_actions(mp, granularity=0.5)
    foreign = _feasible_action(mp, time_frac=0.66)  # airtime off every grid point
    with pytest.raises(ValueError):
        grid.encode(foreign)


def test_grid_explosion_guard_suggests_factoring():
    # 528 options per user: 1.47e8 joint combinations, over the cap.
    mp = default_multiuser(3, 2)
    with pytest.raises(ActionSpaceError, match="over the cap") as err:
        enumerate_actions(mp, granularity=0.1)
    assert "factored per-user" in str(err.value)
    # Five users at the lowest airtime level already overfill the slot.
    with pytest.raises(ActionSpaceError, match="cannot share the slot.*factored per-user"):
        enumerate_actions(default_multiuser(5, 1), granularity=1.0)


def test_grid_granularity_must_divide_one():
    mp = default_multiuser(2, 1)
    with pytest.raises(ValueError, match="divide 1"):
        enumerate_actions(mp, granularity=0.3)
    # ActionSpaceError is a ValueError too, so the message tells them apart.
    for bad in (-0.5, 0.0, -1.0, 2.0, math.nan):
        with pytest.raises(ValueError, match=f"granularity must lie in \\(0, 1\\], got {bad}"):
            enumerate_actions(mp, granularity=bad)


def _assert_table_is(grid, want):
    assert grid.size == len(want)
    for i, a in enumerate(want):
        got = grid.decode(i)
        for field in ("phi", "t", "power"):
            g, w = np.array(getattr(got, field)), np.array(getattr(a, field))
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    # Each encode scans the whole table, so round-trip a spread of rows.
    for i in np.unique(np.linspace(0, grid.size - 1, 100).astype(int)):
        assert grid.encode(grid.decode(int(i))) == i


@pytest.mark.parametrize("n_users,n_servers,granularity", [
    (2, 1, 0.5), (2, 2, 0.5), (3, 1, 0.5), (2, 1, 0.25), (1, 3, 0.25), (3, 2, 0.5), (2, 2, 1 / 3),
])
def test_grid_table_matches_per_object_enumeration(n_users, n_servers, granularity):
    mp = default_multiuser(n_users, n_servers)
    _assert_table_is(enumerate_actions(mp, granularity=granularity),
                     enumerate_actions_loop(mp, granularity))


def test_grid_table_matches_per_object_enumeration_at_other_levels(monkeypatch):
    levels = {"time_fracs": (0.2, 0.3, 0.55), "power_fracs": (0.1, 0.7, 1.0)}
    monkeypatch.setattr(multiuser, "_TIME_FRACS", levels["time_fracs"])
    monkeypatch.setattr(multiuser, "_POWER_FRACS", levels["power_fracs"])
    mp = dataclasses.replace(default_multiuser(3, 1), p_max_w=(0.3, 1.0, 1.7), slot_s=0.9)
    _assert_table_is(enumerate_actions(mp, granularity=0.5),
                     enumerate_actions_loop(mp, 0.5, **levels))


# ---------------------------------------------------------------------------
# The per-slot float path against the numpy references.
# ---------------------------------------------------------------------------


@st.composite
def _slots(draw):
    """A small system, a state and a joint action.  Batteries may be empty or
    below the per-slot allowance, and shares, airtimes and powers may be
    zero.  Half the actions keep every share row on the simplex, every
    airtime inside its slot share and every power inside its cap; the rest
    may break any rule, with negative entries included.  The values come
    from a drawn seed, so that their sums round as generic floats do."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(shape, lo, hi):
        """Uniform entries in [lo, hi], each exactly zero a third of the time."""
        return np.where(rng.random(shape) < 1.0 / 3.0, 0.0, rng.uniform(lo, hi, shape))

    mp = dataclasses.replace(default_multiuser(n, m), weights=tuple(rng.uniform(0.1, 5.0, n).tolist()))
    state = _state(
        task_bits=rng.uniform(*mp.task_range_bits, n),
        gains=entries((n, m), 1e-8, 2e-6),
        queues=entries(m, 0.0, 1e10),
        energies=entries(n, 0.0, 2.0 * mp.energy_budgets_j[0]),
    )
    if draw(st.booleans()):
        phi = entries((n, m + 1), 0.0, 1.0)
        phi[phi.sum(axis=1) == 0.0, 0] = 1.0
        phi /= phi.sum(axis=1, keepdims=True)
        t = entries((n, m), 0.0, mp.slot_s / n)
        power = entries(n, 0.0, mp.p_max_w[0])
    else:
        phi = entries((n, m + 1), -0.05, 1.0)
        t = entries((n, m), -0.05, 0.7)
        power = entries(n, -1.0, 1.2)
    return mp, state, _action(phi, t, power)


def test_reward_sums_weighted_log_successes_left_to_right():
    # One rounding per product and per addition, in user order: a fused
    # multiply-add, as a BLAS dot product may use, rounds non-unit weights
    # differently.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        mp = dataclasses.replace(default_multiuser(n, 1), weights=tuple(rng.uniform(0.1, 5.0, n).tolist()))
        success, energies = rng.uniform(1e-3, 1.0, n).tolist(), rng.uniform(0.0, 1.0, n).tolist()
        weighted = spend = 0.0
        for w, p, e, c in zip(mp.weights, success, energies, mp.energy_capacity_j):
            weighted += w * math.log(p)
            spend += e / c
        assert multiuser._feasible_reward(mp, success, energies) == weighted - mp.energy_weight * spend


@settings(max_examples=150)
@given(_slots())
def test_float_path_equals_numpy_references(slot):
    mp, state, action = slot
    assert violations(mp, state, action) == violations_numpy(mp, state, action)
    assert success_vector(mp, state, action) == success_vector_numpy(mp, state, action).tolist()
    bill = spent_energy(mp, state, action)
    assert bill == spent_energy_numpy(mp, state, action).tolist()

    env = MultiUserEnv(mp, seed=0)
    env.reset()
    env.state = state
    nxt, r, done = env.step(action)
    assert r == reward(mp, state, action)
    if violations_numpy(mp, state, action):
        bill, assigned = np.zeros(mp.n_users), np.zeros(mp.n_servers)
    else:
        assigned = (np.array(state.task_bits)[:, None] * np.array(action.phi)[:, 1:]
                    * mp.workload.mean).sum(axis=0)
    served = np.asarray(mp.server_speeds_hz, dtype=float) * mp.slot_s
    assert list(nxt.queues) == np.maximum(np.array(state.queues) + assigned - served, 0.0).tolist()
    energies = np.maximum(np.array(state.energies) - bill, 0.0)
    assert list(nxt.energies) == energies.tolist()
    assert done == bool(np.any(energies <= 0.0))


def test_slot_is_frozen_tuples_of_floats():
    mp = default_multiuser(2, 2)
    env = MultiUserEnv(mp, seed=3)
    grid = enumerate_actions(mp, granularity=0.5)
    actions = [grid.decode(k) for k in (0, 7, grid.size - 1)]
    states = [env.reset()] + [env.step(a)[0] for a in actions]
    assert all(slot_fields_are_float_tuples(v) for v in states + actions)
    for action in actions:
        for out in (success_vector(mp, states[0], action), spent_energy(mp, states[0], action)):
            assert type(out) is list and all(type(v) is float for v in out)
    with pytest.raises(dataclasses.FrozenInstanceError):
        states[0].energies = (0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        actions[0].power = (0.0, 0.0)
