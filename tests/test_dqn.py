import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from airalloc.dqn import (
    HIDDEN_LAYERS,
    Batch,
    QNetworkParams,
    ReplayBuffer,
    TrainConfig,
    init_network,
    load_checkpoint,
    q_forward,
    replay_sample,
    save_checkpoint,
    select_action,
    soft_update,
    train,
    train_step,
)
from airalloc.multiuser import MultiUserEnv, default_multiuser, enumerate_actions, state_vector
from oracles import ListReplay, soft_update_alloc, train_step_alloc


def _tiny_setup(seed=0, n_users=1):
    mp = default_multiuser(n_users, 1)
    env = MultiUserEnv(mp, seed=seed)
    grid = enumerate_actions(mp, granularity=0.5)
    return mp, env, grid


# ---------------------------------------------------------------------------
# Network mechanics.
# ---------------------------------------------------------------------------


def test_init_network_shapes_and_bounds():
    theta = init_network(7, 5, seed=3)
    sizes = (7, *HIDDEN_LAYERS, 5)
    assert [w.shape for w in theta.weights] == list(zip(sizes[:-1], sizes[1:]))
    assert [b.shape for b in theta.biases] == [(s,) for s in sizes[1:]]
    for w, (fan_in, fan_out) in zip(theta.weights, zip(sizes[:-1], sizes[1:])):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= lim)
    assert all(np.all(b == 0.0) for b in theta.biases)
    again = init_network(7, 5, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(theta.weights, again.weights))


def test_q_forward_single_vs_batch():
    theta = init_network(4, 3, seed=1)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(6, 4))
    q_batch = q_forward(theta, batch)
    assert q_batch.shape == (6, 3)
    for i in range(6):
        assert np.allclose(q_forward(theta, batch[i]), q_batch[i])
    with pytest.raises(ValueError):
        q_forward(theta, np.zeros(5))


def test_select_action_epsilon_extremes():
    theta = init_network(4, 3, seed=2)
    state = np.ones(4)
    with pytest.raises(ValueError):
        select_action(theta, state, -0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_action(theta, state, 1.5, np.random.default_rng(0))

    # Full exploration: empirical frequencies are uniform-ish.
    rng = np.random.default_rng(123)
    counts = np.bincount(
        [select_action(theta, state, 1.0, rng) for _ in range(30_000)], minlength=3
    )
    assert np.all(np.abs(counts / 30_000 - 1.0 / 3.0) < 0.02)

    # Greedy mode consumes no randomness at all.
    r1, r2 = np.random.default_rng(77), np.random.default_rng(77)
    a = select_action(theta, state, 0.0, r1)
    b = select_action(theta, state, 0.0, r1)
    assert a == b
    assert r1.random() == r2.random()


def test_select_action_breaks_ties_low():
    sizes = (2, *HIDDEN_LAYERS, 4)
    theta = QNetworkParams(
        weights=[np.zeros((i, o)) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[np.zeros(o) for o in sizes[1:]],
    )
    assert select_action(theta, np.ones(2), 0.0, np.random.default_rng(0)) == 0


# ---------------------------------------------------------------------------
# Replay buffer and prioritized sampling.
# ---------------------------------------------------------------------------


def _push(buf, r, n_inputs=2):
    buf.push(np.full(n_inputs, r), int(r) % 3, float(r), np.full(n_inputs, r + 0.5))


def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=3, n_inputs=2)
    for r in (1.0, 2.0, 3.0, 4.0):
        _push(buf, r)
    assert len(buf) == 3
    # The fourth entry takes slot 0, where the oldest one was.
    assert buf.rewards.tolist() == [4.0, 2.0, 3.0]
    assert buf.states[:, 1].tolist() == [4.0, 2.0, 3.0]
    assert buf.next_states[:, 0].tolist() == [4.5, 2.5, 3.5]
    assert buf.actions.tolist() == [1, 2, 0]
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0, n_inputs=2)


def test_push_rejects_nonfinite_reward():
    buf = ReplayBuffer(capacity=4, n_inputs=2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            buf.push(np.zeros(2), 0, bad, np.zeros(2))
    assert len(buf) == 0


def test_new_entries_get_max_priority():
    buf = ReplayBuffer(capacity=8, n_inputs=2)
    _push(buf, 1.0)
    assert buf.priorities().tolist() == [1.0]
    buf.update_priorities([0], [5.0])
    _push(buf, 2.0)
    assert buf.priorities()[1] == 5.0
    with pytest.raises(ValueError):
        buf.update_priorities([0], [0.0])


def test_update_priorities_rejects_out_of_range_index():
    buf = ReplayBuffer(capacity=8, n_inputs=2)
    for r in (0.0, 1.0, 2.0):
        _push(buf, r)
    # Slots 3..7 exist in the preallocated arrays but hold no transition.
    for i in (3, 7, 8, -1):
        with pytest.raises(IndexError):
            buf.update_priorities([i], [2.0])
    assert buf.priorities().tolist() == [1.0, 1.0, 1.0]
    # A repeated index keeps the last write.
    buf.update_priorities([1, 1], [3.0, 5.0])
    assert buf.priorities().tolist() == [1.0, 5.0, 1.0]


def test_rejected_priority_update_writes_nothing():
    buf = ReplayBuffer(capacity=8, n_inputs=2)
    for r in range(5):
        _push(buf, float(r))
    buf.update_priorities(range(5), [1.0, 2.0, 3.0, 4.0, 5.0])
    # The bad entry sits after good ones, which must not be applied either.
    for indices, prios, error in (
        ([0, 1, 5], [9.0, 9.0, 9.0], IndexError),
        ([0, 1, -1], [9.0, 9.0, 9.0], IndexError),
        ([0, 1, 2], [9.0, 9.0, 0.0], ValueError),
        ([0, 1, 2], [9.0, 9.0, math.nan], ValueError),
        ([0, 1, 2], [9.0, 9.0, -1.0], ValueError),
        ([0, 1], [9.0], ValueError),
        ([0.0, 1.5], [9.0, 9.0], IndexError),
    ):
        with pytest.raises(error):
            buf.update_priorities(indices, prios)
        assert buf.priorities().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Many repeats: each slot keeps the priority of its last occurrence.
    rng = np.random.default_rng(3)
    idx, prios = rng.integers(0, 5, size=200), rng.uniform(0.1, 5.0, size=200)
    want = buf.priorities()
    for i, p in zip(idx, prios):
        want[i] = p
    buf.update_priorities(idx, prios)
    assert np.array_equal(buf.priorities(), want)


def test_replay_matches_list_oracle():
    """The array ring stores, overwrites, reprioritizes and samples exactly
    like the per-transition list it replaced."""
    data = np.random.default_rng(8)
    buf, oracle = ReplayBuffer(capacity=5, n_inputs=3), ListReplay(capacity=5)
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for k in range(13):
        item = (data.normal(size=3), int(data.integers(7)), float(data.normal()),
                data.normal(size=3), k % 4 == 3)
        buf.push(*item)
        oracle.push(item)
        if len(buf) < 3:
            continue
        idx, batch = replay_sample(buf, 3, rng_a)
        want_idx, items, want_w = oracle.sample(3, rng_b, 0.6, 0.4)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(batch.weights, want_w)
        assert np.array_equal(batch.states, np.stack([t[0] for t in items]))
        assert np.array_equal(batch.actions, np.array([t[1] for t in items]))
        assert np.array_equal(batch.rewards, np.array([t[2] for t in items]))
        assert np.array_equal(batch.next_states, np.stack([t[3] for t in items]))
        assert np.array_equal(batch.terminals, np.array([t[4] for t in items]))
        new = data.uniform(0.1, 5.0, size=3)
        buf.update_priorities(idx, new)
        oracle.update_priorities(want_idx, new)
        assert np.array_equal(buf.priorities(), oracle.priorities)
    assert buf.rewards.tolist() == [t[2] for t in oracle.items]


def test_replay_sample_prefers_high_priority():
    buf = ReplayBuffer(capacity=4, n_inputs=2)
    for r in (0.0, 1.0):
        _push(buf, r)
    # At exponent 0.6 the second slot is drawn 1000**0.6 = 63 times as often.
    buf.update_priorities([0, 1], [1.0, 1000.0])
    rng = np.random.default_rng(5)
    picks = np.concatenate([replay_sample(buf, 2, rng)[0] for _ in range(300)])
    assert np.mean(picks == 1) > 0.9
    # Importance weights are normalized to a unit maximum.
    _, batch = replay_sample(buf, 2, rng)
    assert batch.weights.max() == pytest.approx(1.0)
    assert np.all(batch.weights > 0.0)


def test_replay_sample_requires_fill():
    buf = ReplayBuffer(capacity=4, n_inputs=2)
    _push(buf, 0.0)
    with pytest.raises(ValueError):
        replay_sample(buf, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# The SGD step: gradients, divergence guard, soft target updates.
# ---------------------------------------------------------------------------


def _random_batch(theta, n_inputs, b, seed):
    rng = np.random.default_rng(seed)
    return Batch(
        states=rng.normal(size=(b, n_inputs)),
        actions=rng.integers(0, theta.n_actions, size=b),
        rewards=rng.normal(size=b),
        next_states=rng.normal(size=(b, n_inputs)),
        terminals=rng.random(size=b) < 0.3,
        weights=rng.uniform(0.2, 1.0, size=b),
    )


def test_gradient_matches_finite_differences():
    n_inputs, n_actions, b = 4, 5, 6
    theta = init_network(n_inputs, n_actions, seed=11)
    target = init_network(n_inputs, n_actions, seed=12)
    batch = _random_batch(theta, n_inputs, b, seed=13)
    cfg = TrainConfig(learning_rate=1.0, discount=0.9)

    # Freeze targets exactly the way the step computes them.
    q_next = q_forward(theta, batch.next_states)
    chosen = np.argmax(q_next, axis=1)
    boot = q_forward(target, batch.next_states)[np.arange(b), chosen]
    targets = batch.rewards + cfg.discount * boot * (~batch.terminals)

    def loss_at(flat):
        t = theta.copy()
        pos = 0
        for w, bias in zip(t.weights, t.biases):  # flat() interleaves per layer
            for arr in (w, bias):
                arr[...] = flat[pos: pos + arr.size].reshape(arr.shape)
                pos += arr.size
        pred = q_forward(t, batch.states)[np.arange(b), batch.actions]
        return float(np.mean(batch.weights * (pred - targets) ** 2))

    updated = theta.copy()
    td = train_step(updated, target, batch, cfg)
    assert np.allclose(td, q_forward(theta, batch.states)[np.arange(b), batch.actions] - targets)
    grad = theta.flat() - updated.flat()

    base = theta.flat()
    rng = np.random.default_rng(21)
    coords = rng.choice(base.size, size=250, replace=False)
    h = 1e-6
    worst = 0.0
    for c in coords:
        step = np.zeros_like(base)
        step[c] = h
        fd = (loss_at(base + step) - loss_at(base - step)) / (2.0 * h)
        denom = max(abs(fd), abs(grad[c]), 1e-8)
        worst = max(worst, abs(fd - grad[c]) / denom)
    assert worst <= 1e-5, f"worst relative gradient error {worst}"


def test_train_step_decreases_frozen_loss():
    n_inputs, n_actions, b = 4, 3, 16
    theta = init_network(n_inputs, n_actions, seed=31)
    target = theta.copy()
    batch = _random_batch(theta, n_inputs, b, seed=32)
    cfg = TrainConfig(learning_rate=1e-3)

    q_next = q_forward(theta, batch.next_states)
    chosen = np.argmax(q_next, axis=1)
    boot = q_forward(target, batch.next_states)[np.arange(b), chosen]
    targets = batch.rewards + cfg.discount * boot * (~batch.terminals)

    def frozen_loss(t):
        pred = q_forward(t, batch.states)[np.arange(b), batch.actions]
        return float(np.mean(batch.weights * (pred - targets) ** 2))

    updated = theta.copy()
    train_step(updated, target, batch, cfg)
    assert frozen_loss(updated) < frozen_loss(theta)


def test_train_step_raises_on_nonfinite_loss():
    theta = init_network(3, 2, seed=1)
    batch = _random_batch(theta, 3, 4, seed=2)
    batch.rewards[0] = math.inf
    with pytest.raises(FloatingPointError):
        train_step(theta, theta.copy(), batch, TrainConfig())


def _blended(target, online, tau):
    """A copy of target with tau of online blended into it."""
    out = target.copy()
    soft_update(out, online, tau)
    return out


def test_soft_update_algebra():
    sizes = (2, *HIDDEN_LAYERS, 2)
    zeros = QNetworkParams(
        weights=[np.zeros((i, o)) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[np.zeros(o) for o in sizes[1:]],
    )
    online = init_network(2, 2, seed=9)
    twice = _blended(zeros, online, 0.5)
    assert soft_update(twice, online, 0.5) is None
    for w2, w in zip(twice.weights, online.weights):
        assert np.allclose(w2, 0.75 * w)
    same = _blended(online, online, 0.37)
    for a, b in zip(same.weights, online.weights):
        assert np.allclose(a, b)
    assert np.allclose(_blended(zeros, online, 1.0).flat(), online.flat())
    assert np.allclose(_blended(zeros, online, 0.0).flat(), zeros.flat())
    with pytest.raises(ValueError):
        soft_update(zeros, online, 1.5)
    with pytest.raises(ValueError):
        soft_update(init_network(3, 2, seed=0), online, 0.5)


def test_soft_update_lag_decays_geometrically():
    online = init_network(2, 2, seed=40)
    target = init_network(2, 2, seed=41)
    gap0 = np.linalg.norm(target.flat() - online.flat())
    tau = 0.25
    for k in range(1, 6):
        soft_update(target, online, tau)
        gap = np.linalg.norm(target.flat() - online.flat())
        assert gap == pytest.approx((1.0 - tau) ** k * gap0, rel=1e-12)


@pytest.fixture(scope="module")
def fleet_shape():
    """(state features, joint actions) of the benchmark's fleet: two users
    sharing two servers at granularity 0.5."""
    mp = default_multiuser(2, 2)
    n_inputs = state_vector(mp, MultiUserEnv(mp, seed=0).reset(seed=0)).shape[0]
    return n_inputs, enumerate_actions(mp, granularity=0.5).size


def _fleet_batch(rng, n_inputs, n_actions, b=64):
    """A batch with repeated actions (half the rows pick among 4) and
    terminal rows."""
    actions = np.where(np.arange(b) % 2 == 0, rng.integers(0, 4, size=b),
                       rng.integers(0, n_actions, size=b))
    return Batch(
        states=rng.normal(size=(b, n_inputs)),
        actions=actions,
        rewards=rng.normal(size=b),
        next_states=rng.normal(size=(b, n_inputs)),
        terminals=rng.random(size=b) < 0.25,
        weights=rng.uniform(0.2, 1.0, size=b),
    )


def test_in_place_step_matches_allocating_oracle(fleet_shape):
    """Chained steps written into the online and target networks agree bit
    for bit with the step that builds new networks from fresh arrays."""
    n_inputs, n_actions = fleet_shape
    cfg = TrainConfig(learning_rate=1e-2, tau=0.05)
    theta = init_network(n_inputs, n_actions, seed=70)
    target = init_network(n_inputs, n_actions, seed=71)
    ref, ref_target = theta.copy(), target.copy()
    rng = np.random.default_rng(72)
    for step in range(50):
        batch = _fleet_batch(rng, n_inputs, n_actions)
        ref, ref_td = train_step_alloc(ref, ref_target, batch, cfg)
        ref_target = soft_update_alloc(ref_target, ref, cfg.tau)
        td = train_step(theta, target, batch, cfg)
        soft_update(target, theta, cfg.tau)
        assert np.array_equal(td, ref_td), step
        for have, want in ((theta, ref), (target, ref_target)):
            assert all(np.array_equal(a, b) for a, b in zip(have.weights, want.weights)), step
            assert all(np.array_equal(a, b) for a, b in zip(have.biases, want.biases)), step
    assert not np.array_equal(theta.flat(), init_network(n_inputs, n_actions, seed=70).flat())


def test_step_after_a_restored_failed_step_matches_oracle(fleet_shape):
    """A step that raises FloatingPointError may leave the network it was
    updating half-written; once its parameters are restored, the next step
    equals the allocating oracle."""
    n_inputs, n_actions = fleet_shape
    cfg = TrainConfig(learning_rate=1e-2)
    theta = init_network(n_inputs, n_actions, seed=90)
    target = init_network(n_inputs, n_actions, seed=91)
    rng = np.random.default_rng(92)
    good = _fleet_batch(rng, n_inputs, n_actions)
    want, want_td = train_step_alloc(theta, target, good, cfg)
    bad_loss = _fleet_batch(rng, n_inputs, n_actions)
    bad_loss.rewards[5] = math.inf
    # A step so large that the update overflows fails after the output
    # gradient has been scattered: at the finiteness check, or inside the
    # backward pass when numpy raises on overflow.
    bad_update = _fleet_batch(rng, n_inputs, n_actions)
    bad_update.rewards *= 1e10
    overflow = TrainConfig(learning_rate=1e308)
    for bad, bad_cfg, errstate in (
        (bad_loss, cfg, {}),
        (bad_update, overflow, {"over": "ignore", "invalid": "ignore"}),
        (bad_update, overflow, {"over": "raise"}),
    ):
        net = theta.copy()
        with pytest.raises(FloatingPointError), np.errstate(**errstate):
            train_step(net, target, bad, bad_cfg)
        for dst, src in zip((*net.weights, *net.biases), (*theta.weights, *theta.biases)):
            np.copyto(dst, src)
        td = train_step(net, target, good, cfg)
        assert np.array_equal(td, want_td)
        assert _networks_equal(net, want)


def _networks_equal(have, want):
    return all(np.array_equal(a, b) for a, b in zip((*have.weights, *have.biases),
                                                    (*want.weights, *want.biases)))


def _edge_batch(kind, rng, n_inputs, n_actions):
    b = 1 if kind == "single_row" else 64
    batch = _fleet_batch(rng, n_inputs, n_actions, b=b)
    if kind == "same_action":
        batch.actions[:] = 17
    elif kind == "distinct":
        batch.actions = rng.choice(n_actions, size=b, replace=False)
    elif kind == "all_terminal":
        batch.terminals[:] = True
    return batch


@pytest.mark.parametrize("kind", ["same_action", "distinct", "single_row", "all_terminal"])
def test_edge_batches_match_allocating_oracle(fleet_shape, kind):
    """The output layer is priced and updated only at the batch's distinct
    actions; at the extremes of that count, and with nothing to bootstrap,
    the in-place step still agrees bit for bit with the dense step, and
    every output column no action touched keeps its bytes."""
    n_inputs, n_actions = fleet_shape
    cfg = TrainConfig(learning_rate=1e-2)
    theta = init_network(n_inputs, n_actions, seed=100)
    target = init_network(n_inputs, n_actions, seed=101)
    rng = np.random.default_rng(102)
    for _ in range(3):
        batch = _edge_batch(kind, rng, n_inputs, n_actions)
        want, want_td = train_step_alloc(theta, target, batch, cfg)
        untouched = np.setdiff1d(np.arange(n_actions), batch.actions)
        before = theta.weights[-1][:, untouched].tobytes(), theta.biases[-1][untouched].tobytes()
        td = train_step(theta, target, batch, cfg)
        assert np.array_equal(td, want_td) and _networks_equal(theta, want)
        assert (theta.weights[-1][:, untouched].tobytes(), theta.biases[-1][untouched].tobytes()) == before
        soft_update(target, theta, 0.5)


def test_step_rejects_actions_outside_the_grid(fleet_shape):
    n_inputs, n_actions = fleet_shape
    theta = init_network(n_inputs, n_actions, seed=104)
    rng = np.random.default_rng(105)
    for bad in (-1, n_actions):
        batch = _fleet_batch(rng, n_inputs, n_actions)
        batch.actions[3] = bad
        net = theta.copy()
        with pytest.raises(IndexError):
            train_step(net, theta.copy(), batch, TrainConfig())
        assert _networks_equal(net, theta)


def test_cold_first_step_stays_small(fleet_shape):
    """The first step and a steady-state step each allocate one b x n_actions
    block of next-state Q-values and nothing else full-width."""
    n_inputs, n_actions = fleet_shape
    theta = init_network(n_inputs, n_actions, seed=106)
    target = theta.copy()
    rng = np.random.default_rng(107)
    cfg = TrainConfig()
    for step in range(3):
        batch = _fleet_batch(rng, n_inputs, n_actions)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_step(theta, target, batch, cfg)
            soft_update(target, theta, cfg.tau)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # The block alone is 64 x 2304 x 8 bytes = 1.2 MB.
        assert peak < 2 * 1024 * 1024, f"step {step} peaked at {peak} bytes"


def test_fleet_training_matches_dense_oracle(monkeypatch):
    """A whole fleet-shape training run, whose prioritized replay repeats
    actions within a batch, gives the same bytes with the dense oracle
    standing in for the training step."""
    import airalloc.dqn as dqn_mod

    mp = default_multiuser(2, 2)
    grid = enumerate_actions(mp, granularity=0.5)
    cfg = TrainConfig(episodes=8, steps_per_episode=25, batch_size=64, seed=7)
    theta, curve = train(MultiUserEnv(mp), grid, cfg)

    repeats = []

    def dense_step(theta, theta_target, batch, config):
        repeats.append(np.unique(batch.actions).size < batch.actions.size)
        ref, td = train_step_alloc(theta, theta_target, batch, config)
        for dst, src in zip((*theta.weights, *theta.biases), (*ref.weights, *ref.biases)):
            np.copyto(dst, src)
        return td

    monkeypatch.setattr(dqn_mod, "train_step", dense_step)
    ref_theta, ref_curve = train(MultiUserEnv(mp), grid, cfg)
    assert len(repeats) > 20 and any(repeats)
    assert np.asarray(curve).tobytes() == np.asarray(ref_curve).tobytes()
    assert theta.flat().tobytes() == ref_theta.flat().tobytes()


# ---------------------------------------------------------------------------
# Full loop and checkpoints.
# ---------------------------------------------------------------------------


def _short_config(**over):
    base = dict(
        episodes=3,
        steps_per_episode=4,
        batch_size=8,
        buffer_capacity=64,
        seed=123,
    )
    base.update(over)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(discount=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon_min=0.5, epsilon_start=0.2)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=100, buffer_capacity=50)
    # The edges of every range are valid.
    TrainConfig(tau=0.0, epsilon_start=1.0, epsilon_min=0.0, episodes=0, batch_size=1,
                steps_per_episode=1)
    TrainConfig(tau=1.0, epsilon_start=0.0, epsilon_min=0.0, learning_rate=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", 2.0), ("tau", -0.1), ("tau", math.nan),
        ("epsilon_start", 1.5), ("epsilon_min", -0.01), ("epsilon_decay", 1.5), ("epsilon_decay", math.nan),
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", math.nan),
        ("batch_size", 0), ("episodes", -1), ("steps_per_episode", 0),
    ],
)
def test_train_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("episodes", "abc"), ("batch_size", 2.5), ("learning_rate", "1e-3"), ("tau", None),
     ("episodes", True), ("tau", False)],
)
def test_train_config_rejects_wrong_types(field, value):
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: value})


def test_train_is_bit_reproducible():
    mp, env_a, grid = _tiny_setup(seed=50)
    _, env_b, _ = _tiny_setup(seed=51)  # env seed is overridden by the loop
    cfg = _short_config()
    theta_a, curve_a = train(env_a, grid, cfg)
    theta_b, curve_b = train(env_b, grid, cfg)
    assert curve_a == curve_b
    assert np.array_equal(theta_a.flat(), theta_b.flat())
    assert len(curve_a) == cfg.episodes


def test_train_encodes_each_state_once(monkeypatch):
    """Replay stores encodings and action indices: training encodes the
    probe, each reset state and each next state once, and never re-keys an
    action."""
    import airalloc.dqn as dqn_mod
    from airalloc.multiuser import ActionGrid, state_vector

    calls = {"encode": 0, "state_vector": 0, "step": 0}

    def counting_state_vector(mp, state):
        calls["state_vector"] += 1
        return state_vector(mp, state)

    encode = ActionGrid.encode

    def counting_encode(self, action):
        calls["encode"] += 1
        return encode(self, action)

    monkeypatch.setattr(dqn_mod, "state_vector", counting_state_vector)
    monkeypatch.setattr(ActionGrid, "encode", counting_encode)
    mp, env, grid = _tiny_setup(seed=52)
    step = env.step

    def counting_step(action):
        calls["step"] += 1
        return step(action)

    env.step = counting_step
    cfg = _short_config(buffer_capacity=8, batch_size=4, episodes=4, steps_per_episode=5)
    train(env, grid, cfg)
    assert calls["encode"] == 0
    assert calls["step"] > cfg.buffer_capacity
    assert calls["state_vector"] == 1 + cfg.episodes + calls["step"]


def test_train_zero_episodes_returns_untouched_init():
    mp, env, grid = _tiny_setup(seed=60)
    cfg = _short_config(episodes=0)
    theta, curve = train(env, grid, cfg)
    assert curve == []
    probe = env.reset(seed=cfg.seed)
    from airalloc.multiuser import state_vector

    init_seed = np.random.SeedSequence(cfg.seed).spawn(4)[0]
    fresh = init_network(state_vector(mp, probe).shape[0], grid.size, seed=init_seed)
    assert np.array_equal(theta.flat(), fresh.flat())


def test_checkpoint_roundtrip(tmp_path):
    theta = init_network(6, 9, seed=7)
    cfg = TrainConfig(learning_rate=5e-4, seed=99)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, theta, cfg)
    loaded, meta = load_checkpoint(path)
    assert np.array_equal(loaded.flat(), theta.flat())
    assert meta["config"]["learning_rate"] == 5e-4
    assert meta["config"]["seed"] == 99
    assert meta["n_params"] == theta.flat().size


def test_checkpoint_rejects_corruption(tmp_path):
    theta = init_network(3, 2, seed=1)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, theta)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def _write_raw_checkpoint(path, shapes, flat):
    """A checkpoint in save_checkpoint's layout whose header and parameters
    are taken as given."""
    blob = json.dumps({"config": None, "layer_shapes": shapes, "n_params": len(flat)}).encode()
    path.write_bytes(b"QNETCKPT" + struct.pack("<I", len(blob)) + blob
                     + np.asarray(flat, dtype="<f8").tobytes())


@pytest.mark.parametrize(
    "shapes, poison, match",
    [
        ([[4, 128], [64, 128], [128, 32], [32, 6]], None, "chain"),
        ([], None, "no layers"),
        ([[3, 4], [4, 2]], None, "do not hold"),
        ([[3, 4], [4, 2]], math.nan, "non-finite"),
        ([[3, 4], [4, 2]], -math.inf, "non-finite"),
    ],
)
def test_checkpoint_rejects_malformed_network(tmp_path, shapes, poison, match):
    n_params = sum(r * c + c for r, c in shapes)
    flat = np.random.default_rng(0).normal(size=n_params + (3 if match == "do not hold" else 0))
    if poison is not None:
        flat[5] = poison
    path = tmp_path / "net.ckpt"
    _write_raw_checkpoint(path, shapes, flat)
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_header(malformed_checkpoint):
    with pytest.raises(ValueError, match=re.escape(str(malformed_checkpoint))):
        load_checkpoint(malformed_checkpoint)
