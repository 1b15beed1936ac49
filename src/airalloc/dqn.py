"""Value-based learner for the slotted multi-user environment.

Everything is plain numpy on float64: a dense rectifier network scoring every
discrete joint action, prioritized experience replay, a softly-updated target
network, and double-Q targets (the online network picks the next action, the
target network prices it).  The optimizer is deliberately bare stochastic
gradient descent so that the analytic backward pass can be checked against
central finite differences to tight tolerance, and so that training is
bit-reproducible from a single seed.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, fields

import numpy as np

from .multiuser import ActionGrid, MultiUserEnv, state_vector

__all__ = [
    "QNetworkParams",
    "TrainConfig",
    "ReplayBuffer",
    "Batch",
    "init_network",
    "q_forward",
    "select_action",
    "replay_sample",
    "train_step",
    "soft_update",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

HIDDEN_LAYERS = (128, 64, 32)


@dataclass
class QNetworkParams:
    """Weights and biases of the scoring network, input -> 128 -> 64 -> 32 ->
    action count, rectifiers on the hidden layers and a linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "QNetworkParams":
        return QNetworkParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_actions(self) -> int:
        return self.weights[-1].shape[1]

    def flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def check_finite(self) -> None:
        for arr in (*self.weights, *self.biases):
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError("network parameters contain non-finite entries")


def init_network(n_inputs: int, n_actions: int, seed: int | None = None) -> QNetworkParams:
    """Seeded uniform initialization in +-sqrt(6/(fan_in+fan_out)) per layer."""
    rng = np.random.default_rng(seed)
    sizes = (n_inputs, *HIDDEN_LAYERS, n_actions)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetworkParams(weights, biases)


def _forward_cached(theta: QNetworkParams, x: np.ndarray):
    """Run the network on a batch, keeping post-activation layers for the
    backward pass.  Returns (q_values, activations)."""
    h = x
    acts = [h]
    last = len(theta.weights) - 1
    for i, (w, b) in enumerate(zip(theta.weights, theta.biases)):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def q_forward(theta: QNetworkParams, state: np.ndarray) -> np.ndarray:
    """Q-value for every action; accepts a single encoding or a batch."""
    x = np.asarray(state, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != theta.n_inputs:
        raise ValueError(f"state encoding has {x.shape[1]} features, network expects {theta.n_inputs}")
    q, _ = _forward_cached(theta, x)
    return q[0] if single else q


def select_action(theta: QNetworkParams, state: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: random index with probability epsilon, otherwise the
    argmax of the Q-vector with ties broken toward the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be within [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(theta.n_actions))
    return int(np.argmax(q_forward(theta, state)))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.01
    epsilon_decay: float = 0.995
    tau: float = 0.01
    batch_size: int = 64
    buffer_capacity: int = 10_000
    episodes: int = 100
    steps_per_episode: int = 50
    priority_exponent: float = 0.6
    importance_exponent: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, integral = getattr(self, f.name), f.type == "int"
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
                raise TypeError(f"{f.name} must be {'an integer' if integral else 'a number'}, got {value!r}")
        for name in ("tau", "epsilon_start", "epsilon_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.steps_per_episode < 1 or self.episodes < 0:
            raise ValueError(
                "batch_size and steps_per_episode must be >= 1 and episodes >= 0, got "
                f"{self.batch_size}, {self.steps_per_episode}, {self.episodes}"
            )
        if self.epsilon_min > self.epsilon_start:
            raise ValueError("epsilon_min must not exceed epsilon_start")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch size cannot exceed buffer capacity")


class ReplayBuffer:
    """Fixed-capacity ring of encoded transitions with one priority per slot.

    Every field is a preallocated array indexed by slot, so a sampled batch
    is one fancy index per field."""

    def __init__(self, capacity: int, n_inputs: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.states = np.zeros((capacity, n_inputs))
        self.next_states = np.zeros((capacity, n_inputs))
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.rewards = np.zeros(capacity)
        self.terminals = np.zeros(capacity, dtype=bool)
        self._priorities = np.zeros(capacity)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state_enc, action_idx: int, reward: float, next_enc, terminal: bool = False) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"transition reward must be finite, got {reward}")
        # New experience enters at the current maximum priority so it is seen
        # at least once before its TD error is known.
        prio = float(self._priorities[: self._size].max()) if self._size else 1.0
        i = self._cursor
        self.states[i] = state_enc
        self.actions[i] = action_idx
        self.rewards[i] = reward
        self.next_states[i] = next_enc
        self.terminals[i] = terminal
        self._priorities[i] = prio
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def update_priorities(self, indices, priorities) -> None:
        # One write per element: sampled indices repeat, and the last write
        # to a repeated index wins.
        for i, p in zip(indices, priorities):
            if not 0 <= i < self._size:
                raise IndexError(f"replay index {i} outside [0, {self._size})")
            if not p > 0.0:
                raise ValueError(f"priorities must be > 0, got {p}")
            self._priorities[i] = float(p)

    def priorities(self) -> np.ndarray:
        return self._priorities[: self._size].copy()


@dataclass
class Batch:
    """Numeric view of a sampled batch, ready for the backward pass."""

    states: np.ndarray        # (B, n_inputs)
    actions: np.ndarray       # (B,) int indices into the action grid
    rewards: np.ndarray       # (B,)
    next_states: np.ndarray   # (B, n_inputs)
    terminals: np.ndarray     # (B,) bool
    weights: np.ndarray       # (B,) importance-sampling weights


def replay_sample(
    buffer: ReplayBuffer,
    batch_size: int,
    rng: np.random.Generator,
    priority_exponent: float = 0.6,
    importance_exponent: float = 0.4,
) -> tuple[np.ndarray, Batch]:
    """Draw a prioritized batch; returns (indices, batch with IS weights).

    Sampling probability is priority^a normalized; the importance weights
    (n * prob)^-b are rescaled so the largest weight is exactly 1.
    """
    n = len(buffer)
    if n < batch_size:
        raise ValueError(f"replay buffer holds {n} transitions, need at least {batch_size}")
    scaled = buffer.priorities() ** priority_exponent
    probs = scaled / scaled.sum()
    idx = rng.choice(n, size=batch_size, p=probs)
    weights = (n * probs[idx]) ** (-importance_exponent)
    weights = weights / weights.max()
    return idx, Batch(buffer.states[idx], buffer.actions[idx], buffer.rewards[idx],
                      buffer.next_states[idx], buffer.terminals[idx], weights)


def train_step(
    theta: QNetworkParams,
    theta_target: QNetworkParams,
    batch: Batch,
    config: TrainConfig,
) -> tuple[QNetworkParams, np.ndarray]:
    """One SGD step on the importance-weighted squared TD error.

    Targets are double-Q: the online network chooses the next action, the
    target network evaluates it; terminal transitions bootstrap nothing.
    Returns the updated parameters and the per-sample TD errors (prediction
    minus target), whose absolute values refresh the replay priorities.
    """
    b = batch.states.shape[0]
    # One online forward over [states; next_states]: rows are independent,
    # the first b feed the backward pass, the rest pick the next actions.
    q_both, acts_both = _forward_cached(theta, np.concatenate([batch.states, batch.next_states]))
    next_actions = np.argmax(q_both[b:], axis=1)
    q_next_target = q_forward(theta_target, batch.next_states)
    bootstrap = q_next_target[np.arange(b), next_actions]
    targets = batch.rewards + config.discount * bootstrap * (~batch.terminals)

    q_all = q_both[:b]
    acts = [a[:b] for a in acts_both]
    pred = q_all[np.arange(b), batch.actions]
    td = pred - targets
    loss = float(np.mean(batch.weights * td * td))
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss {loss}: |td|max={np.max(np.abs(td))}, "
            f"reward range [{batch.rewards.min()}, {batch.rewards.max()}]"
        )

    # Backward pass: d loss / d q is nonzero only at the taken actions.
    dq = np.zeros_like(q_all)
    dq[np.arange(b), batch.actions] = 2.0 * batch.weights * td / b

    new_w = [w.copy() for w in theta.weights]
    new_b = [bv.copy() for bv in theta.biases]
    delta = dq
    for i in range(len(theta.weights) - 1, -1, -1):
        h_in = acts[i]
        grad_w = h_in.T @ delta
        grad_b = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ theta.weights[i].T) * (acts[i] > 0.0)
        new_w[i] -= config.learning_rate * grad_w
        new_b[i] -= config.learning_rate * grad_b

    updated = QNetworkParams(new_w, new_b)
    updated.check_finite()
    return updated, td


def soft_update(theta_target: QNetworkParams, theta: QNetworkParams, tau: float) -> QNetworkParams:
    """Convex elementwise blend: tau of the online net into the target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be within [0, 1], got {tau}")
    ws, bs = [], []
    for wt, w in zip(theta_target.weights, theta.weights):
        if wt.shape != w.shape:
            raise ValueError(f"shape mismatch {wt.shape} vs {w.shape}")
        ws.append(tau * w + (1.0 - tau) * wt)
    for bt, bv in zip(theta_target.biases, theta.biases):
        bs.append(tau * bv + (1.0 - tau) * bt)
    return QNetworkParams(ws, bs)


def train(
    env: MultiUserEnv,
    grid: ActionGrid,
    config: TrainConfig,
) -> tuple[QNetworkParams, list[float]]:
    """Run the full training loop; returns the final online network and the
    per-episode total reward curve.

    All randomness (initialization, exploration, replay sampling, environment
    draws) is derived from config.seed, so equal configs give bit-identical
    curves.  Zero episodes return the untouched initialization.
    """
    mp = env.mp
    probe = env.reset(seed=config.seed)
    n_inputs = state_vector(mp, probe).shape[0]
    root = np.random.SeedSequence(config.seed)
    init_seed, act_seed, replay_seed, env_seed = root.spawn(4)

    theta = init_network(n_inputs, grid.size, seed=init_seed)
    theta_target = theta.copy()
    rng_act = np.random.default_rng(act_seed)
    rng_replay = np.random.default_rng(replay_seed)
    env_seeds = env_seed.generate_state(max(config.episodes, 1))
    buffer = ReplayBuffer(config.buffer_capacity, n_inputs)

    epsilon = config.epsilon_start
    curve: list[float] = []
    for ep in range(config.episodes):
        enc = state_vector(mp, env.reset(seed=int(env_seeds[ep])))
        total = 0.0
        for _ in range(config.steps_per_episode):
            a_idx = select_action(theta, enc, epsilon, rng_act)
            try:
                nxt, r, done = env.step(grid.decode(a_idx))
            except Exception as exc:
                raise RuntimeError(f"environment failed in episode {ep}") from exc
            next_enc = state_vector(mp, nxt)
            buffer.push(enc, a_idx, r, next_enc, terminal=done)
            total += r
            enc = next_enc
            if len(buffer) >= config.batch_size:
                idx, batch = replay_sample(
                    buffer, config.batch_size, rng_replay,
                    config.priority_exponent, config.importance_exponent,
                )
                try:
                    theta, td = train_step(theta, theta_target, batch, config)
                except FloatingPointError as exc:
                    raise RuntimeError(f"training diverged in episode {ep}: {exc}") from exc
                buffer.update_priorities(idx, np.abs(td) + 1e-6)
                theta_target = soft_update(theta_target, theta, config.tau)
            if done:
                break
        curve.append(total)
        epsilon = max(config.epsilon_min, epsilon * config.epsilon_decay)
    return theta, curve


_MAGIC = b"QNETCKPT"


def save_checkpoint(path, theta: QNetworkParams, config: TrainConfig | None = None) -> None:
    """Write a self-describing binary checkpoint.

    Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON
    header (layer shapes, parameter count, config echo), then the flat
    parameter vector as little-endian float64.
    """
    flat = theta.flat()
    header = {
        "layer_shapes": [list(w.shape) for w in theta.weights],
        "n_params": int(flat.size),
        "config": None if config is None else vars(config),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[QNetworkParams, dict]:
    """Inverse of save_checkpoint; returns (network, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    if flat.size != header["n_params"]:
        raise ValueError(f"checkpoint holds {flat.size} parameters, header says {header['n_params']}")
    weights, biases = [], []
    pos = 0
    for rows, cols in header["layer_shapes"]:
        weights.append(flat[pos:pos + rows * cols].reshape(rows, cols))
        pos += rows * cols
        biases.append(flat[pos:pos + cols])
        pos += cols
    return QNetworkParams(weights, biases), header
