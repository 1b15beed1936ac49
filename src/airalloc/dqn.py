"""Value-based learner for the slotted multi-user environment.

Everything is plain numpy on float64: a dense rectifier network scoring every
discrete joint action, prioritized experience replay, a softly-updated target
network, and double-Q targets (the online network picks the next action, the
target network prices it).  The optimizer is deliberately bare stochastic
gradient descent so that the analytic backward pass can be checked against
central finite differences to tight tolerance, and so that training is
bit-reproducible from a single seed.

Each network keeps its parameters in one float64 vector, which its weight
and bias arrays view (`QNetworkParams`).  Training updates the online and
target networks in place: `train_step` writes into the online network and
`soft_update` into the target.

The step's output layer is column-sparse.  The squared TD error reads the
online Q-value only at each taken action and the target's only at each next
action, so those come from the gathered output columns; the one full-width
output product is the online pass over the next states, whose argmax needs
every action.  The output gradient is nonzero only in the columns of the
batch's distinct actions, and only those columns are updated.  Every value
equals the dense computation's bit for bit.
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
# Prioritized replay's exponents (see `replay_sample`).
PRIORITY_EXPONENT = 0.6
IMPORTANCE_EXPONENT = 0.4


class QNetworkParams:
    """Weights and biases of the scoring network, input -> 128 -> 64 -> 32 ->
    action count, rectifiers on the hidden layers and a linear output.

    Every parameter lives in one float64 vector, ``vector``, laid out as
    w0, b0, w1, b1, ... (the checkpoint's order); ``weights`` and ``biases``
    are views into it, so a whole-network operation is one operation on the
    vector.  The constructor copies the arrays it is given."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError(f"need one bias per weight matrix, got {len(weights)} and {len(biases)}")
        arrays = [np.asarray(a, dtype=float) for pair in zip(weights, biases) for a in pair]
        self.vector = np.concatenate([a.ravel() for a in arrays])
        views, pos = [], 0
        for a in arrays:
            views.append(self.vector[pos:pos + a.size].reshape(a.shape))
            pos += a.size
        self.weights: list[np.ndarray] = views[0::2]
        self.biases: list[np.ndarray] = views[1::2]

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return [a.shape for pair in zip(self.weights, self.biases) for a in pair]

    def copy(self) -> "QNetworkParams":
        return QNetworkParams(self.weights, self.biases)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_actions(self) -> int:
        return self.weights[-1].shape[1]

    def flat(self) -> np.ndarray:
        return self.vector.copy()

    def check_finite(self) -> None:
        if not np.isfinite(self.vector).all():
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


def _forward(theta: QNetworkParams, x: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """Post-activation outputs of the first n_layers layers of the network on
    the batch x, one array per layer.  Rectifiers apply to every layer but
    the output."""
    outs, h = [], x
    last = len(theta.weights) - 1
    for i in range(n_layers):
        h = h @ theta.weights[i]
        h += theta.biases[i]  # in place: the product is a fresh array
        if i < last:
            np.maximum(h, 0.0, out=h)
        outs.append(h)
    return outs


def q_forward(theta: QNetworkParams, state: np.ndarray) -> np.ndarray:
    """Q-value for every action; accepts a single encoding or a batch."""
    x = np.asarray(state, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != theta.n_inputs:
        raise ValueError(f"state encoding has {x.shape[1]} features, network expects {theta.n_inputs}")
    q = _forward(theta, x, len(theta.weights))[-1]
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
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, integral = getattr(self, f.name), f.type == "int"
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
                raise TypeError(f"{f.name} must be {'an integer' if integral else 'a number'}, got {value!r}")
        for name in ("tau", "epsilon_start", "epsilon_min", "epsilon_decay"):
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
        """Set the priority of each listed slot.  Every index and priority is
        checked before any is written, and a repeated index keeps its last
        priority."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise IndexError(f"replay indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        prio = np.asarray(priorities, dtype=float)
        if idx.shape != prio.shape or idx.ndim != 1:
            raise ValueError(f"need one priority per index, got shapes {idx.shape} and {prio.shape}")
        outside = (idx < 0) | (idx >= self._size)
        if outside.any():
            raise IndexError(f"replay index {idx[outside][0]} outside [0, {self._size})")
        bad = ~(prio > 0.0)
        if bad.any():
            raise ValueError(f"priorities must be > 0, got {prio[bad][0]}")
        # A fancy assignment does not order repeated indices, so write only
        # each index's last occurrence.
        _, first_from_end = np.unique(idx[::-1], return_index=True)
        last = idx.size - 1 - first_from_end
        self._priorities[idx[last]] = prio[last]

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
) -> tuple[np.ndarray, Batch]:
    """Draw a prioritized batch; returns (indices, batch with IS weights).

    Sampling probability is priority^PRIORITY_EXPONENT normalized; the
    importance weights (n * prob)^-IMPORTANCE_EXPONENT are rescaled so the
    largest weight is exactly 1.
    """
    n = len(buffer)
    if n < batch_size:
        raise ValueError(f"replay buffer holds {n} transitions, need at least {batch_size}")
    scaled = buffer.priorities() ** PRIORITY_EXPONENT
    probs = scaled / scaled.sum()
    idx = rng.choice(n, size=batch_size, p=probs)
    weights = (n * probs[idx]) ** (-IMPORTANCE_EXPONENT)
    weights = weights / weights.max()
    return idx, Batch(buffer.states[idx], buffer.actions[idx], buffer.rewards[idx],
                      buffer.next_states[idx], buffer.terminals[idx], weights)


def _check_shapes(net: QNetworkParams, like: QNetworkParams) -> None:
    have, want = net.shapes, like.shapes
    if have != want:
        raise ValueError(f"network shape mismatch: {have} vs {want}")


def _q_at(theta: QNetworkParams, h: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q-value of each row of the last hidden layer h at its action, and the
    gathered output columns.  The diagonal of the one b x b product is, entry
    for entry, the dot product the full output layer computes, so it matches
    it bit for bit."""
    cols = np.take(theta.weights[-1], actions, axis=1)
    return (h @ cols).diagonal() + theta.biases[-1][actions], cols


def train_step(
    theta: QNetworkParams,
    theta_target: QNetworkParams,
    batch: Batch,
    config: TrainConfig,
) -> np.ndarray:
    """One SGD step on the importance-weighted squared TD error, written
    into theta in place.

    Targets are double-Q: the online network chooses the next action, the
    target network evaluates it; terminal transitions bootstrap nothing.
    Returns the per-sample TD errors (prediction minus target), whose
    absolute values refresh the replay priorities.  An action outside the
    grid raises IndexError before any write.
    """
    b = batch.states.shape[0]
    taken, column = np.unique(batch.actions, return_inverse=True)
    if taken.size and (taken[0] < 0 or taken[-1] >= theta.n_actions):
        raise IndexError(f"batch actions must lie in [0, {theta.n_actions}), got "
                         f"[{taken[0]}, {taken[-1]}]")
    # One online forward of the hidden layers over [states; next_states]:
    # rows are independent, the first b feed the backward pass, the rest
    # pick the next actions from the one full-width output product.
    n_layers = len(theta.weights)
    x = np.concatenate([batch.states, batch.next_states])
    acts = [x, *_forward(theta, x, n_layers - 1)]
    w_last, b_last = theta.weights[-1], theta.biases[-1]
    q_next = acts[-1][b:] @ w_last
    q_next += b_last  # in place: this is the one b x n_actions block
    next_actions = np.argmax(q_next, axis=1)
    h_target = _forward(theta_target, batch.next_states, n_layers - 1)[-1]
    bootstrap, _ = _q_at(theta_target, h_target, next_actions)
    h_in = acts[-1][:b]
    pred, cols = _q_at(theta, h_in, batch.actions)
    targets = batch.rewards + config.discount * bootstrap * (~batch.terminals)
    td = pred - targets
    loss = float(np.mean(batch.weights * td * td))
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss {loss}: |td|max={np.max(np.abs(td))}, "
            f"reward range [{batch.rewards.min()}, {batch.rewards.max()}]"
        )

    # Backward pass: d loss / d q is nonzero only at the taken actions, so the
    # output layer's gradient lives on the k distinct ones; every other
    # output column keeps its value, as w - 0 = w.  Layer i's weights feed
    # the next delta before they are overwritten.
    lr = config.learning_rate
    dq_rows = 2.0 * batch.weights * td / b
    dq = np.zeros((b, taken.size))
    dq[np.arange(b), column] = dq_rows
    # A running sum adds the rows in order, as the full-width column sum
    # does; np.sum over a block this narrow may sum pairwise instead.
    grad_b = np.cumsum(dq, axis=0)[-1]
    # Row i of dq holds one nonzero, so its product with W^T is column
    # actions[i] of W scaled by it.  cols.T is F-ordered; the delta is built
    # C-ordered so that the column sums below add its rows in the dense
    # step's order.
    delta = np.multiply(cols.T, dq_rows[:, None], order="C") * (h_in > 0.0)
    # Each gradient is a fresh array, so it is scaled by lr in place.
    grad_w = h_in.T @ dq
    grad_w *= lr
    grad_b *= lr
    w_last[:, taken] -= grad_w
    b_last[taken] -= grad_b
    for i in range(n_layers - 2, -1, -1):
        h_in = acts[i][:b]
        grad_w, grad_b = h_in.T @ delta, np.sum(delta, axis=0)
        if i > 0:
            delta = (delta @ theta.weights[i].T) * (h_in > 0.0)
        grad_w *= lr
        grad_b *= lr
        theta.weights[i] -= grad_w
        theta.biases[i] -= grad_b

    theta.check_finite()
    return td


def soft_update(theta_target: QNetworkParams, theta: QNetworkParams, tau: float) -> None:
    """Convex elementwise blend of tau of the online net into the target,
    in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be within [0, 1], got {tau}")
    _check_shapes(theta_target, theta)
    # The online term is read before the target is scaled, so a network
    # blended into itself stays as it is.
    blend = tau * theta.vector
    theta_target.vector *= 1.0 - tau
    theta_target.vector += blend


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
                idx, batch = replay_sample(buffer, config.batch_size, rng_replay)
                try:
                    td = train_step(theta, theta_target, batch, config)
                except FloatingPointError as exc:
                    raise RuntimeError(f"training diverged in episode {ep}: {exc}") from exc
                buffer.update_priorities(idx, np.abs(td) + 1e-6)
                soft_update(theta_target, theta, config.tau)
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


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_checkpoint(path) -> tuple[QNetworkParams, dict]:
    """Inverse of save_checkpoint; returns (network, header dict).

    Raises ValueError, naming the file, for a file that does not hold a
    usable network: a wrong magic, a header that is cut short or is not a
    JSON object with an integer parameter count and [rows, cols] integer
    layer shapes, a parameter count that disagrees with the header or the
    layer shapes, no layers, layers whose shapes do not chain, or a
    non-finite parameter."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_checkpoint(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_checkpoint(raw: bytes) -> tuple[QNetworkParams, dict]:
    if raw[:8] != _MAGIC:
        raise ValueError(f"not a checkpoint file (magic {raw[:8]!r})")
    if len(raw) < 12:
        raise ValueError("checkpoint ends before its header length")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint header is not a JSON object: {header!r}")
    n_params, shapes = header.get("n_params"), header.get("layer_shapes")
    if not _is_count(n_params, 0):
        raise ValueError(f"checkpoint header needs an integer n_params, got {n_params!r}")
    if not (isinstance(shapes, list) and all(
            isinstance(s, list) and len(s) == 2 and all(_is_count(v, 1) for v in s) for s in shapes)):
        raise ValueError(f"checkpoint layer shapes must be [rows, cols] integer pairs, got {shapes!r}")
    flat = np.frombuffer(raw[12 + hlen:], dtype="<f8")
    if flat.size != n_params:
        raise ValueError(f"checkpoint holds {flat.size} parameters, header says {n_params}")
    if not shapes:
        raise ValueError("checkpoint holds no layers")
    if any(prev[1] != nxt[0] for prev, nxt in zip(shapes[:-1], shapes[1:])):
        raise ValueError(f"checkpoint layer shapes do not chain: {shapes}")
    if sum(rows * cols + cols for rows, cols in shapes) != flat.size:
        raise ValueError(f"checkpoint layer shapes {shapes} do not hold {flat.size} parameters")
    if not np.all(np.isfinite(flat)):
        raise ValueError("checkpoint parameters contain non-finite entries")
    # The constructor copies the read-only buffer into the network's vector.
    parts = np.split(flat, np.cumsum([n for rows, cols in shapes for n in (rows * cols, cols)])[:-1])
    weights = [w.reshape(shape) for w, shape in zip(parts[0::2], shapes)]
    return QNetworkParams(weights, parts[1::2]), header
