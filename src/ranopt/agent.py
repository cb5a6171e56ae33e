"""Double-Q learning agent over the five scheduler options.

The replay buffer is a time-ordered ring of 5,000 transitions. Because
learning uses n-step temporal-difference targets, training batches are
contiguous segments of experience sampled from the buffer; a segment never
crosses an episode boundary (rest minutes produce no experience at all, so
the gap between episodes is structural). Targets follow the double-Q rule:
the online network picks the bootstrap action, the slowly tracking target
network evaluates it, and after every training step the target network takes
a small Polyak step toward the online one.

The control task is continuous; there is no terminal state and no done flag
anywhere in the update.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import qnet
from .qnet import QNetParams

REPLAY_CAPACITY = 5000


@dataclass
class AgentConfig:
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.1
    epsilon_decay: float = 0.999  # per-step multiplier
    n_step: int = 3
    tau: float = 0.01
    learning_rate: float = 1e-3
    batch_segments: int = 16
    seed: int = 0
    # discount the bootstrap term by gamma**(n-1) instead of the standard
    # gamma**n (the sum already spans n rewards); kept for exactness studies
    bootstrap_discount_nm1: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        if not 1 <= self.n_step <= 10:
            raise ValueError(f"n_step must lie in [1, 10], got {self.n_step}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_segments < 1:
            raise ValueError("batch_segments must be >= 1")


@dataclass
class Experience:
    """One transition; states are 58-entry KPI vectors as plain arrays."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    episode_id: int


def validate_experience(exp: Experience) -> None:
    if np.asarray(exp.state).shape != (qnet.STATE_DIM,):
        raise ValueError(f"state must have length {qnet.STATE_DIM}")
    if np.asarray(exp.next_state).shape != (qnet.STATE_DIM,):
        raise ValueError(f"next_state must have length {qnet.STATE_DIM}")
    if not -1.0 <= exp.reward <= 1.0:
        raise ValueError(f"reward {exp.reward} outside [-1, 1]")
    if not 0 <= int(exp.action) < qnet.N_ACTIONS:
        raise ValueError(f"action {exp.action} outside [0, {qnet.N_ACTIONS})")


class ReplayBuffer:
    """Insertion-ordered ring: index 0 is the oldest entry, push evicts it when full."""

    def __init__(self, capacity: int = REPLAY_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Experience] = []
        self._start = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i: int) -> Experience:
        if not 0 <= i < len(self._items):
            raise IndexError(i)
        return self._items[(self._start + i) % self.capacity]

    def __iter__(self):
        for i in range(len(self._items)):
            yield self[i]

    def push(self, exp: Experience) -> None:
        if len(self._items) < self.capacity:
            self._items.append(exp)
        else:
            self._items[self._start] = exp
            self._start = (self._start + 1) % self.capacity

    def episode_ids(self) -> np.ndarray:
        """Episode tags in logical (insertion) order."""
        ids = np.empty(len(self._items), dtype=np.int64)
        for i in range(len(self._items)):
            ids[i] = self[i].episode_id
        return ids


def preload(buffer: ReplayBuffer, records: list[Experience]) -> None:
    """Push historical transitions in order; only the most recent ones survive."""
    for i, rec in enumerate(records):
        try:
            validate_experience(rec)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"record {i}: {exc}") from None
        buffer.push(rec)


def valid_segment_starts(buffer: ReplayBuffer, n_step: int) -> np.ndarray:
    """Logical indices where n_step consecutive entries share one episode."""
    ids = buffer.episode_ids()
    size = ids.size
    if size < n_step:
        return np.empty(0, dtype=np.int64)
    ok = np.ones(size - n_step + 1, dtype=bool)
    for j in range(1, n_step):
        ok &= ids[j:size - n_step + 1 + j] == ids[:size - n_step + 1]
    return np.flatnonzero(ok)


def sample_segments(buffer: ReplayBuffer, n_step: int, batch: int,
                    rng: np.random.Generator) -> list[list[Experience]]:
    """Sample contiguous intra-episode segments, uniform over valid starts,
    with replacement across the batch."""
    starts = valid_segment_starts(buffer, n_step)
    if starts.size == 0:
        raise ValueError(f"buffer holds no contiguous segment of length {n_step}")
    picks = starts[rng.integers(0, starts.size, size=batch)]
    return [[buffer[s + j] for j in range(n_step)] for s in picks]


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    """Exploration rate after `step` action selections: exponential decay to the floor."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay ** step)


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Greedy with probability 1 - epsilon (ties to the lowest index), else uniform."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    q_values = np.asarray(q_values)
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, q_values.size))
    return int(np.argmax(q_values))


def double_q_target(segment: list[Experience], online: QNetParams, target: QNetParams,
                    gamma: float, bootstrap_discount_nm1: bool = False) -> float:
    """n-step double-Q target for the segment's first transition.

    Sums the n discounted rewards, then bootstraps at the state after the
    segment: the online network chooses the action, the target network
    scores it. The bootstrap discount is gamma**n (or gamma**(n-1) with the
    compatibility flag).
    """
    ids = {e.episode_id for e in segment}
    if len(ids) != 1:
        raise ValueError(f"segment spans episodes {sorted(ids)}; targets need one episode")
    n = len(segment)
    ret = 0.0
    for i, exp in enumerate(segment):
        ret += gamma ** i * exp.reward
    s_boot = segment[-1].next_state
    a_star = int(np.argmax(qnet.forward(online, s_boot)))
    q_boot = float(qnet.forward(target, s_boot)[a_star])
    power = n - 1 if bootstrap_discount_nm1 else n
    return ret + gamma ** power * q_boot


class DoubleQAgent:
    """Online/target network pair plus replay buffer and exploration schedule."""

    def __init__(self, cfg: AgentConfig):
        self.cfg = cfg
        self.online = qnet.init_params(seed=cfg.seed)
        self.target = self.online.copy()
        self.buffer = ReplayBuffer(REPLAY_CAPACITY)
        self.rng = np.random.default_rng([cfg.seed, 1])
        self.global_step = 0

    @property
    def epsilon(self) -> float:
        return epsilon_at(self.global_step, self.cfg)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Pick an option; training-mode calls advance the exploration schedule."""
        q = qnet.forward(self.online, state)
        if greedy:
            return select_action(q, 0.0, self.rng)
        action = select_action(q, self.epsilon, self.rng)
        self.global_step += 1
        return action

    def observe(self, exp: Experience) -> None:
        validate_experience(exp)
        self.buffer.push(exp)

    def can_train(self) -> bool:
        return valid_segment_starts(self.buffer, self.cfg.n_step).size > 0

    def train_step(self) -> float:
        """One replayed update; returns the batch mean absolute TD error.

        Samples batch_segments segments, forms double-Q targets, ascends the
        (Y - Q) * grad Q direction with the learning rate averaged over the
        batch, then Polyak-updates the target network.
        """
        if len(self.buffer) == 0:
            raise ValueError("cannot train from an empty replay buffer")
        cfg = self.cfg
        segments = sample_segments(self.buffer, cfg.n_step, cfg.batch_segments, self.rng)

        s0 = np.stack([seg[0].state for seg in segments])
        a0 = np.array([int(seg[0].action) for seg in segments])
        s_boot = np.stack([seg[-1].next_state for seg in segments])

        q_boot_online = qnet.forward_batch(self.online, s_boot)
        a_star = q_boot_online.argmax(axis=1)
        q_boot_target = qnet.forward_batch(self.target, s_boot)
        boot = q_boot_target[np.arange(len(segments)), a_star]

        n = cfg.n_step
        power = n - 1 if cfg.bootstrap_discount_nm1 else n
        returns = np.zeros(len(segments))
        for b, seg in enumerate(segments):
            for i, exp in enumerate(seg):
                returns[b] += cfg.gamma ** i * exp.reward
        targets = returns + cfg.gamma ** power * boot

        q0 = qnet.forward_batch(self.online, s0)[np.arange(len(segments)), a0]
        td = targets - q0

        total = None
        for b in range(len(segments)):
            g = qnet.backward(self.online, s0[b], int(a0[b]))
            if total is None:
                total = QNetParams(td[b] * g.w1, td[b] * g.b1, td[b] * g.w2, td[b] * g.b2)
            else:
                total.w1 += td[b] * g.w1
                total.b1 += td[b] * g.b1
                total.w2 += td[b] * g.w2
                total.b2 += td[b] * g.b2

        self.online = qnet.apply_gradient(self.online, total,
                                          cfg.learning_rate / len(segments))
        self.target = qnet.soft_update(self.target, self.online, cfg.tau)
        return float(np.mean(np.abs(td)))


# --- historical-experience files ---------------------------------------------

def _experience_header() -> list[str]:
    return (["episode_id", "action_code", "reward"]
            + [f"s_{i}" for i in range(qnet.STATE_DIM)]
            + [f"sn_{i}" for i in range(qnet.STATE_DIM)])


def write_experience_csv(path, experiences) -> None:
    """Dump transitions in the preload format that read_experience_csv loads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_experience_header())
        for exp in experiences:
            writer.writerow([int(exp.episode_id), int(exp.action), repr(float(exp.reward))]
                            + [repr(float(v)) for v in exp.state]
                            + [repr(float(v)) for v in exp.next_state])


def read_experience_csv(path) -> list[Experience]:
    """Load historical transitions; raises naming the offending row index."""
    expected = _experience_header()
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty experience file") from None
        if header != expected:
            raise ValueError(f"{path}: unexpected header (want episode_id,action_code,"
                             f"reward,s_0..s_{qnet.STATE_DIM - 1},sn_0..sn_{qnet.STATE_DIM - 1})")
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(expected):
                raise ValueError(f"record {i}: expected {len(expected)} columns, got {len(row)}")
            try:
                exp = Experience(
                    state=np.array([float(v) for v in row[3:3 + qnet.STATE_DIM]]),
                    action=int(row[1]),
                    reward=float(row[2]),
                    next_state=np.array([float(v) for v in row[3 + qnet.STATE_DIM:]]),
                    episode_id=int(row[0]),
                )
                validate_experience(exp)
            except ValueError as exc:
                raise ValueError(f"record {i}: {exc}") from None
            records.append(exp)
    return records
