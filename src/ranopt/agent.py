"""Double-Q learning agent over the five scheduler options.

The replay buffer is a ring of 5,000 transitions in five preallocated arrays,
the arrays a checkpoint stores; each transition is checked on its way in.
Because learning uses n-step temporal-difference targets, training batches
are contiguous segments of experience sampled from the buffer; a segment
never crosses an episode boundary (rest minutes produce no experience at
all, so the gap between episodes is structural). Targets follow the double-Q
rule: the online network picks the bootstrap action, the slowly tracking
target network evaluates it, and after every training step the target
network takes a small Polyak step toward the online one.

The control task is continuous; there is no terminal state and no done flag
anywhere in the update.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import qnet
from .qnet import N_ACTIONS, STATE_DIM, QNetParams

REPLAY_CAPACITY = 5000
# The ring's arrays, named as the checkpoint members that store them.
BUFFER_FIELDS = ("states", "next_states", "actions", "rewards", "episode_ids")
_DTYPES = (np.float64, np.float64, np.int64, np.float64, np.int64)


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


def _columns(records: list[Experience]) -> list[np.ndarray]:
    """The BUFFER_FIELDS arrays of a non-empty list of transitions."""
    return [np.array([getattr(e, f) for e in records], dtype=t)
            for f, t in zip(("state", "next_state", "action", "reward", "episode_id"), _DTYPES)]


def _check_transitions(states, next_states, actions, rewards, episode_ids) -> None:
    """Refuse BUFFER_FIELDS arrays unless every transition has finite states,
    a reward in [-1, 1] and a valid action; names a bad one as "record i"."""
    shapes = {name: list(np.shape(a)) for name, a in
              zip(BUFFER_FIELDS, (states, next_states, actions, rewards, episode_ids))}
    n = len(rewards)
    if shapes != dict(zip(BUFFER_FIELDS, [[n, STATE_DIM]] * 2 + [[n]] * 3)):
        raise ValueError(f"buffer arrays {shapes} must be [n, {STATE_DIM}] states and n others")
    ok = np.array([np.isfinite(states).all(axis=1), np.isfinite(next_states).all(axis=1),
                   (-1.0 <= rewards) & (rewards <= 1.0), (0 <= actions) & (actions < N_ACTIONS)])
    if not ok.all():
        i, fault = divmod(int(np.argmin(ok.T)), len(ok))  # first bad record, its first fault
        raise ValueError(f"record {i}: " + [
            "state holds a non-finite value", "next_state holds a non-finite value",
            f"reward {rewards[i]} outside [-1, 1]", f"action {actions[i]} outside [0, {N_ACTIONS})",
        ][fault])


class ReplayBuffer:
    """Ring of transitions in five preallocated arrays named as BUFFER_FIELDS.

    Logical entry i (0 is the oldest) sits in row (start + i) % capacity;
    writing to a full ring overwrites its oldest entries, so start > 0 only
    when the ring is full.
    """

    def __init__(self, capacity: int = REPLAY_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.zeros((capacity, STATE_DIM))
        self.next_states = np.zeros((capacity, STATE_DIM))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.episode_ids = np.zeros(capacity, dtype=np.int64)
        self.start = self.size = 0
        self._segment_starts = {}  # n_step -> valid_segment_starts, until the next write

    def __len__(self):
        return self.size

    def __iter__(self):
        """Experience views of the entries, oldest first; their states are
        rows of the ring, valid until the ring is next written or rotated."""
        for j in self.rows(np.arange(self.size)).tolist():
            yield Experience(state=self.states[j], action=int(self.actions[j]),
                             reward=float(self.rewards[j]), next_state=self.next_states[j],
                             episode_id=int(self.episode_ids[j]))

    def rows(self, logical) -> np.ndarray:
        """Ring rows of logical positions."""
        return (self.start + logical) % self.capacity

    def extend(self, states, next_states, actions, rewards, episode_ids) -> None:
        """Append BUFFER_FIELDS arrays, oldest first; only the most recent
        `capacity` entries survive, and nothing is written if one is refused."""
        columns = [np.asarray(a, dtype=t) for a, t in
                   zip((states, next_states, actions, rewards, episode_ids), _DTYPES)]
        _check_transitions(*columns)
        n = len(columns[0])
        keep = min(n, self.capacity)
        rows = self.rows(self.size + np.arange(n - keep, n))
        for name, a in zip(BUFFER_FIELDS, columns):
            getattr(self, name)[rows] = a[n - keep:]
        self.start = (self.start + max(0, self.size + n - self.capacity)) % self.capacity
        self.size = min(self.size + n, self.capacity)
        self._segment_starts.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The entries as BUFFER_FIELDS arrays in logical order, as views of
        the ring: rotates the ring in place, one array at a time, so that the
        oldest entry sits in row 0."""
        if self.start:
            for name in BUFFER_FIELDS:
                getattr(self, name)[:] = np.roll(getattr(self, name), -self.start, axis=0)
            self.start = 0
        return {name: getattr(self, name)[:self.size] for name in BUFFER_FIELDS}


def preload(buffer: ReplayBuffer, records: list[Experience]) -> None:
    """Append historical transitions in order; only the most recent ones survive.
    Nothing is written if a record is malformed; the error names it by index."""
    if records:
        buffer.extend(*_columns(records))


def valid_segment_starts(buffer: ReplayBuffer, n_step: int) -> np.ndarray:
    """Logical indices where n_step consecutive entries share one episode.

    The buffer keeps the read-only result until its next write, so a
    training tick that checks for a segment and then samples one scans once.
    """
    starts = buffer._segment_starts.get(n_step)
    if starts is not None:
        return starts
    size = len(buffer)
    if size < n_step:
        starts = np.empty(0, dtype=np.int64)
    else:
        ring = buffer.episode_ids
        ids = np.concatenate((ring[buffer.start:size], ring[:buffer.start]))  # logical order
        run = np.concatenate(([0], np.cumsum(ids[1:] != ids[:-1])))  # run of equal ids per entry
        starts = np.flatnonzero(run[n_step - 1:] == run[:size - n_step + 1])
    starts.flags.writeable = False
    buffer._segment_starts[n_step] = starts
    return starts


def sample_segments(buffer: ReplayBuffer, n_step: int, batch: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Ring rows of contiguous intra-episode segments, shape (batch, n_step):
    starts are uniform over the valid ones, with replacement across the batch."""
    starts = valid_segment_starts(buffer, n_step)
    if starts.size == 0:
        raise ValueError(f"buffer holds no contiguous segment of length {n_step}")
    picks = starts[rng.integers(0, starts.size, size=batch)]
    return buffer.rows(picks[:, None] + np.arange(n_step))


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


def double_q_target(rewards: np.ndarray, s_boot: np.ndarray, online: QNetParams,
                    target: QNetParams, gamma: float) -> np.ndarray:
    """n-step double-Q targets for segments with (batch, n) rewards, oldest
    first, and (batch, 58) states s_boot after their last transitions.

    Sums the n discounted rewards, then bootstraps at s_boot: the online
    network chooses the action, the target network scores it, discounted by
    gamma**n.
    """
    batch, n = np.shape(rewards)
    a_star = qnet.forward_batch(online, s_boot).argmax(axis=1)
    q_boot = qnet.forward_batch(target, s_boot)[np.arange(batch), a_star]
    ret = np.zeros(batch)
    for i in range(n):  # reward by reward: the summation order fixes the rounding
        ret += gamma ** i * rewards[:, i]
    return ret + gamma ** n * q_boot


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

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray, episode_id: int) -> None:
        """Append one checked transition to the replay buffer."""
        self.buffer.extend([state], [next_state], [action], [reward], [episode_id])

    def can_train(self) -> bool:
        return valid_segment_starts(self.buffer, self.cfg.n_step).size > 0

    def train_step(self) -> float:
        """One replayed update; returns the batch mean absolute TD error.

        Samples batch_segments segments, forms double-Q targets, ascends the
        (Y - Q) * grad Q direction with the learning rate averaged over the
        batch, then Polyak-updates the target network. Raises
        FloatingPointError on a non-finite TD error, before either changes.
        """
        cfg, buf = self.cfg, self.buffer
        rows = sample_segments(buf, cfg.n_step, cfg.batch_segments, self.rng)
        s0, a0 = buf.states[rows[:, 0]], buf.actions[rows[:, 0]]
        targets = double_q_target(buf.rewards[rows], buf.next_states[rows[:, -1]],
                                  self.online, self.target, cfg.gamma)
        td = targets - qnet.forward_batch(self.online, s0)[np.arange(len(rows)), a0]
        if not np.isfinite(td).all():
            raise FloatingPointError(f"non-finite TD error in {td.tolist()}")

        total = None
        for b in range(len(rows)):
            g = qnet.backward(self.online, s0[b], int(a0[b]))
            if total is None:
                total = QNetParams(td[b] * g.w1, td[b] * g.b1, td[b] * g.w2, td[b] * g.b2)
            else:
                total.w1 += td[b] * g.w1
                total.b1 += td[b] * g.b1
                total.w2 += td[b] * g.w2
                total.b2 += td[b] * g.b2

        self.online = qnet.apply_gradient(self.online, total,
                                          cfg.learning_rate / len(rows))
        self.target = qnet.soft_update(self.target, self.online, cfg.tau)
        return float(np.mean(np.abs(td)))


# --- historical-experience files ---------------------------------------------

def _experience_header() -> list[str]:
    return (["episode_id", "action_code", "reward"]
            + [f"s_{i}" for i in range(STATE_DIM)]
            + [f"sn_{i}" for i in range(STATE_DIM)])


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
    """Load historical transitions; raises naming the offending record by its
    index among the non-blank rows."""
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
                             f"reward,s_0..s_{STATE_DIM - 1},sn_0..sn_{STATE_DIM - 1})")
        for i, row in enumerate(row for row in reader if row):
            if len(row) != len(expected):
                raise ValueError(f"record {i}: expected {len(expected)} columns, got {len(row)}")
            try:
                records.append(Experience(
                    state=np.array([float(v) for v in row[3:3 + STATE_DIM]]),
                    action=int(row[1]),
                    reward=float(row[2]),
                    next_state=np.array([float(v) for v in row[3 + STATE_DIM:]]),
                    episode_id=int(row[0]),
                ))
            except ValueError as exc:
                raise ValueError(f"record {i}: {exc}") from None
    if records:
        _check_transitions(*_columns(records))
    return records
