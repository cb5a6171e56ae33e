"""Double-Q learning agent over the five scheduler options.

The replay buffer is a ring of 5,000 transitions in five preallocated arrays,
which a checkpoint stores with each next state kept once; each transition is
checked on its way in.
Because learning uses n-step temporal-difference targets, training batches
are contiguous segments of experience sampled from the buffer; a segment
never crosses an episode boundary (rest minutes produce no experience at
all, so the gap between episodes is structural). Targets follow the double-Q
rule: the online network picks the bootstrap action, the slowly tracking
target network evaluates it, and after every training step the target
network takes a small Polyak step toward the online one. A step evaluates
the online network once, on its segments' first states and bootstrap states
stacked as rows, and takes both the bootstrap action and the TD errors from
that pass; the target network's pass is the only other one.

The control task is continuous; there is no terminal state and no done flag
anywhere in the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qnet
from .qnet import N_ACTIONS, STATE_DIM

REPLAY_CAPACITY = 5000
# The ring's arrays, named as the checkpoint members that store them; a
# checkpoint's next_states keeps only the rows its bool member chained leaves
# False (ReplayBuffer.packed).
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
        if not self.learning_rate >= 0:  # a NaN fails too
            raise ValueError("learning_rate must be >= 0")
        if self.batch_segments < 1:
            raise ValueError("batch_segments must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _transition_ok(states, next_states, actions, rewards) -> list:
    """Per transition (or for one): finite states, reward in [-1, 1], valid action."""
    return [np.isfinite(states).all(axis=-1), np.isfinite(next_states).all(axis=-1),
            (-1.0 <= rewards) & (rewards <= 1.0), (0 <= actions) & (actions < N_ACTIONS)]


def _check_transitions(states, next_states, actions, rewards, episode_ids) -> None:
    """Refuse BUFFER_FIELDS arrays unless every transition has finite states,
    a reward in [-1, 1] and a valid action; names a bad one as "record i"."""
    shapes = {name: list(np.shape(a)) for name, a in
              zip(BUFFER_FIELDS, (states, next_states, actions, rewards, episode_ids))}
    n = len(rewards)
    if shapes != dict(zip(BUFFER_FIELDS, [[n, STATE_DIM]] * 2 + [[n]] * 3)):
        raise ValueError(f"buffer arrays {shapes} must be [n, {STATE_DIM}] states and n others")
    ok = np.array(_transition_ok(states, next_states, actions, rewards))
    if not ok.all():
        i, fault = divmod(int(np.argmin(ok.T)), len(ok))  # first bad record, its first fault
        raise ValueError(f"record {i}: " + [
            "state holds a non-finite value", "next_state holds a non-finite value",
            f"reward {rewards[i]} outside [-1, 1]", f"action {actions[i]} outside [0, {N_ACTIONS})",
        ][fault])


def _unpack(states, stored, chained) -> np.ndarray:
    """Every entry's next state, in a new array, from the chained flags and
    next_states rows that ReplayBuffer.packed stores."""
    states = np.asarray(states)
    if chained.dtype != bool or chained.shape != (len(states),):
        raise ValueError(f"member chained is {chained.dtype}{list(chained.shape)}, "
                         f"expected bool[{len(states)}]: one flag per states row")
    if chained[-1:].any():
        raise ValueError("member chained flags the last entry, which has no next entry")
    if np.count_nonzero(~chained) != len(stored):
        raise ValueError(f"member chained leaves {np.count_nonzero(~chained)} entries "
                         f"unchained, but next_states has {len(stored)} rows")
    if np.shape(stored)[1:] != states.shape[1:]:
        return stored  # rows of another width: extend refuses the shapes
    next_states = np.empty(states.shape)
    next_states[:-1] = states[1:]  # slices, not a masked gather: no third full-size array
    next_states[~chained] = stored
    return next_states


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
        `capacity` entries survive, and nothing is written if one is refused.
        Each array is written in at most two slice copies: the run up to the
        ring's end, then the wrapped rest from row 0."""
        columns = [np.asarray(a, dtype=t) for a, t in
                   zip((states, next_states, actions, rewards, episode_ids), _DTYPES)]
        _check_transitions(*columns)
        n = len(columns[0])
        keep = min(n, self.capacity)
        first = (self.start + self.size + n - keep) % self.capacity  # row of the first kept entry
        run = min(keep, self.capacity - first)
        for name, a in zip(BUFFER_FIELDS, columns):
            ring, kept = getattr(self, name), a[n - keep:]
            ring[first:first + run] = kept[:run]
            ring[:keep - run] = kept[run:]
        self.start = (self.start + max(0, self.size + n - self.capacity)) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def append(self, state, next_state, action, reward, episode_id) -> None:
        """Append one transition in one row write, refused as extend refuses a batch of one."""
        if not (np.shape(state) == np.shape(next_state) == (STATE_DIM,)
                and all(_transition_ok(state, next_state, action, reward))):
            _check_transitions(*(np.asarray([a], dtype=t) for a, t in
                                 zip((state, next_state, action, reward, episode_id), _DTYPES)))
        row = (self.start + self.size) % self.capacity
        self.states[row], self.next_states[row] = state, next_state
        self.actions[row], self.rewards[row], self.episode_ids[row] = action, reward, episode_id
        self.start = (self.start + (self.size == self.capacity)) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def load(self, arrays) -> None:
        """Append the transitions of a mapping as packed gives it: the members
        of the checkpoint.npz of a directory that a resume, an eval or a preload
        names, as load_checkpoint finds them present and not 0-d. Refuses more
        transitions than the ring holds, actions or episode ids not of an integer
        type that int64 holds and a chained that does not fit the arrays; extend
        refuses the rest, and nothing is written if one is refused."""
        columns = [arrays[name] for name in BUFFER_FIELDS]
        if max(map(len, columns)) > self.capacity:
            raise ValueError(f"buffer holds more than {self.capacity} transitions")
        for name in ("actions", "episode_ids"):  # the ring's cast would round or wrap others
            dtype = np.asarray(arrays[name]).dtype
            if not (np.issubdtype(dtype, np.integer) and np.can_cast(dtype, np.int64)):
                raise ValueError(f"member {name} is {dtype}, expected integers that int64 holds")
        columns[1] = _unpack(columns[0], columns[1], np.asarray(arrays["chained"]))
        self.extend(*columns)

    def arrays(self) -> dict[str, np.ndarray]:
        """The entries as BUFFER_FIELDS arrays in logical order, as views of
        the ring: rotates the ring in place, one array at a time, so that the
        oldest entry sits in row 0."""
        if self.start:
            for name in BUFFER_FIELDS:
                getattr(self, name)[:] = np.roll(getattr(self, name), -self.start, axis=0)
            self.start = 0
        return {name: getattr(self, name)[:self.size] for name in BUFFER_FIELDS}

    def packed(self) -> dict[str, np.ndarray]:
        """arrays() with each next state stored once: a bool array chained
        flags entry i whose next state is, bit for bit, entry i + 1's state,
        and next_states keeps the rows of the other entries, in order. The
        last entry is never chained; load unpacks."""
        arrays = self.arrays()
        states, next_states = arrays["states"], arrays["next_states"]
        chained = np.zeros(len(states), dtype=bool)
        # bitwise, not by float ==, which would equate -0.0 with 0.0
        chained[:-1] = (next_states[:-1].view(np.int64) == states[1:].view(np.int64)).all(axis=1)
        return {**arrays, "next_states": next_states[~chained], "chained": chained}


def preload(buffer: ReplayBuffer, records: list[Experience]) -> None:
    """Append historical transitions in order; only the most recent ones survive.
    Nothing is written if a record is malformed; the error names it by index."""
    if records:
        buffer.extend(*_columns(records))


def valid_segment_starts(buffer: ReplayBuffer, n_step: int) -> np.ndarray:
    """Logical indices where n_step consecutive entries share one episode;
    one scan of the ring on every call."""
    size = len(buffer)
    if size < n_step:
        return np.empty(0, dtype=np.int64)
    ring = buffer.episode_ids
    ids = np.concatenate((ring[buffer.start:size], ring[:buffer.start]))  # logical order
    last = size - n_step + 1  # starts 0..last-1 fit in the ring
    ok = ids[:last] == ids[n_step - 1:]
    for j in range(1, n_step - 1):  # every entry of a segment has its first entry's id
        ok &= ids[j:last + j] == ids[:last]
    return ok.nonzero()[0]


def sample_segments(buffer: ReplayBuffer, n_step: int, batch: int,
                    rng: np.random.Generator) -> np.ndarray | None:
    """Ring rows of contiguous intra-episode segments, shape (batch, n_step):
    starts are uniform over the valid ones, with replacement across the batch.
    None, with rng not drawn from, when the buffer holds no such segment."""
    starts = valid_segment_starts(buffer, n_step)
    if starts.size == 0:
        return None
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
    return int(q_values.argmax())


def double_q_target(rewards: np.ndarray, q_online: np.ndarray, q_target: np.ndarray,
                    gamma: float) -> np.ndarray:
    """n-step double-Q targets for segments with (batch, n) rewards, oldest
    first, from the two networks' (batch, N_ACTIONS) action values at the
    states after their last transitions.

    Sums the n discounted rewards, then bootstraps: the online network
    chooses the action, the target network scores it, discounted by gamma**n.
    """
    batch, n = np.shape(rewards)
    q_boot = q_target[np.arange(batch), q_online.argmax(axis=1)]
    ret = np.zeros(batch)
    for i in range(n):  # reward by reward: the summation order fixes the rounding
        ret += gamma ** i * rewards[:, i]
    return ret + gamma ** n * q_boot


class DoubleQAgent:
    """Online/target network vectors plus replay buffer and exploration schedule."""

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
        """Pick an option; training-mode calls advance the exploration schedule.
        Raises FloatingPointError on a non-finite action value, before the
        schedule or the RNG moves."""
        q = qnet.forward(self.online, state)
        if not all(map(math.isfinite, q.tolist())):
            raise FloatingPointError(f"non-finite Q-value in {q.tolist()}")
        if greedy:
            return select_action(q, 0.0, self.rng)
        action = select_action(q, self.epsilon, self.rng)
        self.global_step += 1
        return action

    def train_step(self) -> float | None:
        """One replayed update; returns the batch mean absolute TD error, or
        None, changing nothing, while the buffer holds no n_step segment.

        Samples batch_segments segments and evaluates the online network
        once, on their first states and their bootstrap states stacked as
        rows: that pass gives the double-Q action choice and the TD errors,
        and qnet.backward differentiates it; the target network scores the
        bootstrap states in a second pass. Ascends the sum of (Y - Q) *
        grad Q over the batch at the learning rate averaged over the batch,
        then Polyak-updates the target network. Raises FloatingPointError on
        a non-finite TD error, before either network changes.
        """
        cfg, buf = self.cfg, self.buffer
        rows = sample_segments(buf, cfg.n_step, cfg.batch_segments, self.rng)
        if rows is None:
            return None
        batch = len(rows)
        stacked = np.empty((2 * batch, STATE_DIM))  # first states, then bootstrap states
        states, s_boot = stacked[:batch], stacked[batch:]
        buf.states.take(rows[:, 0], axis=0, out=states)
        buf.next_states.take(rows[:, -1], axis=0, out=s_boot)
        hidden, q = qnet.forward_batch(self.online, stacked)
        targets = double_q_target(buf.rewards[rows], q[batch:],
                                  qnet.forward_batch(self.target, s_boot)[1], cfg.gamma)
        td, grad = qnet.backward(self.online, states, hidden[:batch], q[:batch],
                                 buf.actions[rows[:, 0]], targets)
        self.online = qnet.apply_gradient(self.online, grad, cfg.learning_rate / batch)
        self.target = qnet.soft_update(self.target, self.online, cfg.tau)
        return float(np.add.reduce(np.abs(td))) / batch
