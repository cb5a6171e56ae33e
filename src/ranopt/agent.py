"""Double-Q learning agent over the five scheduler options.

The replay buffer is a ring of 5,000 transitions that stores each state
once: an entry whose next state is the following entry's state is chained,
and only the other entries keep a next state of their own (in a training
episode, its last), so which entries keep one is the whole record of the
chain. A load takes over the arrays a checkpoint holds as they are; each
transition is checked on its way in.
Because learning uses n-step temporal-difference targets, training batches
are contiguous segments of experience sampled from the buffer; a segment
never crosses an episode boundary (rest minutes produce no experience at
all, so the gap between episodes is structural). The ring keeps an index of
the valid segment starts as it is written, so a sample draws from it rather
than scanning the ring's episode ids. Targets follow the double-Q
rule: the online network picks the bootstrap action, the slowly tracking
target network evaluates it, and after every training step the target
network takes a small Polyak step toward the online one. A step evaluates
the online network once, on its segments' first states and bootstrap states
stacked as rows, and takes both the bootstrap action and the TD errors from
that pass; the target network's pass is the only other one. Both steps
write their network vector in place, so each network's layer views are
built once, when the vector is set. Everything else a step computes is
written into arrays that the agent builds at its first step for its
batch_segments and n_step (its step arrays), through the out= and
scratch= arguments of sample_segments, double_q_target and the qnet
functions. A copy or a pickle of the agent leaves them out and builds its
own: a copied view would no longer alias the copied array it reads.

The control task is continuous; there is no terminal state and no done flag
anywhere in the update.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qnet
from .qnet import HIDDEN_DIM, N_ACTIONS, N_PARAMS, STATE_DIM

REPLAY_CAPACITY = 5000
# The transition fields as extend takes them, named as the checkpoint members
# that store them; the ring keeps next_states only for its unchained entries.
BUFFER_FIELDS = ("states", "next_states", "actions", "rewards", "episode_ids")
_DTYPES = (np.float64, np.float64, np.int64, np.float64, np.int64)
# The arrays the ring holds, one row per entry.
_RING_FIELDS = ("states", "actions", "rewards", "episode_ids")


@dataclass
class AgentConfig:
    """Learning and exploration settings; the seed is the run's, which DoubleQAgent takes."""

    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.1
    epsilon_decay: float = 0.999  # per-step multiplier
    n_step: int = 3
    tau: float = 0.01
    learning_rate: float = 1e-3
    batch_segments: int = 16

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


def _holds_int64(dtype: np.dtype) -> bool:
    """Whether the ring's int64 cast keeps every value of dtype: an integer
    type, not bool, that int64 holds."""
    return np.issubdtype(dtype, np.integer) and np.can_cast(dtype, np.int64)


def _as_columns(states, next_states, actions, rewards, episode_ids) -> list[np.ndarray]:
    """The BUFFER_FIELDS arrays of transitions in the ring's dtypes. Refuses,
    naming record 0, actions or episode ids of any other type than integers
    that int64 holds, which the cast would truncate, wrap or take for 0 and 1."""
    columns = [np.asarray(a) for a in (states, next_states, actions, rewards, episode_ids)]
    for label, a in (("action", columns[2]), ("episode id", columns[4])):
        if a.size and not _holds_int64(a.dtype):
            raise ValueError(f"record 0: {label} {a.flat[0]} is {a.dtype}, "
                             f"expected an integer that int64 holds")
    return [a.astype(t, copy=False) for a, t in zip(columns, _DTYPES)]


def _transition_ok(states, next_states, actions, rewards) -> list:
    """Per transition (or for one): finite states, reward in [-1, 1], valid action."""
    return [np.isfinite(states).all(axis=-1), np.isfinite(next_states).all(axis=-1),
            (-1.0 <= rewards) & (rewards <= 1.0), (0 <= actions) & (actions < N_ACTIONS)]


def _check_transitions(states, next_states, actions, rewards, episode_ids,
                       chained=None) -> None:
    """Refuse BUFFER_FIELDS arrays unless every transition has finite states,
    a reward in [-1, 1] and a valid action; names a bad one as "record i".

    With chained, a bool array with one flag per states row, next_states
    holds only the rows of the entries it leaves False, as ReplayBuffer.packed
    gives them; a flagged entry's next state is the following entry's state.
    """
    next_shape = np.shape(next_states)
    if chained is not None and next_shape[1:] == np.shape(states)[1:]:
        next_shape = np.shape(states)  # one next state per entry, as the arrays stand for
    shapes = {name: list(shape) for name, shape in zip(BUFFER_FIELDS, (
        np.shape(states), next_shape, np.shape(actions), np.shape(rewards), np.shape(episode_ids)))}
    n = len(rewards)
    if shapes != dict(zip(BUFFER_FIELDS, [[n, STATE_DIM]] * 2 + [[n]] * 3)):
        raise ValueError(f"buffer arrays {shapes} must be [n, {STATE_DIM}] states and n others")
    ok = _transition_ok(states, next_states, actions, rewards)
    if chained is not None:
        next_ok = np.zeros(n, dtype=bool)
        next_ok[:-1] = ok[0][1:]
        next_ok[~chained] = ok[1]
        ok[1] = next_ok
    ok = np.array(ok)
    if not ok.all():
        i, fault = divmod(int(np.argmin(ok.T)), len(ok))  # first bad record, its first fault
        raise ValueError(f"record {i}: " + [
            "state holds a non-finite value", "next_state holds a non-finite value",
            f"reward {rewards[i]} outside [-1, 1]", f"action {actions[i]} outside [0, {N_ACTIONS})",
        ][fault])


def _ring_of(a: np.ndarray, capacity: int) -> np.ndarray:
    """a as a ring array of capacity rows: a itself when it has that many
    and is writable, else a copy in the first rows of zeroed ones."""
    if len(a) == capacity and a.flags.writeable:
        return a
    ring = np.zeros((capacity, *a.shape[1:]), dtype=a.dtype)
    ring[:len(a)] = a
    return ring


class ReplayBuffer:
    """Ring of transitions, each state stored once.

    Logical entry i (0 is the oldest) sits in row (start + i) % capacity of
    the arrays states, actions, rewards and episode_ids, capacity rows each;
    writing to a full ring overwrites its oldest entries, so start > 0 only
    when the ring is full. An entry is chained when its next state is, bit
    for bit, the following entry's state, which the following row holds;
    the dict stored maps the ring row of every other entry, and of those
    only, to its next state, so an entry is chained exactly when its row is
    not a key of stored. The newest entry is never chained: an append or an
    extend chains it when the state that follows it arrives. next_states_at
    reads the next states of ring rows.

    The segment-start index holds, for one n_step, the ring rows of the
    valid n-step segment starts (see valid_segment_starts) oldest first, in
    a ring of capacity rows read from a head; sample_segments draws through
    it. One scan builds it at its first use; append then keeps it in O(1):
    it drops the oldest start when it overwrites that entry and pushes a
    start when the newest n_step entries share an episode id, which it
    tracks as the length and id of the newest run of equal ids. Every other
    write (extend, load, the rotation of packed, shift_episode_ids) marks it
    stale, to be rebuilt by the next sample, as does a sample for another
    n_step.
    """

    def __init__(self, capacity: int = REPLAY_CAPACITY, arrays=None):
        """An empty ring, or, given arrays, the ring load makes of them,
        built around them with no zeroed ring made first."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stored: dict[int, np.ndarray] = {}  # ring row -> next state, unchained rows only
        self.start = self.size = 0
        self._segment_n = 0  # the n_step of the segment-start index; 0 while it is stale
        self._starts = None  # its ring, made at its first build
        if arrays is not None:
            self.load(arrays)
            return
        self.states = np.zeros((capacity, STATE_DIM))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.episode_ids = np.zeros(capacity, dtype=np.int64)

    def __len__(self):
        return self.size

    def __iter__(self):
        """Experience views of the entries, oldest first; their states are
        rows of the ring, valid until the ring is next written or rotated."""
        for j in self.rows(np.arange(self.size)).tolist():
            yield Experience(state=self.states[j], action=int(self.actions[j]),
                             reward=float(self.rewards[j]),
                             next_state=self.stored.get(j, self.states[(j + 1) % self.capacity]),
                             episode_id=int(self.episode_ids[j]))

    def rows(self, logical) -> np.ndarray:
        """Ring rows of logical positions."""
        return (self.start + logical) % self.capacity

    def next_states_at(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The next states of the entries in ring rows, a 1-D integer array, as
        rows of out or of a new array: a chained entry's from the following row
        of states, any other's from the stored ones."""
        # wrap: the row after the ring's last is row 0
        out = self.states.take(rows + 1, axis=0, out=out, mode="wrap")
        for i, row in enumerate(rows.tolist()):
            if row in self.stored:
                out[i] = self.stored[row]
        return out

    def _chain_newest(self, state: np.ndarray) -> None:
        """Chain the newest entry, dropping its stored next state, if state, the
        state of the entry that follows it, equals that next state bit for bit.
        Called before that entry is written."""
        newest = (self.start + self.size - 1) % self.capacity
        # bit for bit, as the int64 views in extend: float == would equate -0.0 with 0.0
        if self.size and state.tobytes() == self.stored[newest].tobytes():
            del self.stored[newest]

    def extend(self, states, next_states, actions, rewards, episode_ids) -> None:
        """Append BUFFER_FIELDS arrays, oldest first; only the most recent
        `capacity` entries survive, and nothing is written if one is refused.
        Each ring array is written in at most two slice copies: the run up to
        the ring's end, then the wrapped rest from row 0."""
        columns = _as_columns(states, next_states, actions, rewards, episode_ids)
        _check_transitions(*columns)
        states, next_states, actions, rewards, episode_ids = columns
        n = len(states)
        if n == 0:
            return
        self._segment_n = 0
        chained = np.zeros(n, dtype=bool)
        # bitwise, by int64 views: float == would equate -0.0 with 0.0
        chained[:-1] = (next_states[:-1].view(np.int64) == states[1:].view(np.int64)).all(axis=1)
        self._chain_newest(states[0])
        keep = min(n, self.capacity)
        first = (self.start + self.size + n - keep) % self.capacity  # row of the first kept entry
        run = min(keep, self.capacity - first)
        # drop the next states of the entries about to be overwritten, then keep the new ones
        self.stored = {row: s for row, s in self.stored.items()
                       if (row - first) % self.capacity >= keep}
        unchained = np.flatnonzero(~chained[n - keep:])
        self.stored.update(zip(((first + unchained) % self.capacity).tolist(),
                               next_states[n - keep:][unchained]))
        for name, a in zip(_RING_FIELDS, (states, actions, rewards, episode_ids)):
            ring, kept = getattr(self, name), a[n - keep:]
            ring[first:first + run] = kept[:run]
            ring[:keep - run] = kept[run:]
        self.start = (self.start + max(0, self.size + n - self.capacity)) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def append(self, state, next_state, action, reward, episode_id) -> None:
        """Append one transition, refused as extend refuses a batch of one,
        and keep the segment-start index, unless it is stale."""
        if not (type(action) is int and type(episode_id) is int  # a bool or a float is not
                and -2 ** 63 <= episode_id < 2 ** 63
                and np.shape(state) == np.shape(next_state) == (STATE_DIM,)
                and -1.0 <= reward <= 1.0 and 0 <= action < N_ACTIONS
                and np.logical_and.reduce(np.isfinite((state, next_state)), axis=None)):
            _check_transitions(*_as_columns([state], [next_state], [action], [reward],
                                            [episode_id]))
            action, episode_id = int(action), int(episode_id)
        capacity, n = self.capacity, self._segment_n
        row = (self.start + self.size) % capacity
        full = self.size == capacity
        if n and full and self._count and self._starts[self._head] == row:
            self._head, self._count = (self._head + 1) % capacity, self._count - 1
        self.states[row] = state
        self._chain_newest(self.states[row])
        self.stored[row] = np.array(next_state, dtype=np.float64)
        self.actions[row], self.rewards[row], self.episode_ids[row] = action, reward, episode_id
        self.start = (self.start + full) % capacity
        self.size = min(self.size + 1, capacity)
        if n:
            self._run = self._run + 1 if episode_id == self._run_id else 1
            self._run_id = episode_id
            if self._run >= n and self.size >= n:  # the newest n entries share an id
                self._starts[(self._head + self._count) % capacity] = (row - n + 1) % capacity
                self._count += 1

    def _segment_index(self, n_step: int) -> tuple[np.ndarray, int, int]:
        """The segment-start index for n_step: its ring, its head and its
        count, the ring rows of the valid starts being ring[(head + k) %
        capacity] for k < count; one scan rebuilds it when it is stale or
        held for another n_step."""
        if self._segment_n != n_step:
            if self._starts is None:
                self._starts = np.empty(self.capacity, dtype=np.int64)
            starts = valid_segment_starts(self, n_step)
            self._head, self._count = 0, len(starts)
            self._starts[:self._count] = self.rows(starts)
            ids = self.episode_ids.take(self.rows(np.arange(self.size)))
            breaks = np.flatnonzero(ids != ids[-1:])  # entries of other ids than the newest
            self._run = self.size - 1 - int(breaks[-1]) if breaks.size else self.size
            self._run_id = int(ids[-1]) if self.size else None
            self._segment_n = n_step
        return self._starts, self._head, self._count

    def shift_episode_ids(self, offset: int) -> None:
        """Add offset to every entry's episode id, in int64: equal ids stay
        equal, as long as no id wraps, which the caller rules out."""
        self.episode_ids[:self.size] += offset
        self._segment_n = 0

    def load(self, arrays) -> None:
        """Fill an empty ring with the transitions of a mapping as packed
        gives it: the members of the checkpoint.npz of a directory that a
        resume, an eval or a preload names, as load_checkpoint finds them
        present and not 0-d. Refuses more transitions than the ring holds,
        actions or episode ids not of an integer type that int64 holds, a
        chained that does not fit the arrays and a transition that extend
        would refuse; nothing is written if one is refused.

        The ring takes the arrays over, cast to its dtypes, without a copy
        when they fill it, and keeps the next_states rows as the stored next
        states of the entries chained leaves False; chained itself is not
        kept. Give it arrays of their own, as np.load returns them, not the
        views of a ring that packed returns.
        """
        if self.size:
            raise ValueError("load fills an empty ring")
        columns = [arrays[name] for name in BUFFER_FIELDS]
        if max(map(len, columns)) > self.capacity:
            raise ValueError(f"buffer holds more than {self.capacity} transitions")
        for name in ("actions", "episode_ids"):  # the ring's cast would round or wrap others
            dtype = np.asarray(arrays[name]).dtype
            if not _holds_int64(dtype):
                raise ValueError(f"member {name} is {dtype}, expected integers that int64 holds")
        chained, n, n_stored = np.asarray(arrays["chained"]), len(columns[0]), len(columns[1])
        if chained.dtype != bool or chained.shape != (n,):
            raise ValueError(f"member chained is {chained.dtype}{list(chained.shape)}, "
                             f"expected bool[{n}]: one flag per states row")
        if chained[-1:].any():
            raise ValueError("member chained flags the last entry, which has no next entry")
        if np.count_nonzero(~chained) != n_stored:
            raise ValueError(f"member chained leaves {np.count_nonzero(~chained)} entries "
                             f"unchained, but next_states has {n_stored} rows")
        states, next_states, actions, rewards, episode_ids = (
            np.ascontiguousarray(a, dtype=t) for a, t in zip(columns, _DTYPES))
        _check_transitions(states, next_states, actions, rewards, episode_ids, chained)
        for name, a in zip(_RING_FIELDS, (states, actions, rewards, episode_ids)):
            setattr(self, name, _ring_of(a, self.capacity))
        self.stored = dict(zip(np.flatnonzero(~chained).tolist(), next_states))
        self.size = n
        self._segment_n = 0

    def _rotate(self) -> None:
        """Move the oldest entry to row 0, rotating the ring in place one array at a time."""
        if self.start:
            for name in _RING_FIELDS:
                getattr(self, name)[:] = np.roll(getattr(self, name), -self.start, axis=0)
            self.stored = {(row - self.start) % self.capacity: s for row, s in self.stored.items()}
            self.start = 0
            self._segment_n = 0

    def packed(self) -> dict[str, np.ndarray]:
        """The ring as a checkpoint stores it: BUFFER_FIELDS arrays in logical
        order, views of the ring rotated in place so that the oldest entry
        sits in row 0, but for next_states, a new array of the stored next
        states in order; and a new bool array chained, one flag per entry,
        False for the entries that stored holds. The last entry is never
        chained; load adopts the arrays."""
        self._rotate()
        n = self.size
        unchained = sorted(self.stored)
        chained = np.ones(n, dtype=bool)
        chained[unchained] = False
        stored = np.array([self.stored[row] for row in unchained]).reshape(-1, STATE_DIM)
        return {"states": self.states[:n], "next_states": stored, "actions": self.actions[:n],
                "rewards": self.rewards[:n], "episode_ids": self.episode_ids[:n],
                "chained": chained}


def preload(buffer: ReplayBuffer, records: list[Experience]) -> None:
    """Append historical transitions in order; only the most recent ones survive.
    Nothing is written if a record is malformed; the error names it by index."""
    if records:
        buffer.extend(*_columns(records))


def valid_segment_starts(buffer: ReplayBuffer, n_step: int) -> np.ndarray:
    """Logical indices where n_step consecutive entries share one episode;
    one scan of the ring on every call. It builds a ring's segment-start
    index, which sampling reads instead."""
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
                    rng: np.random.Generator, out: np.ndarray | None = None
                    ) -> np.ndarray | None:
    """Ring rows of contiguous intra-episode segments, shape (batch, n_step),
    in out when given, an int64 array of that shape: starts are uniform over
    the valid ones, with replacement across the batch. None, with rng not
    drawn from and out not written, when the buffer holds no such segment.

    The draws index the ring's segment-start index, which append keeps, so
    a sample reads no episode ids unless the index was stale."""
    starts, head, count = buffer._segment_index(n_step)
    if not count:
        return None
    draws = rng.integers(head, head + count, size=batch)  # the draws of [0, count), plus head
    rows = np.add(starts.take(draws, mode="wrap")[:, None], qnet.row_numbers(n_step), out=out)
    return np.remainder(rows, buffer.capacity, out=rows)


def epsilon_at(step: int, cfg: AgentConfig) -> float:
    """Exploration rate after `step` action selections: exponential decay to the floor."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay ** step)


def action_values(net, states: np.ndarray) -> np.ndarray:
    """qnet.forward of one state or of (..., STATE_DIM) states under a network
    vector or its layers; raises FloatingPointError, naming the values, on a
    non-finite one in any row."""
    q = qnet.forward(net, states)
    if not all(map(math.isfinite, q.ravel().tolist())):
        raise FloatingPointError(f"non-finite Q-value in {q.tolist()}")
    return q


def greedy_options(net, states: np.ndarray) -> np.ndarray:
    """The greedy option of each of (..., STATE_DIM) states under a network
    vector or its layers, (...): the first of the best action values, as act
    picks with greedy set. Raises FloatingPointError on a non-finite action
    value."""
    return action_values(net, states).argmax(axis=-1)


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Greedy with probability 1 - epsilon (ties to the lowest index), else uniform."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    q_values = np.asarray(q_values)
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, q_values.size))
    return int(q_values.argmax())


@functools.lru_cache(maxsize=16)
def _discounts(gamma: float, n: int) -> np.ndarray:
    """gamma**i for i in 0..n, each Python's float power, read-only: the n
    reward discounts of an n-step target, then its bootstrap discount."""
    row = np.array([gamma ** i for i in range(n + 1)], dtype=np.float64)
    row.flags.writeable = False  # shared by every call of this gamma and n
    return row


def double_q_target(rewards: np.ndarray, q_online: np.ndarray, q_target: np.ndarray,
                    gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """n-step double-Q targets for segments with (batch, n) rewards, oldest
    first, from the two networks' (batch, N_ACTIONS) action values at the
    states after their last transitions; in out when given, a (batch,)
    float64 array.

    Sums the n discounted rewards, then bootstraps: the online network
    chooses the action, the target network scores it, discounted by gamma**n.
    The discounts of a (gamma, n) are built once and kept for later calls.
    """
    batch, n = np.shape(rewards)
    discounts = _discounts(gamma, n)
    q_boot = q_target[qnet.row_numbers(batch), q_online.argmax(axis=1)]
    discounted = rewards * discounts[:n]
    ret = np.empty(batch) if out is None else out
    ret.fill(0.0)  # the sum starts from 0.0, which turns a first -0.0 into 0.0
    for i in range(n):  # reward by reward: the summation order fixes the rounding
        ret += discounted[:, i]
    q_boot *= discounts[n]
    ret += q_boot
    return ret


class _StepArrays:
    """The arrays a learner step writes, for batch segments of n_step
    transitions, with the views of them that it reads:
    the segments' ring rows, their first and bootstrap states stacked as
    rows, their rewards and first actions, the online pass over the stack and
    the target pass over the bootstrap states, the targets, the TD errors,
    the gradient vector with its layer views and a scratch vector for an
    update's product."""

    def __init__(self, batch: int, n_step: int):
        self.rows = np.empty((batch, n_step), dtype=np.int64)
        self.first_rows, self.last_rows = self.rows[:, 0], self.rows[:, -1]
        self.stacked = np.empty((2 * batch, STATE_DIM))  # first states, then bootstrap states
        self.states, self.s_boot = self.stacked[:batch], self.stacked[batch:]
        self.rewards = np.empty((batch, n_step))
        self.actions = np.empty(batch, dtype=np.int64)
        hidden, q = np.empty((2 * batch, HIDDEN_DIM)), np.empty((2 * batch, N_ACTIONS))
        self.online_pass = hidden, q
        self.first_hidden, self.first_q, self.boot_q = hidden[:batch], q[:batch], q[batch:]
        self.target_pass = np.empty((batch, HIDDEN_DIM)), np.empty((batch, N_ACTIONS))
        self.targets = np.empty(batch)
        self.grad = np.empty(N_PARAMS)
        self.gradient = np.empty(batch), qnet.layers(self.grad)  # backward's td and gradient
        self.scratch = np.empty(N_PARAMS)


class DoubleQAgent:
    """Online/target network vectors plus replay buffer and exploration schedule.

    Setting a network vector builds its qnet.layers views once; train_step
    updates both vectors in place, so the views stay valid, and a copy of
    the agent builds views of its own vectors.

    The first train_step builds the arrays every step then writes, sized by
    the config's batch_segments and n_step, and a step whose config has
    changed either builds new ones. A copy or a pickle of the agent
    carries none of them: its first step builds its own, so that no view in
    them is of another agent's arrays.
    """

    def __init__(self, cfg: AgentConfig, buffer: ReplayBuffer | None = None, seed: int = 0):
        """A fresh agent; its replay ring is buffer, when given, else an empty one.
        seed sets both networks, init_params(seed), and the RNG, default_rng([seed, 1])."""
        self.cfg = cfg
        self.online = qnet.init_params(seed)
        self.target = self.online.copy()
        self.buffer = ReplayBuffer(REPLAY_CAPACITY) if buffer is None else buffer
        self.rng = np.random.default_rng([seed, 1])
        self.global_step = 0
        self._step_arrays = None  # built by the first train_step

    @property
    def online(self) -> np.ndarray:
        """The online network vector; train_step writes it in place."""
        return self._online

    @online.setter
    def online(self, theta: np.ndarray) -> None:
        self._online, self._online_layers = theta, qnet.layers(theta)

    @property
    def target(self) -> np.ndarray:
        """The target network vector; train_step writes it in place."""
        return self._target

    @target.setter
    def target(self, theta: np.ndarray) -> None:
        self._target, self._target_layers = theta, qnet.layers(theta)

    def __getstate__(self) -> dict:
        """The agent but for its layer views and its step arrays: a copy's
        views are of its own vectors, and its first step builds its arrays."""
        state = self.__dict__.copy()
        del state["_online_layers"], state["_target_layers"], state["_step_arrays"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.online, self.target = self._online, self._target
        self._step_arrays = None

    @property
    def epsilon(self) -> float:
        return epsilon_at(self.global_step, self.cfg)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Pick an option; training-mode calls advance the exploration schedule.
        Raises FloatingPointError on a non-finite action value, before the
        schedule or the RNG moves."""
        q = action_values(self._online_layers, state)
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
        then Polyak-updates the target network, each vector in place, so
        the layer views that the passes read are built once per vector.
        Raises FloatingPointError on a non-finite TD error, before either
        network changes.

        The sampled rows, the gathered states, rewards and actions, both
        passes, the targets, the TD errors, the gradient and the updates'
        products are written into the agent's step arrays (see DoubleQAgent)
        through the out= and scratch= arguments of the functions called, so
        that a warm step makes only those functions' small temporaries.
        """
        cfg, buf = self.cfg, self.buffer
        batch = cfg.batch_segments
        arrays = self._step_arrays
        if arrays is None or arrays.rows.shape != (batch, cfg.n_step):
            arrays = self._step_arrays = _StepArrays(batch, cfg.n_step)
        if sample_segments(buf, cfg.n_step, batch, self.rng, out=arrays.rows) is None:
            return None
        # the rows lie in the ring, so wrap changes none; it spares take a buffered copy
        buf.states.take(arrays.first_rows, axis=0, out=arrays.states, mode="wrap")
        buf.next_states_at(arrays.last_rows, out=arrays.s_boot)
        qnet.forward_batch(self._online_layers, arrays.stacked, out=arrays.online_pass)
        targets = double_q_target(
            buf.rewards.take(arrays.rows, out=arrays.rewards, mode="wrap"), arrays.boot_q,
            qnet.forward_batch(self._target_layers, arrays.s_boot, out=arrays.target_pass)[1],
            cfg.gamma, out=arrays.targets)
        td = qnet.backward(self._online_layers, arrays.states, arrays.first_hidden,
                           arrays.first_q,
                           buf.actions.take(arrays.first_rows, out=arrays.actions, mode="wrap"),
                           targets, out=arrays.gradient)[0]
        online, target = self._online, self._target
        qnet.apply_gradient(online, arrays.grad, cfg.learning_rate / batch, out=online,
                            scratch=arrays.scratch)
        qnet.soft_update(target, online, cfg.tau, out=target, scratch=arrays.scratch)
        return float(np.add.reduce(np.abs(td, out=td))) / batch
