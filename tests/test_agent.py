import copy
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt import qnet
from ranopt.agent import (BUFFER_FIELDS, AgentConfig, DoubleQAgent, Experience, ReplayBuffer,
                          double_q_target, epsilon_at, preload, sample_segments, select_action,
                          valid_segment_starts)


def exp(ep, tag=0.0, reward=0.0, action=0):
    s = np.zeros(58)
    s[0] = tag
    sn = np.zeros(58)
    sn[0] = tag + 0.001
    return Experience(state=s, action=action, reward=reward, next_state=sn, episode_id=ep)


def push(buf, e):
    buf.append(e.state, e.next_state, e.action, e.reward, e.episode_id)


def values(e):
    """A transition as comparable plain values."""
    return (e.state.tolist(), int(e.action), float(e.reward), e.next_state.tolist(),
            int(e.episode_id))


class ListBuffer:
    """Reference replay buffer: a plain list, oldest first, with the segment
    rules written out one transition at a time."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []

    def push(self, e):
        self.items = (self.items + [e])[-self.capacity:]

    def valid_segment_starts(self, n_step):
        return [s for s in range(len(self.items) - n_step + 1)
                if all(self.items[s + j].episode_id == self.items[s].episode_id
                       for j in range(n_step))]

    def sample_segments(self, n_step, batch, rng):
        starts = self.valid_segment_starts(n_step)
        picks = [starts[k] for k in rng.integers(0, len(starts), size=batch)]
        return [self.items[s:s + n_step] for s in picks]


def value_nets(online_b2, target_b2):
    """State-independent nets: w1 = b1 = w2 = 0, so Q(s, a) = b2[a]."""
    def net(b2):
        return np.concatenate([np.zeros(qnet.N_PARAMS - 5), b2])
    return net(online_b2), net(target_b2)


class TestAgentConfig:
    def test_defaults(self):
        cfg = AgentConfig()
        assert cfg.gamma == 0.95
        assert cfg.epsilon_start == 1.0 and cfg.epsilon_min == 0.1
        assert cfg.n_step == 3 and cfg.tau == 0.01

    @pytest.mark.parametrize("bad", [dict(gamma=0.0), dict(gamma=1.0), dict(gamma=1.5),
                                     dict(epsilon_min=0.5, epsilon_start=0.2),
                                     dict(n_step=0), dict(n_step=11), dict(tau=-0.1),
                                     dict(batch_segments=0)])
    def test_invariants(self, bad):
        with pytest.raises(ValueError):
            AgentConfig(**bad)


class TestSeed:
    def test_default_agent_is_the_seed_0_agent(self):
        # perfbench/run.py builds its warm checkpoint from this call
        agent = DoubleQAgent(AgentConfig())
        assert agent.online.tobytes() == agent.target.tobytes() == qnet.init_params(0).tobytes()
        assert agent.rng.bit_generator.state == np.random.default_rng([0, 1]).bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2 ** 40, 2 ** 64 - 1])
    def test_seed_sets_networks_and_stream(self, seed):
        agent = DoubleQAgent(AgentConfig(), seed=seed)
        assert agent.online.tobytes() == agent.target.tobytes() == qnet.init_params(seed).tobytes()
        assert (agent.rng.bit_generator.state
                == np.random.default_rng([seed, 1]).bit_generator.state)


class TestEpsilonSchedule:
    def test_starts_at_one(self):
        assert epsilon_at(0, AgentConfig()) == 1.0

    def test_floors_at_point_one(self):
        assert epsilon_at(10 ** 7, AgentConfig()) == 0.1

    def test_first_step_at_or_below_half(self):
        cfg = AgentConfig()
        # solve 0.999**k <= 0.5 exactly
        k = 0
        while 0.999 ** k > 0.5:
            k += 1
        assert k == 693
        assert epsilon_at(k, cfg) <= 0.5 < epsilon_at(k - 1, cfg)


class TestSelectAction:
    def test_pure_argmax(self):
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.9, 0.2, 0.0, 0.3])
        assert select_action(q, 0.0, rng) == 1

    def test_tie_lowest_index(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([0.5, 0.5, 0.5, 0.1, 0.5]), 0.0, rng) == 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        q = np.array([0.3, -0.2, 0.9, 0.1, 0.0])
        for c in (-5.0, 0.0, 12.5):
            assert select_action(q + c, 0.0, rng) == 2

    def test_uniform_when_epsilon_one(self):
        rng = np.random.default_rng(2)
        q = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
        counts = np.zeros(5)
        n = 10 ** 5
        for _ in range(n):
            counts[select_action(q, 1.0, rng)] += 1
        assert np.all(np.abs(counts / n - 0.2) < 0.01)

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(5), 1.2, np.random.default_rng(0))


class TestReplayBuffer:
    def test_push_to_empty(self):
        buf = ReplayBuffer()
        push(buf, exp(0))
        assert len(buf) == 1

    def test_capacity_eviction(self):
        buf = ReplayBuffer()
        for i in range(5001):
            push(buf, exp(0, tag=float(i)))
        items = list(buf)
        assert len(buf) == len(items) == 5000
        assert items[0].state[0] == 1.0  # first pushed item evicted
        assert items[4999].state[0] == 5000.0

    def test_iteration_builds_no_next_state_array(self):
        # iteration yields views of the ring one entry at a time: a list of a full
        # ring costs its Experience objects, not a copy of 5,000 next states (2.3 MB)
        buf = ReplayBuffer()
        rng = np.random.default_rng(4)
        for ep in range(50):
            states = rng.random((101, 58))
            buf.extend(states[:-1], states[1:], rng.integers(0, 5, 100),
                       rng.uniform(-1, 1, 100), np.full(100, ep))
        tracemalloc.start()
        try:
            entries = list(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entries) == buf.capacity == 5000
        assert peak <= 3e6

    def test_iteration_order(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(25):
            push(buf, exp(0, tag=float(i)))
        tags = [e.state[0] for e in buf]
        assert tags == [float(i) for i in range(15, 25)]

    def test_preload_empty(self):
        buf = ReplayBuffer()
        preload(buf, [])
        assert len(buf) == 0

    def test_preload_keeps_last_5000(self):
        buf = ReplayBuffer()
        preload(buf, [exp(0, tag=float(i)) for i in range(6000)])
        assert len(buf) == 5000
        assert next(iter(buf)).state[0] == 1000.0

    def test_preload_then_push_order(self):
        buf = ReplayBuffer(capacity=100)
        preload(buf, [exp(0, tag=float(i)) for i in range(10)])
        for i in range(10, 20):
            push(buf, exp(1, tag=float(i)))
        assert [e.state[0] for e in buf] == [float(i) for i in range(20)]

    def test_preload_malformed_names_index(self):
        buf = ReplayBuffer()
        bad = exp(0)
        bad.reward = 3.0
        with pytest.raises(ValueError, match="record 2"):
            preload(buf, [exp(0), exp(0), bad])
        assert len(buf) == 0

    def test_first_bad_record_named(self):
        buf = ReplayBuffer()
        with pytest.raises(ValueError, match=r"record 1: action 7 outside \[0, 5\)"):
            preload(buf, [exp(0), exp(0, action=7), exp(0, reward=3.0)])

    def test_load_round_trips_arrays(self):
        buf = ReplayBuffer(capacity=4)
        preload(buf, [exp(0, tag=float(i)) for i in range(6)])  # rotates the ring
        copy = ReplayBuffer(capacity=4)
        copy.load(buf.packed())
        assert [values(e) for e in copy] == [values(e) for e in buf]

    @pytest.mark.parametrize("pushed, extended", [(5, 6), (3, 11), (8, 3)],
                             ids=["across_the_wrap", "more_than_capacity", "full_ring"])
    def test_extend_writes_ring_rows_in_order(self, pushed, extended):
        def entries(ks):
            """Transition k: states tagged k and k + 0.5, action k % 5, reward k / 100, id k."""
            states = np.zeros((len(ks), 58))
            states[:, 0] = ks
            return states, states + 0.5, ks % 5, ks / 100.0, ks
        buf = ReplayBuffer(capacity=8)
        for e in zip(*entries(np.arange(pushed))):
            buf.append(*e)
        buf.extend(*entries(np.arange(pushed, pushed + extended)))
        # entry k lands in ring row k % 8; the 8 most recent survive
        kept = np.arange(max(0, pushed + extended - 8), pushed + extended)
        assert len(buf) == len(kept) and buf.start == kept[0] % 8
        for name, want in zip(BUFFER_FIELDS, entries(kept)):
            got = (buf.next_states_at(kept % 8) if name == "next_states"
                   else getattr(buf, name)[kept % 8])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("change, message", [
        ({name: np.zeros((5, 58) if "states" in name else 5) for name in BUFFER_FIELDS},
         "buffer holds more than 4 transitions"),
        ({"chained": np.array([True, True])}, "member chained flags the last entry"),
        ({"chained": np.array([True, False])}, "leaves 1 entries unchained, but next_states has 2"),
        # a cast to the ring's int64 would load 1.9 as 1 and NaN as -2**63
        ({"actions": np.array([1.9, 0.0])}, "member actions is float64, expected integers"),
        ({"episode_ids": np.array([np.nan, 0.0])}, "member episode_ids is float64, expected"),
        ({"episode_ids": np.array([2 ** 64 - 1, 0], dtype=np.uint64)},
         "member episode_ids is uint64, expected integers that int64 holds"),
        ({"actions": np.array([True, False])}, "member actions is bool, expected integers"),
    ], ids=["over_capacity", "chained_last", "chained_count",
            "float_actions", "nan_episode_ids", "uint64_episode_ids", "bool_actions"])
    def test_load_refuses_and_writes_nothing(self, change, message):
        arrays = {"states": np.zeros((2, 58)), "next_states": np.zeros((2, 58)),
                  "actions": np.zeros(2, dtype=np.int64), "rewards": np.zeros(2),
                  "episode_ids": np.zeros(2, dtype=np.int64), "chained": np.zeros(2, dtype=bool),
                  **change}
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValueError, match=message):
            buf.load(arrays)
        assert len(buf) == 0

    @pytest.mark.parametrize("field", ["state", "next_state"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_refused(self, field, value):
        agent = DoubleQAgent(AgentConfig())
        e = exp(0)
        getattr(e, field)[3] = value
        with pytest.raises(ValueError, match=f"record 0: {field} holds a non-finite value"):
            push(agent.buffer, e)
        assert len(agent.buffer) == 0

    @pytest.mark.parametrize("change, message", [
        ({"reward": 1.5}, r"record 0: reward 1.5 outside \[-1, 1\]"),
        ({"reward": np.nan}, r"record 0: reward nan outside \[-1, 1\]"),
        ({"action": 5}, r"record 0: action 5 outside \[0, 5\)"),
        ({"action": -1}, r"record 0: action -1 outside \[0, 5\)"),
        ({"state": np.zeros(57)}, r"buffer arrays .* must be \[n, 58\] states"),
    ], ids=["reward_high", "reward_nan", "action_high", "action_negative", "short_state"])
    def test_append_refuses_as_extend(self, change, message):
        buf = ReplayBuffer(capacity=2)
        for i in range(2):
            push(buf, exp(0, tag=float(i)))
        with pytest.raises(ValueError, match=message):
            buf.append(**{**vars(exp(1, tag=5.0)), **change})
        # nothing written: the full ring still holds its oldest entry
        assert [values(e) for e in buf] == [values(exp(0, tag=float(i))) for i in range(2)]

    # a cast to the ring's int64 would store 1.7 as 1 and 2.9 as 2, True as 1,
    # and NaN as -2**63: an episode id cut to another would merge two episodes
    NOT_INTEGERS = [
        ("action", 1.7, r"record 0: action 1.7 is float64, expected an integer that int64"),
        ("action", 2.0, r"record 0: action 2.0 is float64, expected"),
        ("action", True, r"record 0: action True is bool, expected"),
        ("episode_id", 2.9, r"record 0: episode id 2.9 is float64, expected"),
        ("episode_id", np.nan, r"record 0: episode id nan is float64, expected"),
        ("episode_id", False, r"record 0: episode id False is bool, expected"),
        ("episode_id", np.uint64(2 ** 64 - 1), r"record 0: episode id \d+ is uint64, expected"),
        ("episode_id", 2 ** 63, r"record 0: episode id 9223372036854775808 is uint64, expected"),
    ]
    NOT_INTEGER_IDS = ["float_action", "integral_float_action", "bool_action", "float_id",
                       "nan_id", "bool_id", "uint64_id", "int_past_int64"]

    @pytest.mark.parametrize("field, value, message", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    def test_append_refuses_a_value_that_is_not_an_integer(self, field, value, message):
        buf = ReplayBuffer(capacity=2)
        push(buf, exp(0))
        with pytest.raises(ValueError, match=message):
            buf.append(**{**vars(exp(1, tag=5.0)), field: value})
        assert [values(e) for e in buf] == [values(exp(0))]

    @pytest.mark.parametrize("field, value, message", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
    def test_extend_refuses_a_value_that_is_not_an_integer(self, field, value, message):
        buf = ReplayBuffer(capacity=4)
        push(buf, exp(0))
        records = [exp(1, tag=1.0), exp(1, tag=2.0)]
        columns = [np.array([getattr(e, name) for e in records]) for name in
                   ("state", "next_state", "action", "reward", "episode_id")]
        columns[2 if field == "action" else 4] = np.array([value, value])
        with pytest.raises(ValueError, match=message):
            buf.extend(*columns)
        assert [values(e) for e in buf] == [values(exp(0))]

    def test_numpy_integers_are_taken(self):
        buf = ReplayBuffer(capacity=4)
        e = exp(0)
        buf.append(e.state, e.next_state, np.int64(3), 0.5, np.int32(7))
        buf.extend(e.state[None], e.next_state[None], np.array([4], dtype=np.uint8), [0.5],
                   np.array([7], dtype=np.int16))
        assert [(x.action, x.episode_id) for x in buf] == [(3, 7), (4, 7)]
        assert all(type(x.action) is int and type(x.episode_id) is int for x in buf)


def packed_round_trip(buf):
    """buf.packed() through an npz file and into a fresh ring of the same capacity."""
    fh = io.BytesIO()
    np.savez(fh, **buf.packed())
    fh.seek(0)
    copy = ReplayBuffer(buf.capacity)
    with np.load(fh, allow_pickle=False) as npz:
        copy.load(dict(npz))
    return copy


class TestPacked:
    # ops: (state is the previous entry's next state, state value, next state
    # value, column of the value); -0.0 equals 0.0 by float == but not in bits
    @settings(max_examples=200, derandomize=True, deadline=None)
    @example(capacity=4, ops=[])  # empty ring
    @example(capacity=1, ops=[(False, 1.0, 2.0, 0), (True, 0.0, 3.0, 0)])
    @example(capacity=3, ops=[(False, 1.0, 2.0, 5), (True, 0.0, 3.0, 5), (True, 0.0, 0.0, 5),
                              (True, 0.0, 1.0, 5), (True, 0.0, 2.0, 5)])  # rotated
    @example(capacity=8, ops=[(False, 1.0, 2.0, 0), (True, 0.0, 3.0, 0), (False, 1.0, 1.0, 0),
                              (True, 0.0, 2.0, 0)])  # unchained in the middle
    @example(capacity=8, ops=[(False, 1.0, -0.0, 57), (False, 0.0, 1.0, 57)])
    @given(capacity=st.integers(1, 8),
           ops=st.lists(st.tuples(st.booleans(), st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                                  st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                                  st.sampled_from([0, 57])), max_size=12))
    def test_load_of_packed_is_bitwise_arrays(self, capacity, ops):
        buf = ReplayBuffer(capacity)
        next_state = None
        for i, (chain, s, ns, col) in enumerate(ops):
            state = next_state if chain and next_state is not None else np.zeros(58)
            if state is not next_state:
                state[col] = s
            next_state = np.zeros(58)
            next_state[col] = ns
            buf.append(state, next_state, i % 5, 0.0, 0)
        packed, entries = buf.packed(), list(buf)
        chained = [a.next_state.tobytes() == b.state.tobytes()
                   for a, b in zip(entries, entries[1:])] + [False][:len(buf)]
        assert packed["chained"].dtype == bool and packed["chained"].tolist() == chained
        assert packed["next_states"].tobytes() == b"".join(
            e.next_state.tobytes() for e, c in zip(entries, chained) if not c)
        loaded = packed_round_trip(buf)
        assert [bits(e) for e in loaded] == [bits(e) for e in entries]
        again = loaded.packed()
        assert all(same_bits(a, again[name]) for name, a in packed.items())


def reference_unpack(states, stored, chained):
    """Every entry's next state, in a new array, from the chained flags and
    next_states rows that a packed ring stores."""
    next_states = np.empty(states.shape)
    next_states[:-1] = states[1:]
    next_states[~chained] = stored
    return next_states


class ReferenceRing:
    """The replay ring as it was before it stored each state once, kept as
    the oracle: five full arrays named as BUFFER_FIELDS, packed() flags the
    chained entries by a bitwise compare of the whole ring, and load unpacks
    and appends. It takes only valid transitions: it checks none."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.states = np.zeros((capacity, 58))
        self.next_states = np.zeros((capacity, 58))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.episode_ids = np.zeros(capacity, dtype=np.int64)
        self.start = self.size = 0

    def __len__(self):
        return self.size

    def __iter__(self):
        for j in self.rows(np.arange(self.size)).tolist():
            yield Experience(state=self.states[j], action=int(self.actions[j]),
                             reward=float(self.rewards[j]), next_state=self.next_states[j],
                             episode_id=int(self.episode_ids[j]))

    def rows(self, logical):
        return (self.start + logical) % self.capacity

    def extend(self, *arrays):
        columns = [np.asarray(a, dtype=t) for a, t in
                   zip(arrays, (np.float64, np.float64, np.int64, np.float64, np.int64))]
        n = len(columns[0])
        keep = min(n, self.capacity)
        first = (self.start + self.size + n - keep) % self.capacity
        run = min(keep, self.capacity - first)
        for name, a in zip(BUFFER_FIELDS, columns):
            ring, kept = getattr(self, name), a[n - keep:]
            ring[first:first + run] = kept[:run]
            ring[:keep - run] = kept[run:]
        self.start = (self.start + max(0, self.size + n - self.capacity)) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def append(self, *transition):
        self.extend(*([a] for a in transition))

    def load(self, arrays):
        columns = [arrays[name] for name in BUFFER_FIELDS]
        columns[1] = reference_unpack(columns[0], columns[1], arrays["chained"])
        self.extend(*columns)

    def arrays(self):
        if self.start:
            for name in BUFFER_FIELDS:
                getattr(self, name)[:] = np.roll(getattr(self, name), -self.start, axis=0)
            self.start = 0
        return {name: getattr(self, name)[:self.size] for name in BUFFER_FIELDS}

    def chained(self):
        """Flags of the entries, oldest first, whose next state is, bit for
        bit, the following entry's state."""
        rows = self.rows(np.arange(self.size))
        states, next_states = self.states[rows], self.next_states[rows]
        chained = np.zeros(self.size, dtype=bool)
        chained[:-1] = (next_states[:-1].view(np.int64) == states[1:].view(np.int64)).all(axis=1)
        return chained

    def packed(self):
        arrays, chained = self.arrays(), self.chained()
        return {**arrays, "next_states": arrays["next_states"][~chained], "chained": chained}


def reference_sample_segments(ring, n_step, batch, rng):
    """sample_segments as it was before the ring kept its segment starts: one
    scan of the ring's episode ids per sample, the starts drawn from it."""
    starts = valid_segment_starts(ring, n_step)
    if starts.size == 0:
        return None
    picks = starts[rng.integers(0, starts.size, size=batch)]
    return ring.rows(picks[:, None] + np.arange(n_step))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bits(e):
    """An Experience as exactly comparable values, types included."""
    return (e.state.dtype, e.state.tobytes(), e.next_state.dtype, e.next_state.tobytes(),
            type(e.action), e.action, type(e.reward), e.reward.hex(), type(e.episode_id),
            e.episode_id)


# a state: zeros but for one value in column 0 or 57; -0.0 differs from 0.0 only in bits
VECTOR = st.tuples(st.sampled_from([0, 57]), st.sampled_from([0.0, -0.0, 1.0]))
# (state is the previous transition's next state, state, next state, action, reward, episode id)
TRANSITION = st.tuples(st.booleans(), VECTOR, VECTOR, st.integers(0, 4),
                       st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.integers(0, 2))
OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), TRANSITION),
    st.tuples(st.just("extend"), st.lists(TRANSITION, max_size=8)),
    st.tuples(st.just("load")),
    st.tuples(st.just("sample"), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 16))),
    max_size=14)


class TestRingMatchesReference:
    """The ring against ReferenceRing over random sequences of appends,
    extends, packed() round trips through an npz file and sampled segments."""

    @staticmethod
    def vector(spec):
        column, value = spec
        v = np.zeros(58)
        v[column] = value
        return v

    def transitions(self, specs, previous):
        """Transition arrays of specs; previous is the last next state given to the rings."""
        out = []
        for follow, state, next_state, action, reward, episode_id in specs:
            state = previous.copy() if follow and previous is not None else self.vector(state)
            previous = self.vector(next_state)
            out.append((state, previous, action, reward, episode_id))
        return out, previous

    def assert_same(self, buf, ref):
        assert [bits(e) for e in buf] == [bits(e) for e in ref]
        rows = buf.rows(np.arange(len(buf)))
        assert same_bits(buf.next_states_at(rows), ref.next_states[rows])
        # each state once: a next state is stored for the unchained entries only
        assert sorted(buf.stored) == sorted(rows[~ref.chained()].tolist())

    @settings(max_examples=200, derandomize=True, deadline=None)
    @example(capacity=3, ops=[("append", (False, (0, 1.0), (0, 0.0), 0, 0.0, 0))]
             + [("append", (True, (0, 0.0), (57, 1.0), 1, 0.5, 0))] * 4
             + [("load",), ("append", (True, (0, 0.0), (0, 1.0), 2, 1.0, 1))])  # wraps
    @example(capacity=1, ops=[("append", (False, (0, 1.0), (0, 0.0), 0, 0.0, 0)),
                              ("append", (True, (0, 0.0), (0, 1.0), 1, 0.0, 0)),
                              ("load",), ("extend", [(True, (0, 0.0), (0, 0.0), 2, 0.0, 1)] * 3)])
    @example(capacity=4, ops=[("extend", [(False, (0, 1.0), (0, 0.0), 0, 0.0, 0),
                                          (True, (0, 0.0), (0, 1.0), 1, 0.0, 1),
                                          (True, (0, 0.0), (57, 0.0), 2, 0.0, 2)]),
                              ("sample", 1, 4, 7), ("load",)])  # one-entry episodes
    @example(capacity=4, ops=[("append", (False, (57, 1.0), (57, -0.0), 0, 0.0, 0)),
                              ("append", (False, (57, 0.0), (0, 1.0), 1, 0.0, 0)),
                              ("extend", [(False, (0, 1.0), (57, 0.0), 2, 0.0, 0),
                                          (False, (57, -0.0), (0, 0.0), 3, 0.0, 0)]),
                              ("load",)])  # a next state of -0.0 before a state of 0.0
    @given(capacity=st.integers(1, 6), ops=OPS)
    def test_ring_is_bitwise_the_reference(self, capacity, ops):
        buf, ref = ReplayBuffer(capacity), ReferenceRing(capacity)
        previous = None
        for op, *args in ops:
            if op == "append":
                (transition,), previous = self.transitions(args, previous)
                buf.append(*transition)
                ref.append(*transition)
            elif op == "extend":
                batch, previous = self.transitions(args[0], previous)
                columns = [np.array(c) for c in zip(*batch)] if batch else [
                    np.zeros((0, 58)), np.zeros((0, 58)), [], [], []]
                buf.extend(*columns)
                ref.extend(*columns)
            elif op == "load":
                packed, want = buf.packed(), ref.packed()
                assert packed.keys() == want.keys()
                assert all(same_bits(packed[name], want[name]) for name in want)
                buf, ref = packed_round_trip(buf), ReferenceRing(capacity)
                ref.load(want)
            else:
                n_step, batch, seed = args
                rows = sample_segments(buf, n_step, batch, np.random.default_rng(seed))
                want = reference_sample_segments(ref, n_step, batch,
                                                 np.random.default_rng(seed))
                assert (rows is None) == (want is None)
                if rows is not None:
                    assert same_bits(rows, want)
                    assert same_bits(buf.next_states_at(rows[:, -1]), ref.next_states[rows[:, -1]])
            self.assert_same(buf, ref)
        packed, want = buf.packed(), ref.packed()
        assert all(same_bits(packed[name], want[name]) for name in want)


# (op, argument): append one transition of an episode id; extend by a run of
# them; round-trip the ring through packed() and load; rotate it by packed();
# shift the ids to end at -1, as build_agent does to a preloaded ring; and ask
# the index for another n_step
INDEX_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 2)),
    st.tuples(st.just("extend"), st.lists(st.integers(0, 2), max_size=8)),
    st.tuples(st.just("load"), st.none()),
    st.tuples(st.just("packed"), st.none()),
    st.tuples(st.just("shift"), st.none()),
    st.tuples(st.just("other_n_step"), st.integers(1, 4))), max_size=24)


class TestSegmentIndex:
    """The segment-start index that append keeps, against the scan it replaced."""

    @staticmethod
    def logical_starts(buf, n_step):
        """The index for n_step as logical positions, oldest first."""
        starts, head, count = buf._segment_index(n_step)
        return ((starts.take(head + np.arange(count), mode="wrap") - buf.start)
                % buf.capacity).tolist()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @example(capacity=3, n_step=2, batch=2, seed=0,
             ops=[("append", 0)] * 4 + [("append", 1)] * 3)  # drops and pushes on a full ring
    @example(capacity=4, n_step=1, batch=3, seed=1,
             ops=[("append", 0)] * 6 + [("packed", None), ("append", 0)])  # n = 1, rotated
    @example(capacity=5, n_step=3, batch=1, seed=2,
             ops=[("extend", [0, 0]), ("shift", None), ("append", 0), ("append", 0)])
    @example(capacity=2, n_step=3, batch=1, seed=3, ops=[("append", 0)] * 5)  # n > capacity
    @given(capacity=st.integers(1, 12), n_step=st.integers(1, 4), batch=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16), ops=INDEX_OPS)
    def test_index_is_the_scan_and_samples_the_reference(self, capacity, n_step, batch, seed,
                                                          ops):
        buf, ref = ReplayBuffer(capacity), ReferenceRing(capacity)
        tag = 0.0

        def transitions(ids):
            nonlocal tag
            states = np.zeros((len(ids), 58))
            states[:, 0] = tag + np.arange(len(ids))
            tag += len(ids)
            return states, states + 0.5, np.arange(len(ids)) % 5, np.zeros(len(ids)), ids

        for op, arg in ops:
            if op == "append":
                transition = [a[0] for a in transitions([arg])]
                transition[2:] = [int(transition[2]), 0.0, arg]
                buf.append(*transition)
                ref.append(*transition)
            elif op == "extend":
                columns = transitions(np.array(arg, dtype=np.int64))
                buf.extend(*columns)
                ref.extend(*columns)
            elif op == "load":
                want = ref.packed()
                buf, ref = packed_round_trip(buf), ReferenceRing(capacity)
                ref.load(want)
            elif op == "packed":
                buf.packed()
                ref.arrays()
            elif op == "shift" and len(buf):
                ids = buf.episode_ids.take(buf.rows(np.arange(len(buf))))
                buf.shift_episode_ids(-int(ids.max()) - 1)
                ref.episode_ids[:len(ref)] -= ids.max() + 1
            elif op == "other_n_step":
                buf._segment_index(arg)
            # after each write the index is the scan, and, maintained by the
            # appends since, draws the rows that the scan's draws give
            assert self.logical_starts(buf, n_step) == valid_segment_starts(buf, n_step).tolist()
            rows = sample_segments(buf, n_step, batch, np.random.default_rng(seed))
            want = reference_sample_segments(ref, n_step, batch, np.random.default_rng(seed))
            assert (rows is None) == (want is None)
            assert rows is None or same_bits(rows, want)

    def test_a_full_ring_training_tick_scans_nothing(self, monkeypatch):
        import ranopt.agent as ag
        agent = warm_agent()
        agent.train_step()  # the first sample builds the index
        calls, orig = [], ag.valid_segment_starts
        monkeypatch.setattr(ag, "valid_segment_starts",
                            lambda *args: calls.append(len(args[0])) or orig(*args))
        state = np.zeros(58)
        for k in range(200):  # overwrites the oldest entries, episode after episode
            agent.buffer.append(state, state, k % 5, 0.0, 100 + k // 80)
            agent.train_step()
        assert calls == []
        assert self.logical_starts(agent.buffer, 3) == orig(agent.buffer, 3).tolist()


class TestSegments:
    def test_n1_any_entry_valid(self):
        buf = ReplayBuffer()
        push(buf, exp(0))
        segs = sample_segments(buf, 1, 4, np.random.default_rng(0))
        assert segs.shape == (4, 1)

    def test_two_episodes_sixteen_starts(self):
        buf = ReplayBuffer()
        for ep in (0, 1):
            for _ in range(10):
                push(buf, exp(ep))
        starts = valid_segment_starts(buf, 3)
        assert starts.size == 16
        assert set(starts) == set(range(8)) | set(range(10, 18))

    def test_segments_never_cross_boundary(self):
        buf = ReplayBuffer()
        for ep in range(5):
            for _ in range(7):
                push(buf, exp(ep))
        rng = np.random.default_rng(3)
        for seg in sample_segments(buf, 3, 200, rng):
            assert len(seg) == 3
            assert len(set(buf.episode_ids[seg].tolist())) == 1

    def test_no_valid_segment_is_none(self):
        buf = ReplayBuffer()
        push(buf, exp(0))
        push(buf, exp(1))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sample_segments(buf, 2, 1, rng) is None
        assert rng.bit_generator.state == state

    def test_starts_kept_until_next_write(self):
        buf = ReplayBuffer(capacity=4)
        preload(buf, [exp(0), exp(0), exp(1)])
        assert valid_segment_starts(buf, 2).tolist() == [0]
        assert valid_segment_starts(buf, 1).tolist() == [0, 1, 2]
        push(buf, exp(1))
        assert valid_segment_starts(buf, 2).tolist() == [0, 2]
        push(buf, exp(1))  # evicts the oldest entry
        assert valid_segment_starts(buf, 2).tolist() == [1, 2]

    def test_fifo_and_contiguity_fuzz(self):
        # randomized interleaving of push/preload against a mirror list
        buf = ReplayBuffer(capacity=500)
        mirror = []
        rng = np.random.default_rng(9)
        ep = 0
        for _ in range(3000):
            if rng.random() < 0.7:
                run = int(rng.integers(1, 6))
                for _ in range(run):
                    e = exp(ep, tag=rng.random())
                    push(buf, e)
                    mirror.append(e)
            else:
                run = int(rng.integers(1, 20))
                batch = [exp(ep, tag=rng.random()) for _ in range(run)]
                preload(buf, batch)
                mirror.extend(batch)
            ep += 1
            mirror = mirror[-500:]
            if rng.random() < 0.05:
                assert [values(e) for e in buf] == [values(e) for e in mirror]
        assert [values(e) for e in buf] == [values(e) for e in mirror]

    @settings(max_examples=200, derandomize=True, deadline=None)
    # ids 0 0 1 0 0: equal ids at both ends of a segment that crosses two boundaries
    @example(capacity=12, n_step=3, batch=2, seed=0,
             ops=[(False, 2, 0, False), (True, 1, 1, False), (False, 2, 0, False)])
    @given(capacity=st.integers(1, 12), n_step=st.integers(1, 4), batch=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1),
           ops=st.lists(st.tuples(st.booleans(), st.integers(1, 15), st.integers(0, 2),
                                  st.booleans()), max_size=12))
    def test_ring_matches_list_reference(self, capacity, n_step, batch, seed, ops):
        # ops: (single pushes or one preload, how many, episode id, then read the
        # arrays a checkpoint saves); a small id alphabet makes episodes recur
        buf, ref = ReplayBuffer(capacity), ListBuffer(capacity)
        tag = 0.0
        for single, count, ep, save in ops:
            records = []
            for _ in range(count):
                tag += 1.0
                records.append(exp(ep, tag=tag, reward=tag / 1000.0, action=int(tag) % 5))
            for e in records:
                ref.push(e)
            if single:
                for e in records:
                    push(buf, e)
            else:
                preload(buf, records)
            assert [values(e) for e in buf] == [values(e) for e in ref.items]
            assert valid_segment_starts(buf, n_step).tolist() == ref.valid_segment_starts(n_step)
            if save:
                assert [values(e) for e in packed_round_trip(buf)] == [
                    values(e) for e in ref.items]
        if not ref.valid_segment_starts(n_step):
            return
        rows = sample_segments(buf, n_step, batch, np.random.default_rng(seed))
        segments = ref.sample_segments(n_step, batch, np.random.default_rng(seed))
        assert rows.shape == (batch, n_step)
        for r, seg in zip(rows, segments):
            assert buf.states[r].tolist() == [e.state.tolist() for e in seg]
            assert buf.next_states_at(r).tolist() == [e.next_state.tolist() for e in seg]
            assert buf.actions[r].tolist() == [e.action for e in seg]
            assert buf.rewards[r].tolist() == [e.reward for e in seg]
            assert buf.episode_ids[r].tolist() == [e.episode_id for e in seg]


def target_of(segment, online, target, gamma):
    """double_q_target for one segment of transitions, as a batch of one."""
    s_boot = segment[-1].next_state[None]
    y = double_q_target(np.array([[e.reward for e in segment]]),
                        qnet.forward_batch(online, s_boot)[1],
                        qnet.forward_batch(target, s_boot)[1], gamma)
    assert y.shape == (1,)
    return y[0]


class TestDoubleQTarget:
    def test_gamma_zero_is_immediate_reward(self):
        online, target = value_nets([0, 1, 0, 0, 0], [5, 5, 5, 5, 5])
        seg = [exp(0, reward=0.7)]
        # gamma -> 0 limit checked with a tiny positive gamma
        y = target_of(seg, online, target, 1e-12)
        assert y == pytest.approx(0.7, abs=1e-9)

    def test_direct_substitution_n1(self):
        # r=1, gamma=0.95, target net scores the online argmax at 2 -> 2.9
        online, target = value_nets([0, 1, 0, 0, 0], [9, 2, 9, 9, 9])
        y = target_of([exp(0, reward=1.0)], online, target, 0.95)
        assert y == pytest.approx(2.9)

    def test_reward_sum_n3(self):
        online, target = value_nets([1, 0, 0, 0, 0], [3, 9, 9, 9, 9])
        seg = [exp(0, reward=0.5), exp(0, reward=0.25), exp(0, reward=0.125)]
        g = 0.9
        y = target_of(seg, online, target, g)
        expected = 0.5 + g * 0.25 + g ** 2 * 0.125 + g ** 3 * 3.0
        assert y == pytest.approx(expected)

    def test_identical_nets_reduce_to_classic_q_learning(self):
        rng = np.random.default_rng(4)
        p = qnet.init_params(seed=8)
        for _ in range(20):
            e = exp(0, tag=rng.random(), reward=float(rng.uniform(-1, 1)))
            y = target_of([e], p, p, 0.95)
            classic = e.reward + 0.95 * qnet.forward(p, e.next_state).max()
            assert y == pytest.approx(classic, rel=1e-12)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @example(n_step=8, batch=1, gamma=0.95, seed=0)  # where numpy's pairwise sum rounds apart
    @example(n_step=1, batch=1, gamma=0.5, seed=-1)  # -0.0 rewards and action values
    @given(n_step=st.integers(1, 10), batch=st.integers(1, 40),
           gamma=st.floats(0.01, 0.99), seed=st.integers(-1, 2 ** 32 - 1))
    def test_bitwise_the_reference_loop(self, n_step, batch, gamma, seed):
        if seed < 0:
            rewards, q_online, q_target = (np.full(shape, -0.0) for shape in (
                (batch, n_step), (batch, 5), (batch, 5)))
        else:
            rng = np.random.default_rng(seed)
            rewards = rng.uniform(-1, 1, (batch, n_step))
            q_online = rng.choice([0.0, 1.0, 2.0], (batch, 5))  # ties pick the first
            q_target = rng.normal(0, 10, (batch, 5))
        want = []
        for r, qo, qt in zip(rewards.tolist(), q_online.tolist(), q_target.tolist()):
            ret = 0.0
            for i, reward in enumerate(r):  # oldest first, each discount Python's power
                ret += reward * gamma ** i
            want.append(ret + gamma ** n_step * qt[qo.index(max(qo))])
        out = np.full(batch, np.nan)
        assert double_q_target(rewards, q_online, q_target, gamma, out=out) is out
        for got in (double_q_target(rewards, q_online, q_target, gamma), out):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


class TestTrainStep:
    @pytest.mark.parametrize("episode_ids", [[], [0, 0, 1, 1]], ids=["empty", "no_segment"])
    def test_no_segment_trains_nothing(self, episode_ids):
        agent = DoubleQAgent(AgentConfig(n_step=3))
        for ep in episode_ids:
            push(agent.buffer, exp(ep, reward=0.3))
        before = (agent.online.copy(), agent.target.copy(), agent.global_step,
                  agent.rng.bit_generator.state)
        assert agent.train_step() is None
        assert agent.online.tobytes() == before[0].tobytes()
        assert agent.target.tobytes() == before[1].tobytes()
        assert (agent.global_step, agent.rng.bit_generator.state) == before[2:]

    def test_zero_td_error_fixpoint(self):
        # constant nets with all outputs equal: Y = r + g*q, set so Y == Q
        cfg = AgentConfig(n_step=1, batch_segments=4)
        agent = DoubleQAgent(cfg)
        q = 1.0 / (1.0 - cfg.gamma) * 0.5
        agent.online, agent.target = value_nets([q] * 5, [q] * 5)
        push(agent.buffer, exp(0, reward=0.5))
        before = agent.online.copy()
        td = agent.train_step()
        assert td == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(agent.online, before)

    def test_one_batched_backward(self, monkeypatch):
        cfg = AgentConfig(n_step=1, batch_segments=16)
        agent = DoubleQAgent(cfg)
        push(agent.buffer, exp(0, reward=0.3))
        calls, passes = [], []
        batched, forward_batch = qnet.backward, qnet.forward_batch
        monkeypatch.setattr(qnet, "backward",
                            lambda *args, **kwargs: calls.append(args) or batched(*args, **kwargs))
        monkeypatch.setattr(qnet, "forward_batch",
                            lambda net, states, **kwargs: passes.append((net, states.shape))
                            or forward_batch(net, states, **kwargs))
        online, target = agent.online, agent.target
        agent.train_step()
        assert [args[1].shape for args in calls] == [(16, 58)]
        # two passes: the online network on first and bootstrap states stacked,
        # then the target network on the bootstrap states, each through the
        # layer views of the vector that the step then updates in place
        assert [(np.shares_memory(net[0], online), np.shares_memory(net[0], target), shape)
                for net, shape in passes] == [(True, False, (32, 58)), (False, True, (16, 58))]
        assert agent.online is online and agent.target is target

    def test_a_warm_step_allocates_under_16_kb(self):
        # one step on a full ring writes the step arrays its first step built;
        # a step that makes its batch's arrays afresh peaks at 59,080 B
        agent = warm_agent()
        agent.train_step()
        tracemalloc.start()
        try:
            agent.train_step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000

    @pytest.mark.parametrize("change", [{"gamma": 0.9},
                                        {"batch_segments": 5, "n_step": 2, "gamma": 0.9}],
                             ids=["gamma", "all_three"])
    def test_a_config_change_steps_as_a_fresh_copy(self, change):
        agent = warm_agent()
        agent.train_step()
        fresh = copy.deepcopy(agent)  # a copy builds its arrays at its first step
        for a in (agent, fresh):
            for name, value in change.items():
                setattr(a.cfg, name, value)
        for _ in range(3):
            assert agent.train_step().hex() == fresh.train_step().hex()
            assert agent.online.tobytes() == fresh.online.tobytes()
            assert agent.target.tobytes() == fresh.target.tobytes()

    def test_tau_zero_target_frozen(self):
        cfg = AgentConfig(n_step=1, tau=0.0)
        agent = DoubleQAgent(cfg)
        push(agent.buffer, exp(0, reward=0.3))
        before = agent.target.copy()
        agent.train_step()
        assert np.array_equal(agent.target, before)

    def test_lr_zero_keeps_online(self):
        cfg = AgentConfig(n_step=1, learning_rate=0.0)
        agent = DoubleQAgent(cfg)
        push(agent.buffer, exp(0, reward=0.3))
        before = agent.online.copy()
        agent.train_step()
        assert np.array_equal(agent.online, before)

    def test_non_finite_td_error_leaves_networks(self):
        cfg = AgentConfig(n_step=1)
        agent = DoubleQAgent(cfg)
        agent.online, agent.target = value_nets([np.inf] * 5, [1.0] * 5)
        push(agent.buffer, exp(0, reward=0.3))
        online, target = agent.online.copy(), agent.target.copy()
        with pytest.raises(FloatingPointError, match="non-finite TD error"):
            agent.train_step()
        assert agent.online.tobytes() == online.tobytes()
        assert agent.target.tobytes() == target.tobytes()

    def test_single_transition_convergence(self):
        # one-step regression: learning rate sized for the tiny-input NTK
        cfg = AgentConfig(n_step=1, batch_segments=4, learning_rate=0.01, tau=0.1)
        agent = DoubleQAgent(cfg, seed=2)
        e = exp(0, tag=0.4, reward=0.8, action=2)
        e.next_state = np.zeros(58)
        e.next_state[1] = 0.9
        push(agent.buffer, e)
        td = math.inf
        for _ in range(5000):
            td = agent.train_step()
            if td < 1e-3:
                break
        assert td < 1e-3


def reference_forward_batch(theta, states):
    """qnet.forward_batch's action values as the three-pass step formed them."""
    w1, b1, w2, b2 = qnet.layers(theta)
    return np.maximum(states @ w1.T + b1, 0.0) @ w2.T + b2


def reference_backward(theta, states, actions, targets):
    """qnet.backward as it was before it took its pass: its own forward of the
    states, then the TD errors and their gradient."""
    w1, b1, w2, b2 = qnet.layers(theta)
    n = len(states)
    z1 = states @ w1.T + b1
    hidden = np.maximum(z1, 0.0)
    td = targets - (hidden @ w2.T + b2)[np.arange(n), actions]
    if not np.isfinite(td).all():
        raise FloatingPointError(f"non-finite TD error in {td.tolist()}")
    wa = np.zeros((n, qnet.N_ACTIONS))
    wa[np.arange(n), actions] = td
    dz1 = (wa @ w2) * (z1 > 0.0)
    return td, np.concatenate([(dz1.T @ states).ravel(), dz1.sum(axis=0),
                               (wa.T @ hidden).ravel(), wa.sum(axis=0)])


def reference_train_step(agent):
    """The three-pass learner step: the online and the target network each
    score the bootstrap states, then backward runs its own forward pass of
    the first states."""
    cfg, buf = agent.cfg, agent.buffer
    rows = sample_segments(buf, cfg.n_step, cfg.batch_segments, agent.rng)
    if rows is None:
        return None
    batch, n = rows.shape
    s_boot = buf.next_states_at(rows[:, -1])
    a_star = reference_forward_batch(agent.online, s_boot).argmax(axis=1)
    q_boot = reference_forward_batch(agent.target, s_boot)[np.arange(batch), a_star]
    rewards = buf.rewards[rows]
    ret = np.zeros(batch)
    for i in range(n):
        ret += cfg.gamma ** i * rewards[:, i]
    td, grad = reference_backward(agent.online, buf.states[rows[:, 0]], buf.actions[rows[:, 0]],
                                  ret + cfg.gamma ** n * q_boot)
    agent.online = agent.online + cfg.learning_rate / batch * grad
    agent.target = (1.0 - cfg.tau) * agent.target + cfg.tau * agent.online
    return float(np.mean(np.abs(td)))


def warm_agent(**overrides):
    """An agent at the default config, but for overrides, whose ring is full:
    63 episodes of 80 chained transitions, the last cut short."""
    agent = DoubleQAgent(AgentConfig(**overrides))
    rng = np.random.default_rng(11)
    n = agent.buffer.capacity
    states = rng.random((n + 1, 58))
    agent.buffer.extend(states[:-1], states[1:], rng.integers(0, 5, n), rng.uniform(-1, 1, n),
                        np.arange(n) // 80)
    return agent


class TestNetworkViews:
    def test_a_copy_trains_on_views_of_its_own_vectors(self):
        agent = warm_agent()
        agent.train_step()
        twin = copy.deepcopy(agent)
        before = agent.online.copy()
        for _ in range(3):
            assert twin.train_step().hex() == agent.train_step().hex()
        assert twin.online.tobytes() == agent.online.tobytes()
        assert twin.target.tobytes() == agent.target.tobytes()
        twin.train_step()  # the original's vectors do not move with the copy's
        assert twin.online.tobytes() != agent.online.tobytes()
        assert agent.online.tobytes() != before.tobytes()

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_steps_on_arrays_of_its_own(self, duplicate):
        agent = warm_agent()
        agent.train_step()
        twin = duplicate(agent)
        for _ in range(3):
            assert twin.train_step().hex() == agent.train_step().hex()
            assert twin.online.tobytes() == agent.online.tobytes()
            assert twin.target.tobytes() == agent.target.tobytes()
        left = agent.online.tobytes(), agent.target.tobytes()
        for _ in range(2):
            twin.train_step()
        # the copy's steps write its own vectors: the original's stay where it left them
        assert (agent.online.tobytes(), agent.target.tobytes()) == left
        assert (twin.online.tobytes(), twin.target.tobytes()) != left

    def test_setting_a_vector_rebuilds_its_views(self):
        agent = DoubleQAgent(AgentConfig(n_step=1))
        push(agent.buffer, exp(0, reward=0.3))
        agent.online, agent.target = value_nets([np.nan] * 5, [1.0] * 5)
        with pytest.raises(FloatingPointError, match="non-finite TD error"):
            agent.train_step()
        agent.online = value_nets([0.0] * 5, [0.0] * 5)[0]
        assert agent.train_step() == pytest.approx(0.3 + agent.cfg.gamma * 1.0)


class TestTrainStepMatchesReference:
    """train_step against the three-pass step it replaced, kept here as the oracle."""

    def test_bitwise_over_300_steps_at_the_default_config(self):
        agent = warm_agent()
        reference = copy.deepcopy(agent)
        for _ in range(300):
            td = agent.train_step()
            assert td.hex() == reference_train_step(reference).hex()
            assert agent.online.tobytes() == reference.online.tobytes()
            assert agent.target.tobytes() == reference.target.tobytes()
            assert agent.rng.bit_generator.state == reference.rng.bit_generator.state

    # the BLAS kernel blocks a stacked pass by its row count, so at some batch
    # sizes its rows round apart from separate passes; one step then stays
    # within this bound relative to the mean |TD| (at least 1) and to the
    # largest weight update, plus one unit in the last place of each weight
    # for the rounding of the update itself
    REL_BOUND = 1e-12

    @pytest.mark.parametrize("batch_segments", [1, 3, 32])
    def test_one_step_at_other_batch_sizes(self, batch_segments):
        agent = warm_agent(batch_segments=batch_segments)
        reference = copy.deepcopy(agent)
        rows = sample_segments(agent.buffer, agent.cfg.n_step, batch_segments,
                               copy.deepcopy(agent.rng))
        stacked = np.concatenate((agent.buffer.states[rows[:, 0]],
                                  agent.buffer.next_states_at(rows[:, -1])))
        whole = qnet.forward_batch(agent.online, stacked)
        parts = [qnet.forward_batch(agent.online, half) for half in np.split(stacked, 2)]
        stacks_bitwise = all(a.tobytes() == np.concatenate(b).tobytes()
                             for a, b in zip(whole, zip(*parts)))
        online, target = agent.online.copy(), agent.target.copy()  # the step writes in place
        td, want = agent.train_step(), reference_train_step(reference)
        assert agent.rng.bit_generator.state == reference.rng.bit_generator.state
        if stacks_bitwise:
            assert td.hex() == want.hex()
            assert agent.online.tobytes() == reference.online.tobytes()
            assert agent.target.tobytes() == reference.target.tobytes()
        assert abs(td - want) <= self.REL_BOUND * max(1.0, abs(want))
        for got, ref, before in ((agent.online, reference.online, online),
                                 (agent.target, reference.target, target)):
            bound = self.REL_BOUND * np.abs(ref - before).max() + np.spacing(np.abs(ref))
            assert np.all(np.abs(got - ref) <= bound)


class TestActGreedy:
    def test_greedy_deterministic_and_schedule_frozen(self):
        agent = DoubleQAgent(AgentConfig(), seed=3)
        s = np.random.default_rng(7).uniform(0, 1, 58)
        step_before = agent.global_step
        actions = {agent.act(s, greedy=True) for _ in range(10)}
        assert len(actions) == 1
        assert agent.global_step == step_before

    def test_training_act_advances_schedule(self):
        agent = DoubleQAgent(AgentConfig(), seed=4)
        s = np.zeros(58)
        e0 = agent.epsilon
        agent.act(s)
        assert agent.global_step == 1
        assert agent.epsilon < e0

    @pytest.mark.parametrize("greedy", [True, False])
    @pytest.mark.parametrize("state_value, b2", [(np.nan, 0.0), (0.5, np.inf), (0.5, -np.inf)],
                             ids=["nan_state", "inf_q", "minus_inf_q"])
    def test_non_finite_q_value_raises(self, greedy, state_value, b2):
        agent = DoubleQAgent(AgentConfig(), seed=5)
        qnet.layers(agent.online)[3][1] = b2  # -inf is never the greedy choice
        before = agent.global_step, agent.rng.bit_generator.state
        with pytest.raises(FloatingPointError, match="non-finite Q-value"):
            agent.act(np.full(58, state_value), greedy=greedy)
        assert (agent.global_step, agent.rng.bit_generator.state) == before
