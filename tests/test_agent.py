import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt import qnet
from ranopt.agent import (BUFFER_FIELDS, AgentConfig, DoubleQAgent, Experience, ReplayBuffer,
                          double_q_target, epsilon_at, preload, read_experience_csv,
                          sample_segments, select_action, valid_segment_starts,
                          write_experience_csv)
from ranopt.qnet import QNetParams


def exp(ep, tag=0.0, reward=0.0, action=0):
    s = np.zeros(58)
    s[0] = tag
    sn = np.zeros(58)
    sn[0] = tag + 0.001
    return Experience(state=s, action=action, reward=reward, next_state=sn, episode_id=ep)


def push(buf, e):
    preload(buf, [e])


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
        return QNetParams(np.zeros((32, 58)), np.zeros(32), np.zeros((5, 32)),
                          np.array(b2, dtype=float))
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

    @pytest.mark.parametrize("field", ["state", "next_state"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_refused(self, field, value):
        agent = DoubleQAgent(AgentConfig())
        e = exp(0)
        getattr(e, field)[3] = value
        with pytest.raises(ValueError, match=f"record 0: {field} holds a non-finite value"):
            agent.observe(**vars(e))
        assert len(agent.buffer) == 0


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

    def test_no_valid_segment_raises(self):
        buf = ReplayBuffer()
        push(buf, exp(0))
        push(buf, exp(1))
        with pytest.raises(ValueError):
            sample_segments(buf, 2, 1, np.random.default_rng(0))

    def test_starts_kept_until_next_write(self):
        buf = ReplayBuffer(capacity=4)
        preload(buf, [exp(0), exp(0), exp(1)])
        starts = valid_segment_starts(buf, 2)
        assert valid_segment_starts(buf, 2) is starts and not starts.flags.writeable
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

    @settings(max_examples=200, deadline=None)
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
                arrays = buf.arrays()
                assert [list(t) for t in zip(*(arrays[f].tolist() for f in BUFFER_FIELDS))] == [
                    [e.state.tolist(), e.next_state.tolist(), e.action, e.reward, e.episode_id]
                    for e in ref.items]
        if not ref.valid_segment_starts(n_step):
            return
        rows = sample_segments(buf, n_step, batch, np.random.default_rng(seed))
        segments = ref.sample_segments(n_step, batch, np.random.default_rng(seed))
        assert rows.shape == (batch, n_step)
        for r, seg in zip(rows, segments):
            assert buf.states[r].tolist() == [e.state.tolist() for e in seg]
            assert buf.next_states[r].tolist() == [e.next_state.tolist() for e in seg]
            assert buf.actions[r].tolist() == [e.action for e in seg]
            assert buf.rewards[r].tolist() == [e.reward for e in seg]
            assert buf.episode_ids[r].tolist() == [e.episode_id for e in seg]


def target_of(segment, online, target, gamma):
    """double_q_target for one segment of transitions, as a batch of one."""
    y = double_q_target(np.array([[e.reward for e in segment]]),
                        segment[-1].next_state[None], online, target, gamma)
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


class TestTrainStep:
    def test_empty_buffer_raises(self):
        agent = DoubleQAgent(AgentConfig())
        with pytest.raises(ValueError):
            agent.train_step()

    def test_zero_td_error_fixpoint(self):
        # constant nets with all outputs equal: Y = r + g*q, set so Y == Q
        cfg = AgentConfig(n_step=1, batch_segments=4)
        agent = DoubleQAgent(cfg)
        q = 1.0 / (1.0 - cfg.gamma) * 0.5
        agent.online, agent.target = value_nets([q] * 5, [q] * 5)
        agent.observe(**vars(exp(0, reward=0.5)))
        before = agent.online.ravel()
        td = agent.train_step()
        assert td == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(agent.online.ravel(), before)

    def test_tau_zero_target_frozen(self):
        cfg = AgentConfig(n_step=1, tau=0.0)
        agent = DoubleQAgent(cfg)
        agent.observe(**vars(exp(0, reward=0.3)))
        before = agent.target.ravel().copy()
        agent.train_step()
        assert np.array_equal(agent.target.ravel(), before)

    def test_lr_zero_keeps_online(self):
        cfg = AgentConfig(n_step=1, learning_rate=0.0)
        agent = DoubleQAgent(cfg)
        agent.observe(**vars(exp(0, reward=0.3)))
        before = agent.online.ravel().copy()
        agent.train_step()
        assert np.array_equal(agent.online.ravel(), before)

    def test_non_finite_td_error_leaves_networks(self):
        cfg = AgentConfig(n_step=1)
        agent = DoubleQAgent(cfg)
        agent.online, agent.target = value_nets([np.inf] * 5, [1.0] * 5)
        agent.observe(**vars(exp(0, reward=0.3)))
        online, target = agent.online.copy(), agent.target.copy()
        with pytest.raises(FloatingPointError, match="non-finite TD error"):
            agent.train_step()
        assert agent.online.ravel().tobytes() == online.ravel().tobytes()
        assert agent.target.ravel().tobytes() == target.ravel().tobytes()

    def test_single_transition_convergence(self):
        # one-step regression: learning rate sized for the tiny-input NTK
        cfg = AgentConfig(n_step=1, batch_segments=4, seed=2,
                          learning_rate=0.01, tau=0.1)
        agent = DoubleQAgent(cfg)
        e = exp(0, tag=0.4, reward=0.8, action=2)
        e.next_state = np.zeros(58)
        e.next_state[1] = 0.9
        agent.observe(**vars(e))
        td = math.inf
        for _ in range(5000):
            td = agent.train_step()
            if td < 1e-3:
                break
        assert td < 1e-3


class TestExperienceCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [Experience(state=rng.uniform(0, 1, 58), action=int(rng.integers(5)),
                              reward=float(rng.uniform(-1, 1)),
                              next_state=rng.uniform(0, 1, 58), episode_id=i)
                   for i in range(20)]
        path = tmp_path / "hist.csv"
        write_experience_csv(path, records)
        loaded = read_experience_csv(path)
        assert len(loaded) == 20
        for a, b in zip(records, loaded):
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.next_state, b.next_state)
            assert (a.action, a.reward, a.episode_id) == (b.action, b.reward, b.episode_id)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_experience_csv(path)

    def test_bad_row_named(self, tmp_path):
        rng = np.random.default_rng(6)
        rec = Experience(state=rng.uniform(0, 1, 58), action=1, reward=0.0,
                         next_state=rng.uniform(0, 1, 58), episode_id=0)
        path = tmp_path / "hist.csv"
        write_experience_csv(path, [rec])
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace(",1,", ",7,", 1))  # invalid action code
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="record 1"):
            read_experience_csv(path)


class TestActGreedy:
    def test_greedy_deterministic_and_schedule_frozen(self):
        agent = DoubleQAgent(AgentConfig(seed=3))
        s = np.random.default_rng(7).uniform(0, 1, 58)
        step_before = agent.global_step
        actions = {agent.act(s, greedy=True) for _ in range(10)}
        assert len(actions) == 1
        assert agent.global_step == step_before

    def test_training_act_advances_schedule(self):
        agent = DoubleQAgent(AgentConfig(seed=4))
        s = np.zeros(58)
        e0 = agent.epsilon
        agent.act(s)
        assert agent.global_step == 1
        assert agent.epsilon < e0
