import json
import math
import os

import numpy as np
import pytest

from ranopt.agent import AgentConfig, DoubleQAgent
from ranopt.harness import (BaselineRow, ExperimentConfig, episode_seed, episode_stats,
                            evaluate_checkpoint, load_checkpoint, run_baseline_suite,
                            run_episode, save_checkpoint, train_experiment, write_baseline_csv)
from ranopt.sim import SchedulerOption, UeProfile


def small_cfg(**over):
    defaults = dict(episodes=3, steps_demand=20, steps_rest=3, checkpoint_every=2,
                    baseline_episodes=4)
    defaults.update(over)
    return ExperimentConfig(**defaults)


class TestEpisodeStats:
    def test_hand_arithmetic(self):
        mean, se = episode_stats([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert se == pytest.approx(1.0 / math.sqrt(3))

    def test_constant_list(self):
        assert episode_stats([4.2] * 8) == (pytest.approx(4.2), 0.0)

    def test_single_element_convention(self):
        assert episode_stats([0.7]) == (pytest.approx(0.7), 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            episode_stats([])


class TestEpisodeSeed:
    def test_deterministic_and_distinct(self):
        seeds = [episode_seed(0, i) for i in range(100)]
        assert seeds == [episode_seed(0, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_master_seed_matters(self):
        assert episode_seed(1, 0) != episode_seed(2, 0)


class TestRunEpisode:
    def test_tick_count(self):
        cfg = ExperimentConfig()
        calls = []
        import ranopt.harness as hn
        orig = hn.step

        def counting(*args, **kw):
            calls.append(1)
            return orig(*args, **kw)

        hn.step = counting
        try:
            run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        finally:
            hn.step = orig
        assert len(calls) == 90

    def test_baseline_never_touches_agent(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        before = agent.online.ravel().copy()
        run_episode(cfg, 0, constant_action=SchedulerOption.MAXIMUM_C_OVER_I)
        assert np.array_equal(agent.online.ravel(), before)
        assert len(agent.buffer) == 0

    def test_training_pushes_one_experience_per_demand_step(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        run_episode(cfg, 0, agent=agent, train=True)
        assert len(agent.buffer) == cfg.steps_demand
        run_episode(cfg, 1, agent=agent, train=True)
        assert len(agent.buffer) == 2 * cfg.steps_demand

    def test_experiences_tagged_with_episode(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        run_episode(cfg, 0, agent=agent, train=True)
        run_episode(cfg, 1, agent=agent, train=True)
        ids = [e.episode_id for e in agent.buffer]
        assert set(ids[:cfg.steps_demand]) == {0}
        assert set(ids[cfg.steps_demand:]) == {1}

    def test_eval_does_not_advance_epsilon(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        e0 = agent.epsilon
        run_episode(cfg, 0, agent=agent, train=False)
        assert agent.epsilon == e0

    def test_rewards_stay_clipped(self):
        for mode in ("cell_throughput", "spectrum_efficiency", "ue_gap"):
            cfg = small_cfg(reward_mode=mode)
            agent = DoubleQAgent(cfg.agent)
            run_episode(cfg, 0, agent=agent, train=True)
            for e in agent.buffer:
                assert -1.0 <= e.reward <= 1.0

    def test_needs_exactly_one_policy(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            run_episode(cfg, 0)
        with pytest.raises(ValueError):
            run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent),
                        constant_action=SchedulerOption.EQUAL_RATE)


class TestBaselineSuite:
    def test_shape_and_determinism(self):
        cfg = small_cfg()
        rows1 = run_baseline_suite(cfg)
        rows2 = run_baseline_suite(cfg)
        assert [r.action for r in rows1] == [r.action for r in rows2]
        assert [r.mean_reward for r in rows1] == [r.mean_reward for r in rows2]
        assert len(rows1) == 5
        assert all(r.episodes == cfg.baseline_episodes for r in rows1)

    def test_best_first_ordering(self):
        rows = run_baseline_suite(small_cfg())
        means = [r.mean_reward for r in rows]
        assert means == sorted(means, reverse=True)

    def test_throughput_best_is_max_ci(self):
        cfg = ExperimentConfig(baseline_episodes=10)
        rows = run_baseline_suite(cfg)
        assert rows[0].action == SchedulerOption.MAXIMUM_C_OVER_I

    def test_gap_best_is_equal_rate(self):
        cfg = ExperimentConfig(reward_mode="ue_gap", baseline_episodes=10)
        rows = run_baseline_suite(cfg)
        assert rows[0].action == SchedulerOption.EQUAL_RATE


class TestTrainExperiment:
    def test_zero_episodes(self, tmp_path):
        cfg = small_cfg(episodes=0)
        results, agent = train_experiment(cfg, out_dir=tmp_path / "run")
        assert results == []
        assert os.listdir(tmp_path / "run" / "final") == ["checkpoint.npz"]
        init = DoubleQAgent(cfg.agent)
        assert np.array_equal(agent.online.ravel(), init.online.ravel())

    def test_curve_length_and_checkpoints(self, tmp_path):
        cfg = small_cfg(episodes=5, checkpoint_every=2)
        results, _ = train_experiment(cfg, out_dir=tmp_path / "run")
        assert len(results) == 5
        lines = (tmp_path / "run" / "curve.csv").read_text().splitlines()
        assert lines[0] == "episode,mean_reward,stderr,epsilon_end,mean_td_error"
        assert len(lines) == 6
        ckpts = sorted(os.listdir(tmp_path / "run" / "checkpoints"))
        assert ckpts == ["ep_0002", "ep_0004"]

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small_cfg(episodes=4)
        train_experiment(cfg, out_dir=tmp_path / "a")
        train_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "curve.csv").read_bytes() == (tmp_path / "b" / "curve.csv").read_bytes()

    def test_resume_reproduces_tail(self, tmp_path):
        cfg = small_cfg(episodes=6, checkpoint_every=3)
        full, _ = train_experiment(cfg, out_dir=tmp_path / "full")
        resumed, _ = train_experiment(cfg, out_dir=tmp_path / "resumed",
                                      resume_from=tmp_path / "full" / "checkpoints" / "ep_0003")
        assert [r.episode_index for r in resumed] == [3, 4, 5]
        for a, b in zip(full[3:], resumed):
            assert a.mean_reward == b.mean_reward
            assert a.epsilon_end == b.epsilon_end
            assert a.mean_td_error == b.mean_td_error

    def test_resume_into_same_dir_keeps_history(self, tmp_path):
        train_experiment(small_cfg(episodes=6, checkpoint_every=3), out_dir=tmp_path / "full")
        run = tmp_path / "r"
        train_experiment(small_cfg(episodes=5, checkpoint_every=3), out_dir=run)
        with open(run / "curve.csv", "a") as fh:
            fh.write("1")  # a row torn by a crash: its episode number is cut short
        train_experiment(small_cfg(episodes=6, checkpoint_every=3), out_dir=run,
                         resume_from=run / "checkpoints" / "ep_0003")
        assert (run / "curve.csv").read_bytes() == (tmp_path / "full" / "curve.csv").read_bytes()

    def test_preload_feeds_buffer(self, tmp_path):
        from ranopt.agent import write_experience_csv, Experience
        rng = np.random.default_rng(0)
        records = [Experience(state=rng.uniform(0, 1, 58), action=1, reward=0.1,
                              next_state=rng.uniform(0, 1, 58), episode_id=-1)
                   for _ in range(10)]
        path = tmp_path / "hist.csv"
        write_experience_csv(path, records)
        cfg = small_cfg(episodes=1, preload_path=str(path))
        results, agent = train_experiment(cfg)
        assert len(agent.buffer) == 10 + cfg.steps_demand


def assert_same_agent(a, b):
    """Networks, buffer, RNG state and step agree bit for bit and by type."""
    assert a.online.ravel().tobytes() == b.online.ravel().tobytes()
    assert a.target.ravel().tobytes() == b.target.ravel().tobytes()
    assert a.global_step == b.global_step
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert len(a.buffer) == len(b.buffer)
    for x, y in zip(a.buffer, b.buffer):
        assert x.state.dtype == y.state.dtype and x.state.tobytes() == y.state.tobytes()
        assert x.next_state.dtype == y.next_state.dtype
        assert x.next_state.tobytes() == y.next_state.tobytes()
        assert type(x.action) is type(y.action) is int and x.action == y.action
        assert type(x.reward) is type(y.reward) is float and x.reward.hex() == y.reward.hex()
        assert type(x.episode_id) is type(y.episode_id) is int and x.episode_id == y.episode_id


def rewrite_checkpoint(directory, meta=None, **arrays):
    """Replace meta keys and members of a saved checkpoint.npz; a member
    given as None is left out."""
    path = directory / "checkpoint.npz"
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    members["meta"] = np.array(json.dumps({**json.loads(str(members["meta"])), **(meta or {})}))
    members.update(arrays)
    np.savez(path, **{name: a for name, a in members.items() if a is not None})


class TestCheckpointRoundtrip:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = small_cfg(episodes=2)
        return cfg, train_experiment(cfg)[1]

    def test_agent_state_exact(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        loaded, nxt = load_checkpoint(tmp_path / "ck", cfg)
        assert nxt == 2
        assert len(loaded.buffer) == 2 * cfg.steps_demand
        assert_same_agent(loaded, agent)

    def test_same_state_same_bytes(self, tmp_path, trained):
        _, agent = trained
        save_checkpoint(tmp_path / "a", agent, next_episode=2)
        save_checkpoint(tmp_path / "b", agent, next_episode=2)
        assert os.listdir(tmp_path / "a") == ["checkpoint.npz"]
        assert ((tmp_path / "a" / "checkpoint.npz").read_bytes()
                == (tmp_path / "b" / "checkpoint.npz").read_bytes())

    def test_torn_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_cfg(episodes=1)
        _, agent = train_experiment(cfg)
        save_checkpoint(tmp_path / "ck", agent, next_episode=1)
        saved, _ = load_checkpoint(tmp_path / "ck", cfg)
        run_episode(cfg, 1, agent=agent, train=True)

        def torn(fh, **arrays):
            fh.write(b"PK\x03\x04 half a member")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        monkeypatch.undo()
        assert os.listdir(tmp_path / "ck") == ["checkpoint.npz"]
        loaded, nxt = load_checkpoint(tmp_path / "ck", cfg)
        assert nxt == 1
        assert_same_agent(loaded, saved)

    @pytest.mark.parametrize("meta, arrays, message", [
        ({"format": 1}, {}, "unsupported checkpoint format 1"),
        ({"manifest_sha256": "0" * 64}, {}, "KPI manifest"),
        ({}, {"online_w1": np.zeros((32, 57))}, "online w1"),
        ({}, {"rewards": np.zeros(39)}, "buffer arrays"),
        ({}, {"states": np.zeros((40, 57))}, r"'states': \[40, 57\]"),
        ({}, {"actions": None}, "lacks arrays actions; format 2 holds meta and the arrays "
                                "online_w1, .*, episode_ids"),
        ({}, {"actions": np.array(0)}, "lacks arrays actions;"),
        ({}, {"online_w1": None}, "lacks arrays online_w1;"),
    ], ids=["format", "manifest", "w1_shape", "buffer_lengths", "states_width",
            "missing_actions", "scalar_actions", "missing_online_w1"])
    def test_refuses_mismatch(self, tmp_path, trained, meta, arrays, message):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        rewrite_checkpoint(tmp_path / "ck", meta, **arrays)
        with pytest.raises(ValueError, match=message) as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_bad_reward_named_by_record(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        rewards = np.array([e.reward for e in agent.buffer])
        rewards[7] = 3.0
        rewrite_checkpoint(tmp_path / "ck", rewards=rewards)
        with pytest.raises(ValueError, match=r"record 7: reward 3\.0 outside"):
            load_checkpoint(tmp_path / "ck", cfg)

    def test_non_finite_state_named_by_record(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        states = np.array([e.state for e in agent.buffer])
        states[5, 11] = np.nan
        rewrite_checkpoint(tmp_path / "ck", states=states)
        with pytest.raises(ValueError, match="record 5: state holds a non-finite value") as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_evaluate_checkpoint_deterministic(self, tmp_path):
        cfg = small_cfg(episodes=2)
        train_experiment(cfg, out_dir=tmp_path / "run")
        a = evaluate_checkpoint(cfg, tmp_path / "run" / "final", episodes=3)
        b = evaluate_checkpoint(cfg, tmp_path / "run" / "final", episodes=3)
        assert a == b


class TestCsvWriters:
    def test_baseline_csv(self, tmp_path):
        rows = [BaselineRow(SchedulerOption.EQUAL_RATE, 0.5, 0.01, 4)]
        path = tmp_path / "b.csv"
        write_baseline_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "action,mean_reward,stderr,episodes"
        assert lines[1].startswith("EQUAL_RATE,0.5,0.01,4")
