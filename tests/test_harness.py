import hashlib
import json
import math
import os
import shutil
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt.agent import AgentConfig, DoubleQAgent, greedy_options, valid_segment_starts
from ranopt.harness import (BASELINE_BLOCK_EPISODES, BaselineRow, ExperimentConfig, build_agent,
                            episode_seed, episode_stats, evaluate_checkpoint, load_checkpoint,
                            run_baseline_suite, run_episode, run_rows, save_checkpoint,
                            train_experiment, write_baseline_csv)
from ranopt.kpi import REWARD_MODES, STATE_DIM
from ranopt.qnet import init_params, layers
from ranopt.sim import RSRP_MAX_DBM, RSRP_MIN_DBM, CellState, SchedulerOption, SimConfig, UeProfile


def small_cfg(**over):
    defaults = dict(episodes=3, steps_demand=20, steps_rest=3, checkpoint_every=2,
                    baseline_episodes=4)
    defaults.update(over)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def earlier_run(tmp_path_factory):
    """The checkpoint directory of a 1-episode run of seed 5, which preloads
    name, and that run's agent."""
    directory = tmp_path_factory.mktemp("earlier")
    _, agent = train_experiment(small_cfg(episodes=1, seed=5))
    save_checkpoint(directory, agent, next_episode=1)
    return directory, agent


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

    def test_states_composed_only_where_an_agent_reads_them(self, monkeypatch):
        import ranopt.harness as hn
        calls = []
        monkeypatch.setattr(hn, "compose_kpis",
                            lambda *args: calls.append(args[2]) or hn.INITIAL_STATE)
        cfg = small_cfg()
        run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        assert calls == []
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        assert calls == list(range(1, cfg.steps_demand + 1))  # no rest tick's

    def test_radio_table_built_once_per_agent_episode(self, monkeypatch):
        import ranopt.harness as hn
        shapes, orig = [], hn.radio_table
        monkeypatch.setattr(hn, "radio_table", lambda rsrp, eff: shapes.append(rsrp.shape)
                            or orig(rsrp, eff))
        cfg = small_cfg()
        run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        assert shapes == []
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        assert shapes == [(cfg.steps_demand, len(cfg.ue_profiles))]

    def test_baseline_never_touches_agent(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        before = agent.online.copy()
        run_episode(cfg, 0, constant_action=SchedulerOption.MAXIMUM_C_OVER_I)
        assert np.array_equal(agent.online, before)
        assert len(agent.buffer) == 0

    def test_training_pushes_one_experience_per_demand_step(self):
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        run_episode(cfg, 0, agent=agent, train=True)
        assert len(agent.buffer) == cfg.steps_demand
        run_episode(cfg, 1, agent=agent, train=True)
        assert len(agent.buffer) == 2 * cfg.steps_demand

    def test_one_segment_scan_then_appends_keep_the_index(self, monkeypatch):
        import ranopt.agent as ag
        calls, orig = [], ag.valid_segment_starts
        monkeypatch.setattr(ag, "valid_segment_starts",
                            lambda *args: calls.append(len(args[0])) or orig(*args))
        cfg = small_cfg()
        agent = DoubleQAgent(cfg.agent)
        run_episode(cfg, 0, agent=agent, train=True)
        run_episode(cfg, 1, agent=agent, train=True)
        # the first training tick builds the index; every later append keeps it
        assert calls == [1]
        assert agent.buffer._segment_index(cfg.agent.n_step)[2] == 2 * (
            cfg.steps_demand - cfg.agent.n_step + 1)
        assert calls == [1]

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
        for mode in ("cell_throughput", "ue_gap"):
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

    def test_each_seed_drawn_once(self, monkeypatch):
        import ranopt.harness as hn
        n_eps = hn.BASELINE_BLOCK_EPISODES + 2  # a full block and part of a second
        drawn, orig = [], hn.init_cell_state
        monkeypatch.setattr(hn, "init_cell_state", lambda *args: drawn.append(args[2])
                            or orig(*args))
        full = 2 + hn.BASELINE_BLOCK_EPISODES
        blocks = [range(2, full), range(full, 2 + n_eps)]
        for mode in REWARD_MODES:
            cfg = small_cfg(reward_mode=mode, baseline_episodes=n_eps)
            alone = {option: [run_episode(cfg, 2 + i, constant_action=option).mean_reward
                              for i in range(n_eps)] for option in SchedulerOption}
            drawn.clear()
            rows = run_baseline_suite(cfg, first_episode=2)
            # one draw a block, of that block's seeds
            assert drawn == [[episode_seed(cfg.seed, ep) for ep in block] for block in blocks]
            assert sorted(row.action for row in rows) == list(SchedulerOption)
            for row in rows:
                mean, stderr = episode_stats(alone[row.action])
                assert (row.mean_reward.hex(), row.stderr.hex()) == (mean.hex(), stderr.hex())
                assert row.episodes == n_eps

    def test_memory_does_not_grow_with_the_suite(self):
        import ranopt.harness as hn
        run_baseline_suite(small_cfg(), episodes=1)  # first-call allocations out of the way
        peaks = []
        for blocks in (1, 3):
            tracemalloc.start()
            try:
                run_baseline_suite(small_cfg(), episodes=blocks * hn.BASELINE_BLOCK_EPISODES)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block's stacked episodes are held at a time
        assert peaks[1] <= 1.2 * peaks[0]

    def test_throughput_best_is_max_ci(self):
        cfg = ExperimentConfig(baseline_episodes=10)
        rows = run_baseline_suite(cfg)
        assert rows[0].action == SchedulerOption.MAXIMUM_C_OVER_I

    def test_gap_best_is_equal_rate(self):
        cfg = ExperimentConfig(reward_mode="ue_gap", baseline_episodes=10)
        rows = run_baseline_suite(cfg)
        assert rows[0].action == SchedulerOption.EQUAL_RATE


@st.composite
def row_runs(draw):
    """A short run of 1..12 UEs, some without traffic or variance, so that
    rows are partly active or empty, a budget of 1..120 PRBs, either reward
    mode, 1..4 episodes from any first one, and a policy: the greedy one
    of a seeded network, or the five constant options."""
    n = draw(st.integers(1, 12))
    volume = st.just(0.0) | st.floats(0.0, 3000.0)
    profiles = [UeProfile(draw(st.floats(RSRP_MIN_DBM, RSRP_MAX_DBM)), draw(volume), draw(volume))
                for _ in range(n)]
    cfg = ExperimentConfig(reward_mode=draw(st.sampled_from(REWARD_MODES)),
                           steps_demand=draw(st.integers(1, 6)), steps_rest=draw(st.integers(0, 2)),
                           ue_profiles=profiles,
                           sim=SimConfig(prb_budget=draw(st.integers(1, 120)),
                                         rf_jitter_std_db=draw(st.sampled_from([0.0, 1.0]))),
                           seed=draw(st.integers(0, 2 ** 64 - 1)))
    episodes = range(first := draw(st.integers(0, 100)), first + draw(st.integers(1, 4)))
    return cfg, episodes, draw(st.none() | st.integers(0, 2 ** 32 - 1))


class TestRunRows:
    """Each row of a lock-step run against its episode run alone."""

    @staticmethod
    def recorded(monkeypatch):
        """The states composed and rewards taken through this module's
        globals, as one list each, in call order."""
        import ranopt.harness as hn
        states, rewards = [], []
        compose, reward_for = hn.compose_kpis, hn._reward_for
        monkeypatch.setattr(hn, "compose_kpis", lambda *args: states.append(compose(*args))
                            or states[-1])
        monkeypatch.setattr(hn, "_reward_for", lambda *args: rewards.append(reward_for(*args))
                            or rewards[-1])
        return states, rewards

    @settings(max_examples=60, derandomize=True, deadline=None)
    # the default episode shape, greedy, over two blocks of rows
    @example(run=(ExperimentConfig(steps_demand=12, steps_rest=2), range(3, 15), 7))
    # every UE idle: empty rows; then the default UEs under every option
    @example(run=(ExperimentConfig(steps_demand=3, steps_rest=1,
                                   ue_profiles=[UeProfile(-100.0, 0.0, 0.0)] * 9), range(2), 1))
    @example(run=(ExperimentConfig(steps_demand=4, reward_mode="ue_gap"), range(5, 8), None))
    @given(run=row_runs())
    def test_each_row_is_its_episode_alone(self, run):
        cfg, episodes, net_seed = run
        with pytest.MonkeyPatch.context() as patch:
            states, rewards = self.recorded(patch)
            if net_seed is None:
                options = list(SchedulerOption)
                means = run_rows(cfg, episodes, options)
                alone = [[run_episode(cfg, ep, constant_action=option) for ep in episodes]
                         for option in options]
            else:
                agent = DoubleQAgent(cfg.agent, seed=net_seed)
                means = run_rows(cfg, episodes, lambda x: greedy_options(agent.online, x))
                alone = [[run_episode(cfg, ep, agent=agent) for ep in episodes]]
        assert means.shape == (len(alone), len(episodes))
        for row_means, runs in zip(means, alone):
            assert [m.hex() for m in row_means] == [r.mean_reward.hex() for r in runs]
        # the rows' ticks, block by block, then each episode's ticks alone
        ticks, blocks = cfg.steps_demand, -(-len(episodes) // BASELINE_BLOCK_EPISODES)

        def by_block(recorded, axis):  # (ticks, ...) arrays of the blocks' rows, joined
            return np.concatenate([recorded[b * ticks:(b + 1) * ticks] for b in range(blocks)],
                                  axis=axis)

        rows_rewards = by_block(rewards, -1)
        alone_rewards = np.reshape(rewards[blocks * ticks:], (len(alone), len(episodes), ticks))
        assert rows_rewards.shape == (ticks,) + alone_rewards.shape[:2]
        assert np.moveaxis(rows_rewards, 0, -1).tobytes() == alone_rewards.tobytes()
        if net_seed is not None:
            rows_states = by_block(states, -2)
            assert rows_states.shape == (ticks, 1, len(episodes), STATE_DIM)
            alone_states = np.reshape(states[blocks * ticks:], (len(episodes), ticks, STATE_DIM))
            assert rows_states[:, 0].swapaxes(0, 1).tobytes() == alone_states.tobytes()
        else:
            assert states == []

    def test_a_non_finite_q_value_in_one_row_raises(self):
        theta = init_params(3)
        states = np.full((1, 3, STATE_DIM), 0.5)
        states[0, 1, 7] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite Q-value"):
            greedy_options(theta, states)
        assert greedy_options(theta, states[:, [0, 2]]).shape == (1, 2)

    def test_no_episodes_refused(self, earlier_run):
        cfg = small_cfg(seed=5)
        for run, empty in ((lambda: run_baseline_suite(cfg, episodes=0), r"range\(0, 0\)"),
                           (lambda: evaluate_checkpoint(cfg, earlier_run[0], 0, first_episode=3),
                            r"range\(3, 3\)")):
            with pytest.raises(ValueError, match=rf"^run_rows needs at least one episode, got "
                                                 rf"the empty {empty}$"):
                run()

    def test_no_options_refused_before_a_draw(self, monkeypatch):
        import ranopt.harness as hn
        drawn = []
        monkeypatch.setattr(hn, "init_cell_state", lambda *args: drawn.append(args))
        for empty, shown in (([], r"\[\]"), ((), r"\(\)")):
            with pytest.raises(ValueError, match=rf"^run_rows needs at least one option, got "
                                                 rf"the empty {shown}$"):
                run_rows(small_cfg(), range(2), empty)
        assert drawn == []

    def test_a_column_in_any_order_is_each_episode_alone(self):
        """Options out of code order and repeated, over a full block and part
        of a second: each row's mean is run_episode's, bit for bit."""
        cfg = small_cfg(steps_demand=8, steps_rest=1)
        options = [SchedulerOption.MAXIMUM_C_OVER_I, SchedulerOption.EQUAL_RATE,
                   SchedulerOption.PROPORTIONAL_FAIR_HIGH, SchedulerOption.MAXIMUM_C_OVER_I]
        episodes = range(4, 6 + BASELINE_BLOCK_EPISODES)
        means = run_rows(cfg, episodes, options)
        assert [[m.hex() for m in row] for row in means] == [
            [run_episode(cfg, ep, constant_action=option).mean_reward.hex() for ep in episodes]
            for option in options]

    def test_eval_memory_does_not_grow_with_its_episodes(self, tmp_path):
        cfg = small_cfg(episodes=1)
        train_experiment(cfg, out_dir=tmp_path)
        evaluate_checkpoint(cfg, tmp_path / "final", episodes=1)  # first-call allocations
        peaks = []
        for blocks in (1, 3):
            tracemalloc.start()
            try:
                evaluate_checkpoint(cfg, tmp_path / "final",
                                    episodes=blocks * BASELINE_BLOCK_EPISODES)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block's stacked episodes are held at a time
        assert peaks[1] <= 1.2 * peaks[0]


class TestDemandTicksOnly:
    """run_rows draws and steps each block for its demand ticks alone, under
    a column of constants and under a greedy policy; run_episode still steps
    its rest ticks after them."""

    def test_rows_draw_and_step_only_the_demand_ticks(self, monkeypatch):
        import ranopt.harness as hn
        import ranopt.sim as sim
        cfg = small_cfg(steps_demand=6, steps_rest=4)
        drawn, stepped = [], []
        draw, rows_step, episode_step = hn.init_cell_state, sim.step, hn.step
        monkeypatch.setattr(hn, "init_cell_state", lambda *args: drawn.append(len(args[3]))
                            or draw(*args))
        monkeypatch.setattr(sim, "step", lambda cell, options: stepped.append(
            len(cell.demand_mb)) or rows_step(cell, options))
        agent = DoubleQAgent(cfg.agent, seed=3)
        episodes, blocks = range(1, 2 + BASELINE_BLOCK_EPISODES), 2
        for policy in (list(SchedulerOption), lambda x: greedy_options(agent.online, x)):
            drawn.clear()
            stepped.clear()
            run_rows(cfg, episodes, policy)
            # each block a cell of its demand ticks, each stepped once
            assert drawn == [cfg.steps_demand] * blocks
            assert stepped == [cfg.steps_demand] * (blocks * cfg.steps_demand)
        calls = []
        monkeypatch.setattr(hn, "step", lambda *args: calls.append(1) or episode_step(*args))
        drawn.clear()
        run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        run_episode(cfg, 0, agent=agent)
        assert drawn == [cfg.steps_demand + cfg.steps_rest] * 2
        assert len(calls) == 2 * (cfg.steps_demand + cfg.steps_rest)


class TestTraceContract:
    """The names and types a tracer that patches module globals relies on."""

    def test_step_schedules_through_sim_globals(self, monkeypatch):
        import ranopt.sim as sim
        options, orig = [], sim.schedule_prbs
        monkeypatch.setattr(sim, "schedule_prbs", lambda *args: options.append(args[0])
                            or orig(*args))
        cfg = small_cfg()
        ticks = cfg.steps_demand + cfg.steps_rest
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        # every option, MAXIMUM_C_OVER_I's ranked fill too, is one traced call per tick
        for option in SchedulerOption:
            run_episode(cfg, 0, constant_action=option)
        assert len(options) == 6 * ticks
        assert options[ticks:] == [o for o in SchedulerOption for _ in range(ticks)]
        assert all(isinstance(option, SchedulerOption) for option in options)

    def test_step_takes_the_cell_and_the_option(self, monkeypatch):
        import ranopt.harness as hn
        calls, orig = [], hn.step

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return orig(*args, **kwargs)

        monkeypatch.setattr(hn, "step", recording)
        cfg = small_cfg()
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        run_episode(cfg, 0, constant_action=SchedulerOption.MAXIMUM_C_OVER_I)
        assert len(calls) == 2 * (cfg.steps_demand + cfg.steps_rest)
        assert all(len(args) == 2 and not kwargs and isinstance(args[0], CellState)
                   and isinstance(args[1], SchedulerOption) for args, kwargs in calls)

    def test_prb_utilization_is_a_float(self, monkeypatch):
        import ranopt.harness as hn
        kinds, orig = set(), hn.step

        def recording(*args):
            cell, obs = orig(*args)
            kinds.add(type(obs.prb_utilization))
            return cell, obs

        monkeypatch.setattr(hn, "step", recording)
        cfg = small_cfg()
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        assert kinds == {float}

    def test_harness_reaches_layers_through_its_globals(self, monkeypatch):
        import ranopt.harness as hn
        calls = {}
        for name in ("step", "compose_kpis", "init_cell_state"):
            orig = getattr(hn, name)
            monkeypatch.setattr(hn, name, lambda *args, _n=name, _f=orig:
                                calls.setdefault(_n, []).append(1) or _f(*args))
        cfg = small_cfg()
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        run_baseline_suite(cfg, episodes=1)
        ticks = cfg.steps_demand + cfg.steps_rest
        # the suite steps its cell of option rows through sim.step: only one-row
        # cells pass this module's step
        assert {name: len(c) for name, c in calls.items()} == {
            "init_cell_state": 2, "step": ticks, "compose_kpis": cfg.steps_demand}

    def test_a_tracer_of_the_globals_reads_scalars(self, monkeypatch):
        """Wrapped as a tracer wraps them, schedule_prbs named by its first
        argument and step's utilization read by float(), the agent's episode
        and a suite of two blocks run: every schedule_prbs call is of one
        scalar option, all from the one-row episode, only one-row cells pass
        harness.step, and every tick is one sim._schedule pass, a one-row
        tick's over its row under its option and each suite block tick's
        over the column of every option's blocks."""
        import ranopt.harness as hn
        import ranopt.sim as sim
        names, passes, utilizations = [], [], []
        schedule, kernel, harness_step = sim.schedule_prbs, sim._schedule, hn.step

        def traced_schedule(*args, **kwargs):
            option = args[0] if args else kwargs["option"]
            assert np.ndim(option) == 0
            names.append(SchedulerOption(option).name)
            return schedule(*args, **kwargs)

        def traced_kernel(codes, avail, *args):
            passes.append((list(codes), avail.size // avail.shape[-1]))
            return kernel(codes, avail, *args)

        def traced_step(*args, **kwargs):
            result = harness_step(*args, **kwargs)
            utilizations.append(float(result[1].prb_utilization))
            return result

        monkeypatch.setattr(sim, "schedule_prbs", traced_schedule)
        monkeypatch.setattr(sim, "_schedule", traced_kernel)
        monkeypatch.setattr(hn, "step", traced_step)
        cfg = small_cfg(baseline_episodes=hn.BASELINE_BLOCK_EPISODES + 1)
        ticks = cfg.steps_demand + cfg.steps_rest
        run_episode(cfg, 0, agent=DoubleQAgent(cfg.agent), train=False)
        run_baseline_suite(cfg)
        assert len(utilizations) == len(names) == ticks
        assert passes[:ticks] == [([SchedulerOption[name]], 1) for name in names]
        # each block's demand tick: one pass of the column, 5 x E rows; the
        # suite steps no rest tick
        codes = [int(o) for o in SchedulerOption]
        assert passes[ticks:] == [(codes, len(codes) * episodes)
                                  for episodes in (hn.BASELINE_BLOCK_EPISODES, 1)
                                  for _ in range(cfg.steps_demand)]

    def test_a_tracer_of_the_globals_reads_scalars_in_eval(self, monkeypatch, tmp_path):
        """evaluate_checkpoint under the same wrappers, over two blocks of
        rows: no cell of rows passes harness.step or schedule_prbs, a block's
        states are composed once a demand tick through this module's
        compose_kpis, and each tick of each block is one sim._schedule pass
        over its rows, whether their options agree or differ."""
        import ranopt.harness as hn
        import ranopt.sim as sim
        cfg = small_cfg(episodes=1)
        train_experiment(cfg, out_dir=tmp_path)
        names, rows, utilizations, composed = [], [], [], []
        schedule, kernel = sim.schedule_prbs, sim._schedule
        harness_step, compose = hn.step, hn.compose_kpis

        def traced_schedule(*args, **kwargs):
            option = args[0] if args else kwargs["option"]
            assert np.ndim(option) == 0
            names.append(SchedulerOption(option).name)
            return schedule(*args, **kwargs)

        def traced_kernel(codes, avail, *args):
            rows.append(avail.size // avail.shape[-1])
            return kernel(codes, avail, *args)

        def traced_step(*args, **kwargs):
            result = harness_step(*args, **kwargs)
            utilizations.append(float(result[1].prb_utilization))
            return result

        monkeypatch.setattr(sim, "schedule_prbs", traced_schedule)
        monkeypatch.setattr(sim, "_schedule", traced_kernel)
        monkeypatch.setattr(hn, "step", traced_step)
        monkeypatch.setattr(hn, "compose_kpis", lambda *args: composed.append(1) or compose(*args))
        episodes = BASELINE_BLOCK_EPISODES + 1
        evaluate_checkpoint(cfg, tmp_path / "final", episodes=episodes)
        assert names == utilizations == []
        assert len(composed) == 2 * cfg.steps_demand
        # each block's demand tick: one pass over its rows; eval steps no rest tick
        assert len(rows) == 2 * cfg.steps_demand
        assert sum(rows) == episodes * cfg.steps_demand


class TestTrainExperiment:
    def test_zero_episodes(self, tmp_path):
        cfg = small_cfg(episodes=0)
        results, agent = train_experiment(cfg, out_dir=tmp_path / "run")
        assert results == []
        assert os.listdir(tmp_path / "run" / "final") == ["checkpoint.npz"]
        init = DoubleQAgent(cfg.agent)
        assert np.array_equal(agent.online, init.online)

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

    def test_resume_past_the_end_keeps_its_count(self, tmp_path):
        _, trained = train_experiment(small_cfg(episodes=2), out_dir=tmp_path / "run")
        results, _ = train_experiment(small_cfg(episodes=1), out_dir=tmp_path / "again",
                                      resume_from=tmp_path / "run" / "final")
        assert results == []
        agent, next_episode = load_checkpoint(tmp_path / "again" / "final", small_cfg())
        assert next_episode == 2
        assert agent.global_step == trained.global_step

    def test_resume_into_same_dir_keeps_history(self, tmp_path):
        train_experiment(small_cfg(episodes=6, checkpoint_every=3), out_dir=tmp_path / "full")
        run = tmp_path / "r"
        train_experiment(small_cfg(episodes=5, checkpoint_every=3), out_dir=run)
        with open(run / "curve.csv", "a") as fh:
            fh.write("1")  # a row torn by a crash: its episode number is cut short
        train_experiment(small_cfg(episodes=6, checkpoint_every=3), out_dir=run,
                         resume_from=run / "checkpoints" / "ep_0003")
        assert (run / "curve.csv").read_bytes() == (tmp_path / "full" / "curve.csv").read_bytes()

    def test_preload_feeds_buffer(self, earlier_run):
        directory, earlier = earlier_run
        cfg = small_cfg(episodes=1, preload_path=str(directory))
        _, agent = train_experiment(cfg)
        history = entries(earlier.buffer, id_shift=-1)  # episode 0 of that run is -1 here
        assert len(agent.buffer) == 2 * cfg.steps_demand
        assert entries(agent.buffer)[:len(history)] == history

    @pytest.mark.parametrize("preload", [False, True], ids=["fresh", "preloaded"])
    def test_build_agent_takes_the_run_seed(self, earlier_run, preload):
        # the run's seed, 7, not that of the run the ring comes from, 5
        cfg = small_cfg(seed=7, preload_path=str(earlier_run[0]) if preload else None)
        agent = build_agent(cfg)
        assert agent.online.tobytes() == agent.target.tobytes() == init_params(7).tobytes()
        assert agent.rng.bit_generator.state == np.random.default_rng([7, 1]).bit_generator.state
        assert len(agent.buffer) == (cfg.steps_demand if preload else 0)

    def test_runs_of_two_seeds_start_from_different_networks(self):
        one, two = (build_agent(small_cfg(seed=seed)) for seed in (1, 2))
        assert one.online.tobytes() != two.online.tobytes()

    def test_preload_plain_buffer_fields(self, tmp_path, earlier_run):
        # the npz of BUFFER_FIELDS arrays that a preload once read, now a directory's
        # checkpoint.npz: no meta pins the layout of its states
        _, earlier = earlier_run
        (tmp_path / "history").mkdir()
        ring = list(earlier.buffer)
        np.savez(tmp_path / "history" / "checkpoint.npz",
                 states=[e.state for e in ring], next_states=[e.next_state for e in ring],
                 actions=[e.action for e in ring], rewards=[e.reward for e in ring],
                 episode_ids=[e.episode_id for e in ring])
        with pytest.raises(ValueError, match="unsupported checkpoint format None$") as err:
            build_agent(small_cfg(preload_path=str(tmp_path / "history")))
        assert str(tmp_path / "history") in str(err.value)

    def test_preloaded_episodes_stay_apart_from_the_run(self, earlier_run):
        # a 1-episode run preloaded into another: both runs have an episode 0
        cfg = small_cfg(episodes=1, preload_path=str(earlier_run[0]))
        _, agent = train_experiment(cfg)
        starts = valid_segment_starts(agent.buffer, cfg.agent.n_step)
        boundary = cfg.steps_demand  # logical index of the run's first transition
        assert starts.size == 2 * (cfg.steps_demand - cfg.agent.n_step + 1)
        assert not np.any((starts < boundary) & (starts + cfg.agent.n_step > boundary))
        assert set(agent.buffer.episode_ids[:boundary].tolist()) == {-1}

    # the earlier run's 20 transitions, entry 19 the one unchained
    @pytest.mark.parametrize("meta, arrays, message", [
        ({}, {"actions": None}, "checkpoint.npz lacks arrays actions; format 4 holds meta and "
                                "the arrays online, target, states, .*, episode_ids, chained$"),
        ({}, {"rewards": np.array([0.1, 2.0] + [0.3] * 18)}, r"record 1: reward 2\.0 outside"),
        ({}, {"states": np.array([[0.5] * 57 + [np.inf]] * 20)},
         "record 0: state holds a non-finite"),
        ({}, {"actions": np.array([1.9] + [0.0] * 19)}, "member actions is float64, expected"),
        ({}, {"episode_ids": np.array([np.nan] + [0.0] * 19)}, "member episode_ids is float64"),
        ({"format": 99}, {}, "unsupported checkpoint format 99$"),
        ({"manifest_sha256": "0" * 64}, {}, f"checkpoint written for KPI manifest {'0' * 64}"),
    ], ids=["missing_member", "bad_reward", "non_finite_state", "float_actions",
            "nan_episode_ids", "format", "manifest"])
    def test_preload_refuses_bad_file(self, tmp_path, earlier_run, meta, arrays, message):
        directory = tmp_path / "ck"
        shutil.copytree(earlier_run[0], directory)
        rewrite_checkpoint(directory, meta, **arrays)
        with pytest.raises(ValueError, match=message) as err:
            train_experiment(small_cfg(episodes=1, preload_path=str(directory)))
        assert str(directory) in str(err.value)

    @pytest.mark.parametrize("truncated", [False, True], ids=["text", "truncated"])
    def test_preload_refuses_a_file_of_no_npz_format(self, tmp_path, truncated):
        directory = tmp_path / "ck"
        directory.mkdir()
        path = directory / "checkpoint.npz"
        if truncated:  # an npz cut short, as by a copy that did not finish
            with open(path, "wb") as fh:
                np.savez(fh, states=np.full((100, 58), 0.5))
            path.write_bytes(path.read_bytes()[:20000])
        else:
            path.write_text("episode_id,action_code,reward\n")
        with pytest.raises(ValueError, match="not an npz archive") as err:
            train_experiment(small_cfg(episodes=1, preload_path=str(directory)))
        assert str(directory) in str(err.value)

    def test_preload_refuses_episode_ids_the_shift_would_wrap(self, tmp_path, earlier_run):
        # shifted to end at -1, the earlier episode's ids would wrap to 2**63 - 1
        directory = tmp_path / "ck"
        shutil.copytree(earlier_run[0], directory)
        rewrite_checkpoint(directory, episode_ids=np.array([-2 ** 63] * 10 + [0] * 10))
        with pytest.raises(ValueError) as err:
            build_agent(small_cfg(preload_path=str(directory)))
        assert str(err.value) == (f"{directory}: episode ids {-2 ** 63} to 0 do not fit int64 "
                                  "once shifted to end at -1")


class TestGoldenTrajectory:
    """A seeded short run and its resume, pinned bit for bit: a change that
    reorders a floating-point sum anywhere in the loop shows here."""

    FULL = [("0x1.d85cb215c4505p-1", "0x1.6e327c0eb6702p+1"),
            ("0x1.e1dea7e6872b6p-1", "0x1.61877efc20bb4p+1"),
            ("0x1.b39841a09ce66p-1", "0x1.437a75e7e2e1cp+1"),
            ("0x1.be4e8b9609868p-1", "0x1.3359d242e11cfp+1")]
    ONLINE_SHA256 = "88d88652b7baa6c44e683c938b0b3d32fbd72bce7badae82297bb6c5fc5f84c7"
    TARGET_SHA256 = "3271c65d5ae5775a919d24aa2de5fd677f1fa2d92c6533a94144fb35cbf66de5"

    def test_train_then_resume(self, tmp_path):
        cfg = ExperimentConfig(episodes=4, steps_demand=20, steps_rest=3, checkpoint_every=2)
        full, _ = train_experiment(cfg, out_dir=tmp_path / "full")
        resumed, agent = train_experiment(cfg, out_dir=tmp_path / "resumed",
                                          resume_from=tmp_path / "full" / "checkpoints" / "ep_0002")
        assert [(r.mean_reward.hex(), r.mean_td_error.hex()) for r in full] == self.FULL
        assert [(r.mean_reward.hex(), r.mean_td_error.hex()) for r in resumed] == self.FULL[2:]
        assert hashlib.sha256(agent.online.tobytes()).hexdigest() == self.ONLINE_SHA256
        assert hashlib.sha256(agent.target.tobytes()).hexdigest() == self.TARGET_SHA256

    # the final checkpoint of the full run, member by member in file order: name,
    # dtype, shape and the sha256 of the bytes, the derived chained member too
    MEMBERS = [
        ("online", "<f8", (2053,), ONLINE_SHA256),
        ("target", "<f8", (2053,), TARGET_SHA256),
        ("states", "<f8", (80, 58),
         "04d7e6076c598701296aea584e6d207ad07a4947a6fd41371b6d1af4cee46a23"),
        ("next_states", "<f8", (4, 58),
         "c0980316867202852b8f3c50a6960b8d46c84ddc328305f7a9ad5c04758bfe7f"),
        ("actions", "<i8", (80,),
         "67c0e313ae4fbba65bd7557ced7bde6808b20ae5125633a97daee3552d221494"),
        ("rewards", "<f8", (80,),
         "f7d142aba0ce8f28bb332f8d94dacd6b57e30d3641aad459d60dbdaeb080eafe"),
        ("episode_ids", "<i8", (80,),
         "adabfe7c2b27638ededd355dd1fd2d3e48b89aa97316311e03de07a09207f87d"),
        ("chained", "|b1", (80,),
         "053083a964830fe711078c9196d67ecf6128500107600ba07106c72c6d4e461e"),
    ]
    META = ('{"format": 4, "global_step": 80, "next_episode": 4, "rng_state": '
            '{"bit_generator": "PCG64", "state": {"state": '
            '269888344183754091051158475920208949210, "inc": '
            '159503441853545908714793740543692941767}, "has_uint32": 0, "uinteger": '
            '3801858237}, "manifest_sha256": '
            '"7488f6a5ed743b7d75150ab0b3cdb0ee451b2d733289f99a9af7a9f3ca7b5945"}')

    def test_final_checkpoint_members(self, tmp_path):
        cfg = ExperimentConfig(episodes=4, steps_demand=20, steps_rest=3, checkpoint_every=2)
        train_experiment(cfg, out_dir=tmp_path)
        with np.load(tmp_path / "final" / "checkpoint.npz", allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        assert str(members.pop("meta")) == self.META
        assert [(name, a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
                for name, a in members.items()] == self.MEMBERS


class TestGoldenGreedy:
    """Greedy evaluation of a seeded short run's final checkpoint, pinned bit
    for bit: the states an agent acts on, not only the ones it trains on."""

    MEAN, STDERR = "0x1.cb9a017565f53p-1", "0x1.3d410c98da883p-6"
    # options stepped over the 6 evaluated episodes' demand ticks: the rows
    # of each option that passed sim.step
    ACTIONS = {0: 4, 1: 9, 2: 66, 3: 26, 4: 15}

    def test_evaluate_final_checkpoint(self, tmp_path, monkeypatch):
        import ranopt.sim as sim
        cfg = ExperimentConfig(episodes=4, steps_demand=20, steps_rest=3, checkpoint_every=2)
        train_experiment(cfg, out_dir=tmp_path)
        stepped, orig = Counter(), sim.step

        def counting(cell, options):
            stepped.update(np.broadcast_to(options, cell.queue_mb.shape[:-1]).ravel().tolist())
            return orig(cell, options)

        monkeypatch.setattr(sim, "step", counting)
        mean, stderr = evaluate_checkpoint(cfg, tmp_path / "final", episodes=6, first_episode=4)
        assert (mean.hex(), stderr.hex()) == (self.MEAN, self.STDERR)
        assert stepped == self.ACTIONS


class TestGoldenBaseline:
    """The suite over 12 default episodes under each reward mode, each
    option's mean and stderr pinned bit for bit, best first: the bits that
    every schedule path of a column of blocks must keep."""

    ROWS = {
        "cell_throughput": [
            ("MAXIMUM_C_OVER_I", "0x1.f9f5c9f6ee6c1p-1", "0x1.281d20ce5a6e4p-9"),
            ("PROPORTIONAL_FAIR_LOW", "0x1.f34055819916bp-1", "0x1.b66d70f43994ep-9"),
            ("PROPORTIONAL_FAIR_MEDIUM", "0x1.ce0d95de370fbp-1", "0x1.16fab76c716c3p-7"),
            ("PROPORTIONAL_FAIR_HIGH", "0x1.b9597bfc0ac1dp-1", "0x1.c687e4a80c8edp-7"),
            ("EQUAL_RATE", "0x1.9dc2df1998883p-1", "0x1.acb2ca9a8a99dp-6")],
        "ue_gap": [
            ("EQUAL_RATE", "-0x1.8b40898b6057dp-2", "0x1.9d385ef20eb8bp-5"),
            ("PROPORTIONAL_FAIR_HIGH", "-0x1.f9439ca390a67p-1", "0x1.f9e0c03ee1a0ep-9"),
            ("PROPORTIONAL_FAIR_MEDIUM", "-0x1.fd1dc9835c41bp-1", "0x1.b8ddac27fde56p-10"),
            ("PROPORTIONAL_FAIR_LOW", "-0x1.fdf6a56ee7e4fp-1", "0x1.f8694feebd609p-11"),
            ("MAXIMUM_C_OVER_I", "-0x1.ff7cc504a5795p-1", "0x1.55e4e64b72b0fp-11")],
    }

    @pytest.mark.parametrize("mode", REWARD_MODES)
    def test_suite(self, mode):
        rows = run_baseline_suite(ExperimentConfig(reward_mode=mode, baseline_episodes=12))
        assert [(r.action.name, r.mean_reward.hex(), r.stderr.hex()) for r in rows] == \
            self.ROWS[mode]
        assert all(r.episodes == 12 for r in rows)


def entries(buf, id_shift=0):
    """A ring's entries, oldest first, as exactly comparable values, their
    episode ids shifted by id_shift."""
    return [(e.state.tobytes(), e.next_state.tobytes(), e.action, e.reward.hex(),
             e.episode_id + id_shift) for e in buf]


def assert_same_agent(a, b):
    """Networks, buffer, RNG state and step agree bit for bit and by type."""
    assert a.online.tobytes() == b.online.tobytes()
    assert a.target.tobytes() == b.target.tobytes()
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
    """Replace meta keys and members of a saved checkpoint.npz; a meta key
    or member given as None is left out, and a meta given as a string
    replaces the whole meta."""
    path = directory / "checkpoint.npz"
    with np.load(path) as npz:
        members = {name: npz[name] for name in npz.files}
    if isinstance(meta, str):
        members["meta"] = np.array(meta)
    else:
        meta = {**json.loads(str(members["meta"])), **(meta or {})}
        members["meta"] = np.array(json.dumps({k: v for k, v in meta.items() if v is not None}))
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

    def test_save_syncs_file_before_rename_then_directory(self, tmp_path, trained, monkeypatch):
        _, agent = trained
        events, fsync, replace = [], os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: events.append(("fsync", os.fstat(fd)))
                            or fsync(fd))
        monkeypatch.setattr(os, "replace", lambda src, dst:
                            events.append(("replace", os.stat(src))) or replace(src, dst))
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        monkeypatch.undo()
        assert [event for event, _ in events] == ["fsync", "replace", "fsync"]
        (_, synced), (_, renamed), (_, directory) = events
        final = os.stat(tmp_path / "ck" / "checkpoint.npz")
        # the whole temporary file reached the sync: the same inode, at its final size
        assert synced.st_ino == renamed.st_ino == final.st_ino
        assert synced.st_size == final.st_size
        assert directory.st_ino == os.stat(tmp_path / "ck").st_ino

    @pytest.mark.parametrize("meta, arrays, message", [
        ({"format": 1}, {}, "unsupported checkpoint format 1"),
        ({"manifest_sha256": "0" * 64}, {}, "KPI manifest"),
        # the online vector of a network for 57 inputs: its w1 is (32, 57)
        ({}, {"online": np.zeros(32 * 57 + 32 + 5 * 32 + 5)},
         r"checkpoint.npz member online is float64\[2021\], expected float64\[2053\]$"),
        ({}, {"target": np.zeros(2053, dtype=np.float32)},
         r"member target is float32\[2053\], expected float64\[2053\]$"),
        ({}, {"online": np.zeros(2052)}, r"member online is float64\[2052\], expected"),
        ({}, {"target": np.zeros((1, 2053))}, r"member target is float64\[1, 2053\], expected"),
        ({}, {"rewards": np.zeros(39)}, "buffer arrays"),
        ({}, {"states": np.zeros((40, 57))}, r"'states': \[40, 57\]"),
        ({}, {"actions": None}, "checkpoint.npz lacks arrays actions; format 4 holds meta and "
                                "the arrays online, target, states, .*, episode_ids, chained$"),
        ({}, {"chained": None}, "lacks arrays chained;"),
        # the fixture's 2 episodes of 20: entries 19 and 39 end an episode, unchained
        ({}, {"chained": (np.arange(40) % 20 != 19).astype(np.int8)},
         r"member chained is int8\[40\], expected bool\[40\]"),
        ({}, {"chained": np.arange(39) % 20 != 19}, r"member chained is bool\[39\], expected"),
        ({}, {"chained": np.arange(40) != 19}, "member chained flags the last entry"),
        ({}, {"chained": ~np.isin(np.arange(40), [5, 19, 39])},
         "member chained leaves 3 entries unchained, but next_states has 2 rows$"),
        ({}, {"actions": np.array(0)}, "lacks arrays actions;"),
        ({}, {"actions": np.full(40, 1.9)}, "member actions is float64, expected integers"),
        ({}, {"episode_ids": np.full(40, np.nan)}, "member episode_ids is float64, expected"),
        ({}, {"online": None}, "lacks arrays online;"),
        ({"global_step": None}, {}, "checkpoint.npz meta lacks global_step$"),
        ({"rng_state": {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}}, {},
         "checkpoint.npz meta lacks state$"),
        ({"rng_state": {"bit_generator": "PCG64", "state": {"state": 2 ** 200, "inc": 1},
                        "has_uint32": 0, "uinteger": 0}}, {}, "too large to convert"),
        ({"global_step": "abc"}, {}, "checkpoint.npz meta global_step must be an integer, "
                                     "got 'abc'$"),
        ({"next_episode": 1.9}, {}, "meta next_episode must be an integer, got 1.9$"),
        ({"next_episode": "1"}, {}, "meta next_episode must be an integer, got '1'$"),
        ({"global_step": True}, {}, "meta global_step must be an integer, got True$"),
        ("[1, 2]", {}, "checkpoint.npz meta must be a JSON object, got list$"),
        ({"global_step": -5}, {}, "checkpoint.npz meta global_step must be >= 0, got -5$"),
        ({"next_episode": -1}, {}, "checkpoint.npz meta next_episode must be >= 0, got -1$"),
    ], ids=["format", "manifest", "w1_shape", "target_dtype", "one_short", "row_matrix",
            "buffer_lengths", "states_width", "missing_actions", "missing_chained",
            "chained_not_bool", "chained_short", "chained_last", "chained_count",
            "scalar_actions", "float_actions", "nan_episode_ids",
            "missing_online", "missing_global_step", "rng_state_without_state",
            "rng_state_overflow",
            "global_step_not_a_number",
            "float_next_episode", "string_next_episode", "bool_global_step", "meta_not_an_object",
            "negative_global_step", "negative_next_episode"])
    def test_refuses_mismatch(self, tmp_path, trained, meta, arrays, message):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        rewrite_checkpoint(tmp_path / "ck", meta, **arrays)
        with pytest.raises(ValueError, match=message) as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_refuses_format_2(self, tmp_path, trained):
        # format 2 stored each network as four members, w1, b1, w2 and b2
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        split = {}
        for net in ("online", "target"):
            w1, b1, w2, b2 = layers(getattr(agent, net))
            split.update({f"{net}_w1": w1, f"{net}_b1": b1, f"{net}_w2": w2, f"{net}_b2": b2,
                          net: None})
        rewrite_checkpoint(tmp_path / "ck", {"format": 2}, **split)
        with pytest.raises(ValueError, match="unsupported checkpoint format 2") as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_refuses_format_3(self, tmp_path, trained):
        # format 3 stored every next state, and no member chained
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        rewrite_checkpoint(tmp_path / "ck", {"format": 3}, chained=None,
                           next_states=np.array([e.next_state for e in agent.buffer]))
        with pytest.raises(ValueError, match="unsupported checkpoint format 3") as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_refuses_truncated_file(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        path = tmp_path / "ck" / "checkpoint.npz"
        path.write_bytes(path.read_bytes()[:20000])  # as by a copy that did not finish
        with pytest.raises(ValueError, match="not an npz archive") as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(path) in str(err.value)

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
        # record 4 is chained: its next state is the stored state of record 5
        with pytest.raises(ValueError, match="record 4: next_state holds a non-finite") as err:
            load_checkpoint(tmp_path / "ck", cfg)
        assert str(tmp_path / "ck") in str(err.value)

    def test_non_finite_stored_next_state_named_by_record(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        with np.load(tmp_path / "ck" / "checkpoint.npz") as npz:
            stored = npz["next_states"].copy()  # rows of the unchained entries 19 and 39
        stored[0, 3] = np.inf
        rewrite_checkpoint(tmp_path / "ck", next_states=stored)
        with pytest.raises(ValueError, match="record 19: next_state holds a non-finite value"):
            load_checkpoint(tmp_path / "ck", cfg)

    @pytest.fixture(scope="class")
    def full_ring(self, tmp_path_factory):
        """The checkpoint directory of an agent whose ring is full as the
        benchmark's warm one is: 63 episodes of 80 transitions, chained within
        an episode, the first 40 overwritten; entry 39 + 80 k ends an episode."""
        agent = DoubleQAgent(AgentConfig())
        rng = np.random.default_rng(3)
        for ep in range(63):
            states = rng.random((81, 58))
            agent.buffer.extend(states[:-1], states[1:], rng.integers(0, 5, 80),
                                rng.uniform(-1, 1, 80), np.full(80, ep))
        directory = tmp_path_factory.mktemp("full") / "ck"
        save_checkpoint(directory, agent, next_episode=63)
        return directory

    @pytest.mark.parametrize("k", [1, 62])
    def test_non_finite_stored_row_k_named_as_the_kth_unchained_record(self, tmp_path,
                                                                       full_ring, k):
        shutil.copytree(full_ring, tmp_path / "ck")
        with np.load(tmp_path / "ck" / "checkpoint.npz") as npz:
            stored = npz["next_states"].copy()
        assert len(stored) == 63
        stored[k, 0] = np.nan
        rewrite_checkpoint(tmp_path / "ck", next_states=stored)
        with pytest.raises(ValueError, match=f"record {39 + 80 * k}: next_state holds a "
                                             f"non-finite value$"):
            load_checkpoint(tmp_path / "ck", small_cfg())

    def test_load_memory_is_bounded_by_the_file(self, full_ring):
        size = os.path.getsize(full_ring / "checkpoint.npz")
        tracemalloc.start()
        try:
            agent, _ = load_checkpoint(full_ring, small_cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size
        buf = agent.buffer
        assert len(buf) == buf.capacity == 5000
        # every state once: the ring's arrays and its stored next states, no second ring
        held = (sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray))
                + sum(row.nbytes for row in buf.stored.values()))
        assert held <= 2.6e6

    def test_load_builds_the_ring_around_the_files_arrays(self, full_ring):
        size = os.path.getsize(full_ring / "checkpoint.npz")
        tracemalloc.start()
        try:
            agent, _ = load_checkpoint(full_ring, small_cfg())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the arrays np.load read and the checks' masks; no zeroed ring made and thrown away
        assert peak <= 1.5 * size
        assert len(agent.buffer) == 5000

    def test_evaluate_checkpoint_deterministic(self, tmp_path):
        cfg = small_cfg(episodes=2)
        train_experiment(cfg, out_dir=tmp_path / "run")
        a = evaluate_checkpoint(cfg, tmp_path / "run" / "final", episodes=3)
        b = evaluate_checkpoint(cfg, tmp_path / "run" / "final", episodes=3)
        assert a == b

    def test_evaluate_reads_only_meta_and_online(self, tmp_path, trained):
        cfg, agent = trained
        save_checkpoint(tmp_path / "ck", agent, next_episode=2)
        whole = evaluate_checkpoint(cfg, tmp_path / "ck", episodes=2)
        # no ring, no target and an RNG state that load_checkpoint refuses
        rewrite_checkpoint(tmp_path / "ck", {"rng_state": None, "global_step": "abc"},
                           states=None, target=None, chained=np.zeros(3))
        with pytest.raises(ValueError, match="lacks arrays target, states"):
            load_checkpoint(tmp_path / "ck", cfg)
        assert evaluate_checkpoint(cfg, tmp_path / "ck", episodes=2) == whole

    @pytest.mark.parametrize("meta, arrays, message", [
        ({"format": 1}, {}, "unsupported checkpoint format 1$"),
        ({"manifest_sha256": "0" * 64}, {}, "KPI manifest"),
        ("[1, 2]", {}, "checkpoint.npz meta must be a JSON object, got list$"),
        ({}, {"online": None}, "checkpoint.npz lacks arrays online; format 4 holds meta and "
                               "the arrays online, target, states, .*, episode_ids, chained$"),
        ({}, {"online": np.array(0.0)}, "lacks arrays online;"),
        ({}, {"online": np.zeros(2052)}, r"member online is float64\[2052\], expected"),
        ({}, {"online": np.zeros(2053, dtype=np.float32)},
         r"member online is float32\[2053\], expected float64\[2053\]$"),
        # the meta refusals come first, as in load_checkpoint
        ({"format": 1}, {"online": None}, "unsupported checkpoint format 1$"),
    ], ids=["format", "manifest", "meta_not_an_object", "missing_online", "scalar_online",
            "one_short", "online_dtype", "format_before_online"])
    def test_evaluate_refuses_as_load_does(self, tmp_path, trained, meta, arrays, message):
        cfg, agent = trained
        # eval's checkpoint lacks its ring too, which eval does not read
        for name, read, ring in (("load", load_checkpoint, {}),
                                 ("eval", lambda d, c: evaluate_checkpoint(c, d, episodes=1),
                                  {"states": None})):
            save_checkpoint(tmp_path / name, agent, next_episode=2)
            rewrite_checkpoint(tmp_path / name, meta, **arrays, **ring)
            with pytest.raises(ValueError, match=message) as err:
                read(tmp_path / name, cfg)
            assert str(err.value).startswith(f"{tmp_path / name}: ")


class TestCsvWriters:
    def test_baseline_csv(self, tmp_path):
        rows = [BaselineRow(SchedulerOption.EQUAL_RATE, 0.5, 0.01, 4)]
        path = tmp_path / "b.csv"
        write_baseline_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "action,mean_reward,stderr,episodes"
        assert lines[1].startswith("EQUAL_RATE,0.5,0.01,4")
