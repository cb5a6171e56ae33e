import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt import kpi
from ranopt.harness import INITIAL_STATE
from ranopt.kpi import (N_ACTIONS, N_CQI_BINS, N_RSRP_BINS, N_RSRQ_BINS, N_TA_BINS,
                        RSRP_BIN_EDGES, RSRQ_BIN_EDGES, STATE_DIM, TA_BIN_EDGES,
                        TA_KM_BASE, TA_KM_PER_UE_INDEX, KpiConfig, compose_kpis,
                        manifest_sha256, manifest_text, radio_table, reward_throughput,
                        reward_ue_gap)
from ranopt.sim import EFF_CAP, SchedulerOption, TickObservables, UeProfile


def make_obs(n=4, **overrides):
    base = dict(
        demand_mb=np.zeros(n),
        served_mb=np.zeros(n),
        queue_after_mb=np.zeros(n),
        ue_throughput_mbps=np.zeros(n),
        cell_throughput_mbps=0.0,
        spectral_eff=np.zeros(n),
        rsrp_dbm=np.full(n, -100.0),
        prb_allocation=np.zeros(n, dtype=np.int64),
        prb_utilization=0.0,
        active_mask=np.zeros(n, dtype=bool),
    )
    base.update(overrides)
    return TickObservables(**base)


def random_obs(rng, n=4):
    served = rng.uniform(0, 2000, n)
    active = rng.random(n) < 0.8
    tput = np.where(active, served / 60.0, 0.0)
    alloc = rng.integers(0, 40, n)
    return make_obs(
        n,
        demand_mb=rng.uniform(0, 8000, n),
        served_mb=np.where(active, served, 0.0),
        queue_after_mb=rng.uniform(0, 50000, n),
        ue_throughput_mbps=tput,
        cell_throughput_mbps=float(tput.sum()),
        spectral_eff=rng.uniform(0.19, 4.4, n),
        rsrp_dbm=rng.uniform(-140, -40, n),
        prb_allocation=alloc,
        prb_utilization=float(min(alloc.sum(), 100)) / 100.0,
        active_mask=active,
    )


class TestManifest:
    def test_58_rows(self):
        rows = kpi.build_manifest()
        assert len(rows) == 58
        assert [r[0] for r in rows] == list(range(58))

    def test_group_sizes(self):
        rows = kpi.build_manifest()
        groups = {}
        for _, _, g, _, _ in rows:
            groups[g] = groups.get(g, 0) + 1
        assert groups == {"cell_scalar": 12, "cqi_hist": 15, "rsrp_hist": 8,
                          "rsrq_hist": 8, "ta_hist": 8, "prev_action": 5, "phase": 2}

    def test_shipped_file_matches(self):
        import importlib.resources as resources
        shipped = (resources.files("ranopt") / "data" / "kpi_manifest_v1.csv").read_text()
        assert shipped == manifest_text()

    def test_hash_stable(self):
        assert manifest_sha256() == kpi.MANIFEST_SHA256


# the default episode framing: 80 demand ticks of 90
FRAMING = (80, 90)


def compose(obs, prev_action, step_in_episode):
    """compose_kpis at the default framing, with the observables' radio table."""
    return compose_kpis(obs, prev_action, step_in_episode, *FRAMING,
                        radio_table(obs.rsrp_dbm, obs.spectral_eff))


# --- reference composer: one numpy call per quantity ---------------------------


def _hist(values, edges, n_bins):
    """Count values into bins, clamping outliers into the edge bins."""
    clipped = np.clip(values, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, n_bins - 1)
    return np.bincount(idx, minlength=n_bins)


def reference_compose_kpis(obs, prev_action, step_in_episode, demand_steps, episode_steps):
    """compose_kpis written one quantity and one histogram at a time."""
    active = obs.active_mask
    n_ues = active.size
    n_active = int(active.sum())
    tputs = obs.ue_throughput_mbps[active]

    cell_tput = obs.cell_throughput_mbps
    mean_se = float(obs.spectral_eff[active].mean()) if n_active else 0.0
    util = obs.prb_utilization
    n_sched = int((obs.prb_allocation > 0).sum())
    cce = n_sched / n_ues
    bitrate = cell_tput / util if util > 0 else 0.0
    if n_active and np.all(tputs > 0):
        harmonic = n_active / float((1.0 / tputs).sum())
    else:
        harmonic = 0.0
    worst = float(tputs.min()) if n_active else 0.0
    gap = float(tputs.max() - tputs.min()) if n_active else 0.0
    mean_queue = float(obs.queue_after_mb.mean())
    served_vol = float(obs.served_mb.sum())
    demand_vol = float(obs.demand_mb.sum())

    scalars = np.array([cell_tput, mean_se, util, cce, bitrate, n_active, harmonic, worst, gap,
                        mean_queue, served_vol, demand_vol]) / kpi.CELL_SCALAR_BOUNDS
    scalars[5] = n_active / n_ues  # active_ue_count

    cqi = np.clip(np.rint(N_CQI_BINS * obs.spectral_eff[active] / EFF_CAP), 1, N_CQI_BINS)
    cqi_counts = np.bincount(cqi.astype(int) - 1, minlength=N_CQI_BINS)
    rsrp_counts = _hist(obs.rsrp_dbm[active], RSRP_BIN_EDGES, N_RSRP_BINS)
    rsrq = -3.0 - 8.5 * util - 8.5 * (1.0 - (obs.rsrp_dbm[active] + 140.0) / 100.0)
    rsrq_counts = _hist(rsrq, RSRQ_BIN_EDGES, N_RSRQ_BINS)
    ta_km = TA_KM_BASE + TA_KM_PER_UE_INDEX * np.flatnonzero(active)
    ta_counts = _hist(ta_km, TA_BIN_EDGES, N_TA_BINS)

    one_hot = np.zeros(N_ACTIONS)
    one_hot[int(prev_action)] = 1.0
    phase = [min(step_in_episode / episode_steps, 1.0),
             1.0 if step_in_episode >= demand_steps else 0.0]
    values = np.concatenate([scalars, cqi_counts / n_ues, rsrp_counts / n_ues,
                             rsrq_counts / n_ues, ta_counts / n_ues, one_hot, np.array(phase)])
    return np.clip(values, 0.0, 1.0)


@st.composite
def observables(draw, n=None):
    """Observables of n UEs, or of 1..9, none to all active, with values
    inside and far outside the state bounds, zero utilization and NaN radio
    among them."""
    if n is None:
        n = draw(st.integers(1, 9))

    def per_ue(strategy, dtype=float):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)), dtype=dtype)

    # no throughput so small that the harmonic mean's sum of inverses overflows
    tput = per_ue(st.sampled_from([0.0, -1.0]) | st.floats(1e-3, 300.0))
    return TickObservables(
        demand_mb=per_ue(st.floats(0.0, 2e4)),
        served_mb=per_ue(st.floats(0.0, 2e4)),
        queue_after_mb=per_ue(st.floats(0.0, 1e5)),
        ue_throughput_mbps=tput,
        cell_throughput_mbps=draw(st.just(float(tput.sum())) | st.floats(-10.0, 500.0)),
        spectral_eff=per_ue(st.floats(-1.0, 6.0)),
        rsrp_dbm=per_ue(st.sampled_from(list(RSRP_BIN_EDGES) + [np.nan])
                        | st.floats(-250.0, 50.0)),
        prb_allocation=per_ue(st.integers(0, 120), np.int64),
        prb_utilization=draw(st.just(0.0) | st.floats(0.0, 1.5)),
        active_mask=per_ue(st.booleans(), bool),
    )


class TestComposeKpis:
    def test_length_58(self):
        v = compose(make_obs(), SchedulerOption.EQUAL_RATE, 0)
        assert v.shape == (58,) and v.dtype == np.float64

    def test_zero_tick(self):
        for n in range(1, 7):
            v = compose(make_obs(n), SchedulerOption.EQUAL_RATE, 0)
            assert np.all(v[:12] == 0.0)
            assert np.all(v[12:51] == 0.0)          # all histograms empty
            assert np.array_equal(v[51:56], [1, 0, 0, 0, 0])  # one-hot EQUAL_RATE
            assert v[56] == 0.0 and v[57] == 0.0
            assert np.array_equal(v, INITIAL_STATE)

    def test_clip_at_bound(self):
        obs = make_obs(cell_throughput_mbps=kpi.CELL_SCALAR_BOUNDS[0] * 3)
        v = compose(obs, SchedulerOption.EQUAL_RATE, 0)
        assert v[0] == 1.0

    def test_pure_function(self):
        obs = random_obs(np.random.default_rng(5))
        a = compose(obs, SchedulerOption.MAXIMUM_C_OVER_I, 17)
        b = compose(obs, SchedulerOption.MAXIMUM_C_OVER_I, 17)
        assert np.array_equal(a, b)

    def test_histograms_sum_to_active_count(self):
        # the UE count comes from the observables, so every population size
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            for _ in range(50):
                obs = random_obs(rng, n)
                v = compose(obs, SchedulerOption.EQUAL_RATE, 3)
                for sl in (slice(12, 27), slice(27, 35), slice(35, 43), slice(43, 51)):
                    assert v[sl].sum() * n == pytest.approx(obs.active_mask.sum())
                assert v[5] * n == pytest.approx(obs.active_mask.sum())  # active_ue_count

    def test_prev_action_one_hot(self):
        for opt in SchedulerOption:
            v = compose(make_obs(), opt, 0)
            expected = np.zeros(5)
            expected[int(opt)] = 1.0
            assert np.array_equal(v[51:56], expected)

    def test_phase_entries(self):
        v = compose(make_obs(), SchedulerOption.EQUAL_RATE, 45)
        assert v[56] == pytest.approx(0.5)
        assert v[57] == 0.0
        v = compose(make_obs(), SchedulerOption.EQUAL_RATE, 85)
        assert v[57] == 1.0

    def test_fuzzed_range_and_length(self):
        # acceptance-scale fuzz lives in test_acceptance; a fast slice here
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = compose(random_obs(rng), SchedulerOption(int(rng.integers(5))),
                        int(rng.integers(0, 91)))
            assert v.shape == (58,)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)


def loaded_tick(active):
    """A loaded tick of the four default UEs in which the UEs flagged in
    active have traffic; an idle UE is sent nothing and holds no queue."""
    active = np.array(active)
    served = np.where(active, [310.0, 420.5, 1180.25, 2950.0], 0.0)
    alloc = np.where(active, [30, 25, 20, 25], 0)
    return make_obs(
        demand_mb=np.where(active, [500.0, 610.0, 1400.5, 2600.0], 0.0),
        served_mb=served,
        queue_after_mb=np.where(active, [190.0, 189.5, 220.25, 0.0], 0.0),
        ue_throughput_mbps=served / 60.0,
        cell_throughput_mbps=float(served.sum() / 60.0),
        spectral_eff=np.array([0.31, 0.52, 1.1, 2.7]),
        rsrp_dbm=np.array([-115.0, -110.0, -105.0, -94.0]),
        prb_allocation=alloc,
        prb_utilization=float(alloc.sum()) / 100.0,
        active_mask=active,
    )


class TestComposeMatchesReference:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @example(obs=make_obs(), prev_action=SchedulerOption.EQUAL_RATE, step_in_episode=0)
    @example(obs=loaded_tick([True] * 4), prev_action=SchedulerOption.MAXIMUM_C_OVER_I,
             step_in_episode=17)
    @example(obs=loaded_tick([True, False, True, True]),
             prev_action=SchedulerOption.PROPORTIONAL_FAIR_LOW, step_in_episode=80)
    @example(obs=loaded_tick([False] * 4), prev_action=SchedulerOption.EQUAL_RATE,
             step_in_episode=95)
    @given(obs=observables(), prev_action=st.sampled_from(SchedulerOption),
           step_in_episode=st.integers(0, 100))
    def test_bit_equal(self, obs, prev_action, step_in_episode):
        v = compose_kpis(obs, prev_action, step_in_episode, *FRAMING,
                         radio_table(obs.rsrp_dbm, obs.spectral_eff))
        expected = reference_compose_kpis(obs, prev_action, step_in_episode, *FRAMING)
        assert v.shape == (STATE_DIM,) and v.dtype == expected.dtype
        assert v.tobytes() == expected.tobytes()


# the fields a tick's rows share when they are blocks over the same episodes
DRAWN = ("demand_mb", "spectral_eff", "rsrp_dbm")


@st.composite
def ticks_of_rows(draw):
    """A tick of (blocks, E) rows of 1..12 UEs, 1..2 blocks over 1..4
    episodes: each row's observables drawn as observables() draws them, the
    drawn fields those of its episode's row in block 0, and an option for
    each row."""
    n, blocks, episodes = (draw(st.integers(1, top)) for top in (12, 2, 4))
    rows = [[draw(observables(n)) for _ in range(episodes)] for _ in range(blocks)]
    rows = [[dataclasses.replace(obs, **{f: getattr(rows[0][e], f) for f in DRAWN})
             for e, obs in enumerate(block)] for block in rows]
    options = np.array(draw(st.lists(st.sampled_from(SchedulerOption), min_size=blocks * episodes,
                                     max_size=blocks * episodes))).reshape(blocks, episodes)
    return rows, options


class TestComposeRows:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(tick=ticks_of_rows(), step_in_episode=st.integers(0, 100))
    def test_each_row_is_the_row_alone(self, tick, step_in_episode):
        rows, options = tick

        def field(name):  # the rows' values; the blocks share block 0's drawn ones
            values = [[getattr(obs, name) for obs in block] for block in rows]
            return np.array(values[0] if name in DRAWN else values)

        stacked = TickObservables(**{f.name: field(f.name)
                                     for f in dataclasses.fields(TickObservables)})
        states = compose_kpis(stacked, options, step_in_episode, *FRAMING,
                              radio_table(stacked.rsrp_dbm, stacked.spectral_eff))
        assert states.shape == options.shape + (STATE_DIM,)
        for b, block in enumerate(rows):
            for e, obs in enumerate(block):
                alone = compose_kpis(obs, SchedulerOption(options[b, e]), step_in_episode,
                                     *FRAMING, radio_table(obs.rsrp_dbm, obs.spectral_eff))
                assert states[b, e].tobytes() == alone.tobytes()


class TestRadioTable:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(ticks=st.integers(1, 6), n=st.integers(1, 9), data=st.data())
    def test_episode_row_is_the_row_alone(self, ticks, n, data):
        def block(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=ticks * n,
                                               max_size=ticks * n))).reshape(ticks, n)

        rsrp = block(st.sampled_from(list(RSRP_BIN_EDGES) + [np.nan]) | st.floats(-250.0, 50.0))
        eff = block(st.floats(-1.0, 6.0))
        ids, rsrq_radio = radio_table(rsrp, eff)
        assert ids.shape == (ticks, n, 3) and rsrq_radio.shape == (ticks, n)
        for t in range(ticks):
            row_ids, row_radio = radio_table(rsrp[t], eff[t])
            assert ids[t].tobytes() == row_ids.tobytes() and ids.dtype == row_ids.dtype
            assert rsrq_radio[t].tobytes() == row_radio.tobytes()


class TestEpisodeStatesMatchReference:
    """Every state an agent episode composes, against the reference composer,
    on light traffic that leaves UEs idle on some ticks."""

    LIGHT = [UeProfile(-118.0, 30.0, 120.0), UeProfile(-104.0, 10.0, 200.0),
             UeProfile(-96.0, 0.0, 0.0), UeProfile(-85.0, 40.0, 90.0)]

    def test_bit_equal_with_idle_ues(self, monkeypatch):
        import ranopt.harness as hn
        from ranopt.agent import DoubleQAgent
        cfg = hn.ExperimentConfig(steps_demand=60, steps_rest=5, ue_profiles=self.LIGHT)
        actives = []

        def checked(obs, *args):
            state = compose_kpis(obs, *args)
            assert state.tobytes() == reference_compose_kpis(obs, *args[:4]).tobytes()
            actives.append(int(obs.active_mask.sum()))
            return state

        monkeypatch.setattr(hn, "compose_kpis", checked)
        hn.run_episode(cfg, 3, agent=DoubleQAgent(cfg.agent), train=True)
        assert len(actives) == cfg.steps_demand
        # ticks with no UE, some UEs and (but for the idle one) all UEs active
        assert {0, 1, 2, 3} <= set(actives)


class TestRewardThroughput:
    def test_zero_traffic(self):
        cfg = KpiConfig()
        assert reward_throughput(make_obs(), cfg) == 0.0

    def test_bound_hits_one(self):
        cfg = KpiConfig()
        obs = make_obs(cell_throughput_mbps=cfg.reward_throughput_bound_mbps)
        assert reward_throughput(obs, cfg) == 1.0

    def test_clipped_above_bound(self):
        cfg = KpiConfig()
        obs = make_obs(cell_throughput_mbps=cfg.reward_throughput_bound_mbps * 2)
        assert reward_throughput(obs, cfg) == 1.0


class TestRewardUeGap:
    def test_equal_throughputs_zero(self):
        cfg = KpiConfig()
        obs = make_obs(ue_throughput_mbps=np.full(4, 7.5),
                       active_mask=np.ones(4, dtype=bool))
        assert reward_ue_gap(obs, cfg) == 0.0

    def test_direct_substitution(self):
        cfg = KpiConfig(reward_gap_bound_mbps=10.0)
        obs = make_obs(ue_throughput_mbps=np.array([2.0, 5.0, 3.0, 4.0]),
                       active_mask=np.ones(4, dtype=bool))
        assert reward_ue_gap(obs, cfg) == pytest.approx(-0.3)

    def test_no_active_ues(self):
        assert reward_ue_gap(make_obs(), KpiConfig()) == 0.0

    def test_inactive_ues_excluded(self):
        cfg = KpiConfig()
        obs = make_obs(ue_throughput_mbps=np.array([0.0, 6.0, 6.0, 6.0]),
                       active_mask=np.array([False, True, True, True]))
        assert reward_ue_gap(obs, cfg) == 0.0

    def test_never_positive_and_zero_iff_equal(self):
        cfg = KpiConfig()
        rng = np.random.default_rng(3)
        for _ in range(500):
            obs = random_obs(rng)
            r = reward_ue_gap(obs, cfg)
            assert r <= 0.0
            act = obs.ue_throughput_mbps[obs.active_mask]
            if act.size and not np.isclose(act.max(), act.min()):
                assert r < 0.0

    def test_clipped_at_minus_one(self):
        cfg = KpiConfig(reward_gap_bound_mbps=1.0)
        obs = make_obs(ue_throughput_mbps=np.array([0.0, 50.0, 0.0, 0.0]),
                       active_mask=np.ones(4, dtype=bool))
        assert reward_ue_gap(obs, cfg) == -1.0


class TestSeededRunOrdering:
    def test_throughput_and_gap_reward_ordering(self):
        # same seeded 80-tick run under the two extreme constants
        from ranopt.harness import ExperimentConfig, run_episode
        cfg = ExperimentConfig()
        maxci = run_episode(cfg, 0, constant_action=SchedulerOption.MAXIMUM_C_OVER_I)
        eq = run_episode(cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        assert maxci.mean_reward > eq.mean_reward
        gap_cfg = ExperimentConfig(reward_mode="ue_gap")
        maxci_g = run_episode(gap_cfg, 0, constant_action=SchedulerOption.MAXIMUM_C_OVER_I)
        eq_g = run_episode(gap_cfg, 0, constant_action=SchedulerOption.EQUAL_RATE)
        assert eq_g.mean_reward > maxci_g.mean_reward
