import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt.sim import (PF_ALPHA, RSRP_MAX_DBM, RSRP_MIN_DBM, CellState, SchedulerOption,
                        SimConfig, UeProfile, fit_traffic_profiles, generate_demands,
                        init_cell_state, read_traffic_records, schedule_prbs,
                        spectral_efficiency, step)

RSRP_LAB = [-115.0, -110.0, -105.0, -94.0]


def make_state(queues, rsrp, cfg, pf_avg=None, seed=0):
    n = len(queues)
    return CellState(
        tick_index=0,
        queue_mb=np.array(queues, dtype=float),
        base_rsrp_dbm=np.array(rsrp, dtype=float),
        jitter_db=np.zeros(n),
        pf_avg_mbps=np.array(pf_avg, dtype=float) if pf_avg is not None
        else np.full(n, cfg.pf_floor_mbps),
        last_allocation=np.zeros(n, dtype=np.int64),
        rng=np.random.default_rng(seed),
    )


# --- reference schedulers: one greedy choice per PRB --------------------------


def greedy_equal_rate(avail_mb, y_mb, budget):
    """Fill PRB by PRB toward equal served megabits across UEs with traffic."""
    n = avail_mb.size
    alloc = np.zeros(n, dtype=np.int64)
    served = np.zeros(n)
    for _ in range(budget):
        can_use = served < avail_mb - 1e-12
        if not np.any(can_use):
            break
        ranked = np.where(can_use, served, np.inf)
        i = int(np.argmin(ranked))  # first minimum = lowest UE index on ties
        alloc[i] += 1
        served[i] = min(avail_mb[i], alloc[i] * y_mb[i])
    return alloc


def ranked_fill(avail_mb, y_mb, budget, order):
    """Serve UEs to exhaustion in the given order until the budget runs out."""
    alloc = np.zeros(avail_mb.size, dtype=np.int64)
    remaining = budget
    for i in order:
        if remaining <= 0:
            break
        if avail_mb[i] <= 1e-12:
            continue
        need = int(math.ceil(avail_mb[i] / y_mb[i] - 1e-12))
        take = min(need, remaining)
        alloc[i] = take
        remaining -= take
    return alloc


def proportional_fair(avail_mb, y_mb, budget, pf_avg_mbps, alpha, cfg):
    """Per-PRB proportional fair: rank by eff / avg**alpha, updating the
    smoothed rate with the allocation made so far this tick."""
    n = avail_mb.size
    eff = y_mb / cfg.prb_megabits
    alloc = np.zeros(n, dtype=np.int64)
    served = np.zeros(n)
    base_avg = np.maximum(pf_avg_mbps, cfg.pf_floor_mbps)
    virtual = base_avg.copy()
    for _ in range(budget):
        can_use = served < avail_mb - 1e-12
        if not np.any(can_use):
            break
        key = np.where(can_use, eff / virtual ** alpha, -np.inf)
        i = int(np.argmax(key))  # first maximum = lowest UE index on ties
        alloc[i] += 1
        served[i] = min(avail_mb[i], alloc[i] * y_mb[i])
        virtual[i] = max(cfg.pf_floor_mbps,
                         (1.0 - cfg.pf_ema) * base_avg[i]
                         + cfg.pf_ema * served[i] / cfg.tick_seconds)
    return alloc


def reference_schedule(option, state, demands, prb_budget, cfg):
    """schedule_prbs written as the per-PRB loops above."""
    avail = state.queue_mb + demands
    rsrp_eff = np.clip(state.base_rsrp_dbm + state.jitter_db, RSRP_MIN_DBM, RSRP_MAX_DBM)
    y = spectral_efficiency(rsrp_eff) * cfg.prb_megabits
    if option == SchedulerOption.EQUAL_RATE:
        return greedy_equal_rate(avail, y, prb_budget)
    if option == SchedulerOption.MAXIMUM_C_OVER_I:
        return ranked_fill(avail, y, prb_budget, np.lexsort((np.arange(avail.size), -y)))
    return proportional_fair(avail, y, prb_budget, state.pf_avg_mbps, PF_ALPHA[option], cfg)


class TestSchedulerOption:
    def test_exactly_five(self):
        assert len(SchedulerOption) == 5

    def test_codes_round_trip(self):
        for i, opt in enumerate(SchedulerOption):
            assert int(opt) == i
            assert SchedulerOption(i) is opt

    def test_order(self):
        assert [o.name for o in SchedulerOption] == [
            "EQUAL_RATE", "PROPORTIONAL_FAIR_HIGH", "PROPORTIONAL_FAIR_MEDIUM",
            "PROPORTIONAL_FAIR_LOW", "MAXIMUM_C_OVER_I"]

    def test_pf_alphas(self):
        assert PF_ALPHA[SchedulerOption.PROPORTIONAL_FAIR_HIGH] == 1.5
        assert PF_ALPHA[SchedulerOption.PROPORTIONAL_FAIR_MEDIUM] == 1.0
        assert PF_ALPHA[SchedulerOption.PROPORTIONAL_FAIR_LOW] == 0.5


class TestUeProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            UeProfile(rsrp_dbm=-30.0, demand_mean=1.0, demand_std=0.0)
        with pytest.raises(ValueError):
            UeProfile(rsrp_dbm=-100.0, demand_mean=-1.0, demand_std=0.0)
        with pytest.raises(ValueError):
            UeProfile(rsrp_dbm=-100.0, demand_mean=1.0, demand_std=-0.5)


class TestSpectralEfficiency:
    def test_monotone_on_lab_points(self):
        assert spectral_efficiency(-94.0) > spectral_efficiency(-115.0)

    def test_floor_clamp(self):
        # everything at or below -127 dBm pins the SINR at the floor
        assert spectral_efficiency(-140.0) == spectral_efficiency(-130.0)
        floor = 0.6 * math.log2(1.0 + 10.0 ** (-0.6))
        assert spectral_efficiency(-140.0) == pytest.approx(floor, rel=1e-12)

    def test_hand_evaluation_minus_105(self):
        # closed form at -105 dBm: sinr 16 dB
        expected = min(0.6 * math.log2(1.0 + 10.0 ** 1.6), 4.8)
        assert spectral_efficiency(-105.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_on_grid(self):
        grid = np.arange(-140.0, -39.5, 1.0)
        vals = spectral_efficiency(grid)
        assert np.all(np.diff(vals) >= 0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            spectral_efficiency(-150.0)
        with pytest.raises(ValueError):
            spectral_efficiency(-10.0)


class TestGenerateDemands:
    def test_zero_std_exact_mean(self):
        profiles = [UeProfile(-100.0, 10.0, 0.0), UeProfile(-90.0, 3.5, 0.0)]
        d = generate_demands(profiles, False, np.random.default_rng(0))
        assert np.array_equal(d, [10.0, 3.5])

    def test_rest_all_zero(self):
        profiles = [UeProfile(-100.0, 10.0, 5.0)]
        d = generate_demands(profiles, True, np.random.default_rng(0))
        assert np.array_equal(d, [0.0])

    def test_law_of_large_numbers(self):
        profiles = [UeProfile(-100.0, 10.0, 2.0)]
        rng = np.random.default_rng(123)
        draws = np.array([generate_demands(profiles, False, rng)[0] for _ in range(10 ** 5)])
        assert abs(draws.mean() - 10.0) < 3.0 * 2.0 / math.sqrt(10 ** 5)
        assert draws.min() >= 0.0


class TestSchedulePrbs:
    def test_equal_rate_symmetric(self):
        cfg = SimConfig(prb_budget=50)
        st = make_state([1e6, 1e6], [-100.0, -100.0], cfg)
        alloc = schedule_prbs(SchedulerOption.EQUAL_RATE, st, np.zeros(2), 50, cfg)
        assert np.array_equal(alloc, [25, 25])

    def test_max_ci_winner_takes_budget(self):
        cfg = SimConfig(prb_budget=50)
        # efficiencies 2.0 vs 1.0 via rsrp chosen from the channel inverse
        st = make_state([1e6, 1e6], [_rsrp_for_eff(2.0), _rsrp_for_eff(1.0)], cfg)
        alloc = schedule_prbs(SchedulerOption.MAXIMUM_C_OVER_I, st, np.zeros(2), 50, cfg)
        assert np.array_equal(alloc, [50, 0])

    def test_equal_rate_matches_brute_force(self):
        cfg = SimConfig(prb_budget=30)
        st = make_state([1e6, 1e6], [_rsrp_for_eff(2.0), _rsrp_for_eff(1.0)], cfg)
        alloc = schedule_prbs(SchedulerOption.EQUAL_RATE, st, np.zeros(2), 30, cfg)
        # brute force over all full-budget integer splits: minimize served spread
        best, best_spread = None, None
        for a in range(31):
            served = np.array([a * 2.0, (30 - a) * 1.0])
            spread = served.max() - served.min()
            if best_spread is None or spread < best_spread:
                best, best_spread = (a, 30 - a), spread
        assert tuple(alloc) == best == (10, 20)

    def test_never_allocates_without_traffic(self):
        cfg = SimConfig()
        st = make_state([0.0, 50.0, 0.0, 50.0], RSRP_LAB, cfg)
        for opt in SchedulerOption:
            alloc = schedule_prbs(opt, st, np.zeros(4), cfg.prb_budget, cfg)
            assert alloc[0] == 0 and alloc[2] == 0

    def test_budget_zero_raises(self):
        cfg = SimConfig()
        st = make_state([1.0], [-100.0], cfg)
        with pytest.raises(ValueError):
            schedule_prbs(SchedulerOption.EQUAL_RATE, st, np.zeros(1), 0, cfg)

    def test_budget_respected_under_fuzz(self):
        cfg = SimConfig()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            st = make_state(rng.uniform(0, 5000, n), rng.uniform(-135, -45, n), cfg,
                            pf_avg=rng.uniform(0.01, 50, n))
            demands = rng.uniform(0, 2000, n)
            opt = SchedulerOption(int(rng.integers(0, 5)))
            alloc = schedule_prbs(opt, st, demands, cfg.prb_budget, cfg)
            assert alloc.sum() <= cfg.prb_budget
            assert np.all(alloc >= 0)
            assert np.all(alloc[(st.queue_mb + demands) <= 1e-12] == 0)

    def test_pf_tie_breaks_lowest_index(self):
        cfg = SimConfig(prb_budget=1)
        st = make_state([1e6, 1e6], [-100.0, -100.0], cfg, pf_avg=[1.0, 1.0])
        for opt in (SchedulerOption.PROPORTIONAL_FAIR_HIGH,
                    SchedulerOption.PROPORTIONAL_FAIR_MEDIUM,
                    SchedulerOption.PROPORTIONAL_FAIR_LOW,
                    SchedulerOption.MAXIMUM_C_OVER_I,
                    SchedulerOption.EQUAL_RATE):
            alloc = schedule_prbs(opt, st, np.zeros(2), 1, cfg)
            assert np.array_equal(alloc, [1, 0])


# radio levels and averages shared between UEs, so that keys tie exactly
TIED_RSRP = [-130.0, -115.0, -105.0, -94.0, -60.0]
TIED_PF_AVG = [0.001, 0.01, 1.0, 7.5, 40.0]
Y_105 = spectral_efficiency(-105.0) * SimConfig().prb_megabits  # megabits per PRB at -105 dBm


@st.composite
def cells(draw):
    """A cell of 1..8 UEs, a budget of 1..119 PRBs and this tick's demands.

    Each UE has no traffic, a backlog of a whole number of PRBs (no fresh
    demand), or arbitrary buffered and fresh traffic.
    """
    n = draw(st.integers(1, 8))
    budget = draw(st.integers(1, 119))
    # a PRB of under 1 megabit gives a queue of 1e-13 a need of ceil(avail / y - 1e-12) = 1
    cfg = SimConfig(prb_budget=budget, prb_megabits=draw(st.sampled_from([10.8, 1.0, 0.05])))

    def per_ue(strategy):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))

    rsrp = per_ue(st.sampled_from(TIED_RSRP) | st.floats(RSRP_MIN_DBM, RSRP_MAX_DBM))
    jitter = per_ue(st.sampled_from([0.0, 1.5]) | st.floats(-4.0, 4.0))
    pf_avg = per_ue(st.sampled_from(TIED_PF_AVG) | st.floats(0.0, 60.0))
    y = spectral_efficiency(np.clip(rsrp + jitter, RSRP_MIN_DBM, RSRP_MAX_DBM)) * cfg.prb_megabits
    queue, demands = np.zeros(n), np.zeros(n)
    for i in range(n):
        kind = draw(st.sampled_from(["none", "whole_prbs", "any"]))
        if kind == "whole_prbs":
            queue[i] = draw(st.integers(1, 130)) * y[i]
        elif kind == "any":
            queue[i] = draw(st.sampled_from([0.0, 1e-13, 1e-12]) | st.floats(0.0, 3000.0))
            demands[i] = draw(st.just(0.0) | st.floats(0.0, 1500.0))
    state = CellState(tick_index=0, queue_mb=queue, base_rsrp_dbm=rsrp, jitter_db=jitter,
                      pf_avg_mbps=pf_avg, last_allocation=np.zeros(n, dtype=np.int64),
                      rng=np.random.default_rng(0))
    return state, demands, budget, cfg


class TestScheduleKernel:
    """schedule_prbs against the per-PRB reference loops, bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    # PF: a first PRB drops either UE's average from 38-40 to about 31, so its
    # next key beats its first (the running-minimum path)
    @example(cell=(make_state([1e6, 1e6], [-105.0, -105.0], SimConfig(), pf_avg=[40.0, 38.0]),
                   np.zeros(2), 5, SimConfig(prb_budget=5)))
    # MAXIMUM_C_OVER_I: the best UE holds exactly 31 PRBs of traffic, and
    # (31 * y) / y rounds up to 31 + 3.6e-15
    @example(cell=(make_state([31 * Y_105, 1e6], [-105.0, -115.0], SimConfig()),
                   np.zeros(2), 40, SimConfig(prb_budget=40)))
    # MAXIMUM_C_OVER_I, 0.05-megabit PRBs: 1e-13 megabits count as no traffic
    @example(cell=(make_state([1e-13, 1e6], [-115.0, -130.0], SimConfig()),
                   np.zeros(2), 3, SimConfig(prb_budget=3, prb_megabits=0.05)))
    @given(cell=cells())
    def test_matches_reference_loops(self, cell):
        state, demands, budget, cfg = cell
        for option in SchedulerOption:
            alloc = schedule_prbs(option, state, demands, budget, cfg)
            expected = reference_schedule(option, state, demands, budget, cfg)
            assert alloc.dtype == expected.dtype
            assert alloc.tolist() == expected.tolist(), option.name

    def test_pf_first_prb_raises_next_key(self):
        cfg = SimConfig(prb_budget=5)
        state = make_state([1e6, 1e6], [-105.0, -105.0], cfg, pf_avg=[40.0, 38.0])
        opt = SchedulerOption.PROPORTIONAL_FAIR_MEDIUM
        # UE 1 ranks first and, its average lowered, keeps every PRB; UE 0's
        # second and later keys beat UE 1's first, but never come into play
        assert schedule_prbs(opt, state, np.zeros(2), 5, cfg).tolist() == [0, 5]

    def test_max_ci_exact_multiple_takes_need(self):
        cfg = SimConfig(prb_budget=40)
        state = make_state([31 * Y_105, 1e6], [-105.0, -115.0], cfg)
        alloc = schedule_prbs(SchedulerOption.MAXIMUM_C_OVER_I, state, np.zeros(2), 40, cfg)
        assert alloc.tolist() == [31, 9]


def _rsrp_for_eff(eff):
    """Invert the channel map (within the unclamped region)."""
    sinr_db = 10.0 * math.log10(2.0 ** (eff / 0.6) - 1.0)
    return sinr_db - 121.0


class TestStep:
    def _profiles(self):
        return [UeProfile(r, m, s) for r, m, s in
                zip(RSRP_LAB, [500, 600, 1400, 2600], [400, 450, 900, 2000])]

    def test_nothing_to_serve(self):
        cfg = SimConfig()
        profiles = [UeProfile(r, 0.0, 0.0) for r in RSRP_LAB]
        st = init_cell_state(profiles, cfg, seed=1)
        st, obs = step(st, SchedulerOption.EQUAL_RATE, profiles, False, cfg)
        assert obs.cell_throughput_mbps == 0.0
        assert obs.prb_utilization == 0.0
        assert obs.active_ue_count == 0

    def test_single_backlogged_ue_gets_full_budget(self):
        cfg = SimConfig()
        profiles = [UeProfile(r, 0.0, 0.0) for r in RSRP_LAB]
        for opt in SchedulerOption:
            st = init_cell_state(profiles, cfg, seed=2)
            st.queue_mb[1] = 1e9  # far more than one tick can serve
            st, obs = step(st, opt, profiles, False, cfg)
            assert obs.prb_allocation[1] == cfg.prb_budget
            assert obs.prb_utilization == 1.0

    def test_conservation(self):
        cfg = SimConfig()
        profiles = self._profiles()
        st = init_cell_state(profiles, cfg, seed=3)
        for t in range(60):
            before = st.queue_mb.copy()
            opt = SchedulerOption(t % 5)
            st, obs = step(st, opt, profiles, t % 9 == 8, cfg)
            assert np.allclose(before + obs.demand_mb - obs.served_mb, obs.queue_after_mb)
            assert np.all(obs.served_mb >= 0)
            assert np.all(obs.served_mb <= before + obs.demand_mb + 1e-9)
            assert obs.cell_throughput_mbps == pytest.approx(obs.ue_throughput_mbps.sum())
            assert 0.0 <= obs.prb_utilization <= 1.0

    def test_deterministic_trajectories(self):
        cfg = SimConfig()
        profiles = self._profiles()
        runs = []
        for _ in range(2):
            st = init_cell_state(profiles, cfg, seed=12345)
            trace = []
            for t in range(90):
                st, obs = step(st, SchedulerOption.MAXIMUM_C_OVER_I, profiles, t >= 80, cfg)
                trace.append(np.concatenate([obs.served_mb, obs.rsrp_dbm,
                                             obs.queue_after_mb, [obs.cell_throughput_mbps]]))
            runs.append(np.array(trace))
        assert np.array_equal(runs[0], runs[1])  # byte-identical

    def test_pf_average_updates(self):
        cfg = SimConfig(rf_jitter_std_db=0.0)
        profiles = [UeProfile(-100.0, 0.0, 0.0)]
        st = init_cell_state(profiles, cfg, seed=4)
        st.queue_mb[0] = 1e9
        before = st.pf_avg_mbps.copy()
        st, obs = step(st, SchedulerOption.EQUAL_RATE, profiles, False, cfg)
        expected = 0.8 * before[0] + 0.2 * obs.ue_throughput_mbps[0]
        assert st.pf_avg_mbps[0] == pytest.approx(expected)

    def test_constant_option_ordering(self):
        # construction property: max C/I tops raw throughput, equal rate
        # minimizes the throughput spread, over 50 matched 80-tick runs
        cfg = SimConfig()
        profiles = self._profiles()
        mean_tput = {}
        mean_gap = {}
        for opt in SchedulerOption:
            tputs, gaps = [], []
            for ep in range(50):
                st = init_cell_state(profiles, cfg, seed=1000 + ep)
                for _ in range(80):
                    st, obs = step(st, opt, profiles, False, cfg)
                    tputs.append(obs.cell_throughput_mbps)
                    act = obs.ue_throughput_mbps[obs.active_mask]
                    if act.size:
                        gaps.append(act.max() - act.min())
            mean_tput[opt] = np.mean(tputs)
            mean_gap[opt] = np.mean(gaps)
        assert max(mean_tput, key=mean_tput.get) == SchedulerOption.MAXIMUM_C_OVER_I
        assert min(mean_gap, key=mean_gap.get) == SchedulerOption.EQUAL_RATE


class TestFitTrafficProfiles:
    def test_four_distinct_records_k4(self):
        records = [(-120.0, 100.0), (-110.0, 200.0), (-100.0, 400.0), (-90.0, 800.0)]
        profiles = fit_traffic_profiles(records, k=4, seed=0)
        assert [p.rsrp_dbm for p in profiles] == [-120.0, -110.0, -100.0, -90.0]
        assert [p.demand_mean for p in profiles] == [100.0, 200.0, 400.0, 800.0]
        assert all(p.demand_std == 0.0 for p in profiles)

    def test_identical_records_k1(self):
        records = [(-100.0, 300.0)] * 10
        (p,) = fit_traffic_profiles(records, k=1, seed=0)
        assert p.rsrp_dbm == -100.0 and p.demand_mean == 300.0 and p.demand_std == 0.0

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(99)
        gen = [(-120.0, 200.0), (-110.0, 600.0), (-100.0, 1200.0), (-90.0, 2400.0)]
        vol_std = 30.0
        records = []
        for rsrp, vol in gen:
            records += [(rng.normal(rsrp, 1.0), rng.normal(vol, vol_std)) for _ in range(100)]
        profiles = fit_traffic_profiles(records, k=4, seed=5)
        tol = 3.0 * vol_std / math.sqrt(100)
        for p, (rsrp, vol) in zip(profiles, gen):
            assert abs(p.demand_mean - vol) < tol
            assert abs(p.rsrp_dbm - rsrp) < 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_traffic_profiles([], k=1)
        with pytest.raises(ValueError):
            fit_traffic_profiles([(-100.0, 1.0), (-100.0, 1.0)], k=2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        records = [(rng.normal(-105, 8), rng.uniform(0, 1000)) for _ in range(60)]
        a = fit_traffic_profiles(records, k=4, seed=11)
        b = fit_traffic_profiles(records, k=4, seed=11)
        assert a == b


class TestTrafficCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("rsrp_dbm,rrc_volume_mb\n-110.5,350.25\n-95,1200\n")
        assert read_traffic_records(path) == [(-110.5, 350.25), (-95.0, 1200.0)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("rsrp,volume\n-110,1\n")
        with pytest.raises(ValueError):
            read_traffic_records(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("rsrp_dbm,rrc_volume_mb\n-110,x\n")
        with pytest.raises(ValueError, match=":2"):
            read_traffic_records(path)
