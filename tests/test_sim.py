import copy
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranopt.sim import (PF_ALPHA, PF_EMA, PF_FLOOR_MBPS, PRB_MEGABITS, RF_JITTER_RHO,
                        RSRP_MAX_DBM, RSRP_MIN_DBM, TICK_SECONDS, CellState, SchedulerOption,
                        SimConfig, TickObservables, UeProfile, _column_plan, _schedule,
                        _schedule_rows, fit_traffic_profiles, init_cell_state,
                        read_traffic_records, schedule_prbs, spectral_efficiency, step)

RSRP_LAB = [-115.0, -110.0, -105.0, -94.0]


def make_state(queues, rsrp, pf_avg=None, prb_mb=PRB_MEGABITS, budget=SimConfig().prb_budget):
    """A cell at its first tick: the given queues, effective RSRP and PF
    averages, a PRB carrying prb_mb megabits at unit efficiency, no fresh
    demand, and its PRB-yield grid drawn for budget PRBs."""
    n = len(queues)
    rsrp = np.array([rsrp], dtype=float)
    eff = spectral_efficiency(rsrp)
    y = eff * prb_mb
    return CellState(
        queue_mb=np.array(queues, dtype=float),
        pf_avg_mbps=np.array(pf_avg, dtype=float) if pf_avg is not None
        else np.full(n, PF_FLOOR_MBPS),
        rsrp_dbm=rsrp,
        spectral_eff=eff,
        y_mb=y,
        demand_mb=np.zeros((1, n)),
        prb_grid_mb=np.arange(budget) * y[:, :, None],
    )


def schedule(option, state, demands):
    """schedule_prbs at the state's current radio, PRB yield, yield grid and PF average."""
    t = state.tick
    return schedule_prbs(option, state.queue_mb + demands, state.y_mb[t], state.prb_grid_mb[t],
                         state.pf_avg_mbps)


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


def proportional_fair(avail_mb, y_mb, budget, pf_avg_mbps, alpha):
    """Per-PRB proportional fair: rank by eff / avg**alpha, updating the
    smoothed rate with the allocation made so far this tick."""
    n = avail_mb.size
    eff = y_mb / PRB_MEGABITS
    alloc = np.zeros(n, dtype=np.int64)
    served = np.zeros(n)
    base_avg = np.maximum(pf_avg_mbps, PF_FLOOR_MBPS)
    virtual = base_avg.copy()
    for _ in range(budget):
        can_use = served < avail_mb - 1e-12
        if not np.any(can_use):
            break
        key = np.where(can_use, eff / virtual ** alpha, -np.inf)
        i = int(np.argmax(key))  # first maximum = lowest UE index on ties
        alloc[i] += 1
        served[i] = min(avail_mb[i], alloc[i] * y_mb[i])
        virtual[i] = max(PF_FLOOR_MBPS,
                         (1.0 - PF_EMA) * base_avg[i] + PF_EMA * served[i] / TICK_SECONDS)
    return alloc


def reference_schedule(option, state, demands):
    """schedule_prbs written as the per-PRB loops above."""
    avail, prb_budget = state.queue_mb + demands, state.prb_grid_mb.shape[2]
    y = state.y_mb[state.tick]
    if option == SchedulerOption.EQUAL_RATE:
        return greedy_equal_rate(avail, y, prb_budget)
    if option == SchedulerOption.MAXIMUM_C_OVER_I:
        return ranked_fill(avail, y, prb_budget, np.lexsort((np.arange(avail.size), -y)))
    return proportional_fair(avail, y, prb_budget, state.pf_avg_mbps, PF_ALPHA[option])


# --- reference simulator: the noise drawn tick by tick ------------------------


@dataclass
class TickCell:
    """A cell that draws its fading and demand as each tick comes."""

    queue_mb: np.ndarray
    base_rsrp_dbm: np.ndarray
    jitter_db: np.ndarray
    pf_avg_mbps: np.ndarray
    rng: np.random.Generator


def generate_demands(profiles, rest, rng):
    """Per-UE fresh traffic for one tick: truncated-normal draws, or zeros at rest."""
    n = len(profiles)
    if rest:
        return np.zeros(n)
    means = np.array([p.demand_mean for p in profiles])
    stds = np.array([p.demand_std for p in profiles])
    draws = rng.normal(means, stds) if np.any(stds > 0) else means.copy()
    # zero-variance UEs must come out exactly at the mean
    draws = np.where(stds > 0, draws, means)
    return np.maximum(draws, 0.0)


def init_tick_cell(profiles, cfg, seed):
    """Fresh cell with empty buffers; fading starts at its stationary distribution."""
    n = len(profiles)
    rng = np.random.default_rng(seed)
    if cfg.rf_jitter_std_db > 0:
        stat_std = cfg.rf_jitter_std_db / math.sqrt(1.0 - RF_JITTER_RHO ** 2)
        jitter = rng.normal(0.0, stat_std, size=n)
    else:
        jitter = np.zeros(n)
    return TickCell(queue_mb=np.zeros(n), base_rsrp_dbm=np.array([p.rsrp_dbm for p in profiles]),
                    jitter_db=jitter, pf_avg_mbps=np.full(n, PF_FLOOR_MBPS), rng=rng)


def tick_step(state, option, profiles, rest, cfg):
    """One minute: fading evolves, demand arrives, PRBs are scheduled,
    traffic is served, buffers and the PF average update."""
    if cfg.rf_jitter_std_db > 0:
        innov = state.rng.normal(0.0, cfg.rf_jitter_std_db, size=state.jitter_db.size)
        state.jitter_db = RF_JITTER_RHO * state.jitter_db + innov
    rsrp_eff = np.clip(state.base_rsrp_dbm + state.jitter_db, RSRP_MIN_DBM, RSRP_MAX_DBM)
    eff = spectral_efficiency(rsrp_eff)
    y = eff * PRB_MEGABITS
    demands = generate_demands(profiles, rest, state.rng)
    avail = state.queue_mb + demands
    alloc = schedule_prbs(option, avail, y, np.arange(cfg.prb_budget) * y[:, None],
                          state.pf_avg_mbps)
    served = np.minimum(avail, alloc * y)
    state.queue_mb = avail - served
    tput = served / TICK_SECONDS
    state.pf_avg_mbps = np.maximum(PF_FLOOR_MBPS,
                                   (1.0 - PF_EMA) * state.pf_avg_mbps + PF_EMA * tput)
    return TickObservables(
        demand_mb=demands, served_mb=served, queue_after_mb=state.queue_mb.copy(),
        ue_throughput_mbps=tput, cell_throughput_mbps=float(tput.sum()), spectral_eff=eff,
        rsrp_dbm=rsrp_eff, prb_allocation=alloc,
        prb_utilization=float(alloc.sum()) / cfg.prb_budget, active_mask=avail > 1e-12)


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

    # an infinite mean runs endless queues; an infinite std makes inf * 0 on undrawn rows
    @pytest.mark.parametrize("mean, std, message", [
        (math.inf, 1.0, "demand_mean must be finite, got inf"),
        (1.0, math.inf, "demand_std must be finite, got inf"),
    ], ids=["demand_mean", "demand_std"])
    def test_infinite_demand_refused(self, mean, std, message):
        with pytest.raises(ValueError, match=message):
            UeProfile(rsrp_dbm=-100.0, demand_mean=mean, demand_std=std)


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

    # a NaN fails every comparison, so a check for values out of range passes it
    @pytest.mark.parametrize("rsrp, shown", [(math.nan, "nan"),
                                             ([-100.0, math.nan], r"\[-100.0, nan\]")],
                             ids=["scalar", "array"])
    def test_nan_raises_naming_the_value(self, rsrp, shown):
        with pytest.raises(ValueError, match=rf"outside \[-140.0, -40.0\] or NaN: {shown}"):
            spectral_efficiency(rsrp)


class TestGenerateDemands:
    """The demand init_cell_state draws, and the reference draws it matches."""

    def test_zero_std_exact_mean(self):
        profiles = [UeProfile(-100.0, 10.0, 0.0), UeProfile(-90.0, 3.5, 0.0)]
        assert np.array_equal(generate_demands(profiles, False, np.random.default_rng(0)),
                              [10.0, 3.5])
        cell = init_cell_state(profiles, SimConfig(), 0, [False, True, False])
        assert np.array_equal(cell.demand_mb, [[10.0, 3.5], [0.0, 0.0], [10.0, 3.5]])

    def test_rest_all_zero(self):
        profiles = [UeProfile(-100.0, 10.0, 5.0)]
        assert np.array_equal(generate_demands(profiles, True, np.random.default_rng(0)), [0.0])
        assert np.array_equal(init_cell_state(profiles, SimConfig(), 0, [True] * 4).demand_mb,
                              np.zeros((4, 1)))

    def test_law_of_large_numbers(self):
        profiles = [UeProfile(-100.0, 10.0, 2.0)]
        draws = init_cell_state(profiles, SimConfig(), 123, np.zeros(10 ** 5, bool)).demand_mb
        assert abs(draws.mean() - 10.0) < 3.0 * 2.0 / math.sqrt(10 ** 5)
        assert draws.min() >= 0.0


class TestSchedulePrbs:
    def test_equal_rate_symmetric(self):
        st = make_state([1e6, 1e6], [-100.0, -100.0], budget=50)
        alloc = schedule(SchedulerOption.EQUAL_RATE, st, np.zeros(2))
        assert np.array_equal(alloc, [25, 25])

    def test_max_ci_winner_takes_budget(self):
        # efficiencies 2.0 vs 1.0 via rsrp chosen from the channel inverse
        st = make_state([1e6, 1e6], [_rsrp_for_eff(2.0), _rsrp_for_eff(1.0)], budget=50)
        alloc = schedule(SchedulerOption.MAXIMUM_C_OVER_I, st, np.zeros(2))
        assert np.array_equal(alloc, [50, 0])

    def test_equal_rate_matches_brute_force(self):
        st = make_state([1e6, 1e6], [_rsrp_for_eff(2.0), _rsrp_for_eff(1.0)], budget=30)
        alloc = schedule(SchedulerOption.EQUAL_RATE, st, np.zeros(2))
        # brute force over all full-budget integer splits: minimize served spread
        best, best_spread = None, None
        for a in range(31):
            served = np.array([a * 2.0, (30 - a) * 1.0])
            spread = served.max() - served.min()
            if best_spread is None or spread < best_spread:
                best, best_spread = (a, 30 - a), spread
        assert tuple(alloc) == best == (10, 20)

    def test_never_allocates_without_traffic(self):
        st = make_state([0.0, 50.0, 0.0, 50.0], RSRP_LAB)
        for opt in SchedulerOption:
            alloc = schedule(opt, st, np.zeros(4))
            assert alloc[0] == 0 and alloc[2] == 0

    def test_budget_zero_raises(self):
        # a cell's grid is drawn for a SimConfig's budget, and a SimConfig refuses this one
        with pytest.raises(ValueError, match="prb_budget must be positive, got 0"):
            SimConfig(prb_budget=0)

    # the budget is the width of the drawn PRB-yield grid
    @pytest.mark.parametrize("budget", [100.5, True], ids=["float", "bool"])
    def test_budget_not_an_integer_refused(self, budget):
        with pytest.raises(ValueError, match=f"prb_budget must be an integer, got {budget!r}"):
            SimConfig(prb_budget=budget)

    # an infinite innovation turned the drawn RSRP NaN and the served megabits with it
    @pytest.mark.parametrize("std", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_jitter_refused(self, std):
        with pytest.raises(ValueError, match=f"rf_jitter_std_db must be >= 0 and finite, "
                                             f"got {std}"):
            SimConfig(rf_jitter_std_db=std)

    def test_negative_volume_refused(self):
        st = make_state([1.0, 5.0], [-100.0, -100.0])
        for opt in SchedulerOption:
            with pytest.raises(ValueError, match="avail must be >= 0"):
                schedule(opt, st, np.array([0.0, -5.5]))

    def test_budget_respected_under_fuzz(self):
        cfg = SimConfig()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            st = make_state(rng.uniform(0, 5000, n), rng.uniform(-135, -45, n),
                            pf_avg=rng.uniform(0.01, 50, n))
            demands = rng.uniform(0, 2000, n)
            opt = SchedulerOption(int(rng.integers(0, 5)))
            alloc = schedule(opt, st, demands)
            assert alloc.sum() <= cfg.prb_budget
            assert np.all(alloc >= 0)
            assert np.all(alloc[(st.queue_mb + demands) <= 1e-12] == 0)

    def test_pf_tie_breaks_lowest_index(self):
        st = make_state([1e6, 1e6], [-100.0, -100.0], pf_avg=[1.0, 1.0], budget=1)
        for opt in (SchedulerOption.PROPORTIONAL_FAIR_HIGH,
                    SchedulerOption.PROPORTIONAL_FAIR_MEDIUM,
                    SchedulerOption.PROPORTIONAL_FAIR_LOW,
                    SchedulerOption.MAXIMUM_C_OVER_I,
                    SchedulerOption.EQUAL_RATE):
            alloc = schedule(opt, st, np.zeros(2))
            assert np.array_equal(alloc, [1, 0])


# radio levels and averages shared between UEs, so that keys tie exactly
TIED_RSRP = [-130.0, -115.0, -105.0, -94.0, -60.0]
TIED_PF_AVG = [0.001, 0.01, 1.0, 7.5, 40.0]
Y_105 = spectral_efficiency(-105.0) * PRB_MEGABITS  # megabits per PRB at -105 dBm


@st.composite
def cells(draw):
    """A cell of 1..8 UEs, a budget of 1..119 PRBs, a PRB size and this tick's demands.

    Each UE has no traffic, a backlog of a whole number of PRBs (no fresh
    demand), or arbitrary buffered and fresh traffic.
    """
    n = draw(st.integers(1, 8))
    budget = draw(st.integers(1, 119))
    # a PRB of under 1 megabit gives a queue of 1e-13 a need of ceil(avail / y - 1e-12) = 1
    prb_mb = draw(st.sampled_from([PRB_MEGABITS, 1.0, 0.05]))
    return draw_cell(draw, n, budget, prb_mb)


def draw_cell(draw, n, budget, prb_mb, rsrp_eff=None):
    """A state of n UEs and this tick's demands, as cells() describes them;
    rsrp_eff, when given, is the effective RSRP instead of a drawn one."""

    def per_ue(strategy):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))

    if rsrp_eff is None:
        rsrp = per_ue(st.sampled_from(TIED_RSRP) | st.floats(RSRP_MIN_DBM, RSRP_MAX_DBM))
        jitter = per_ue(st.sampled_from([0.0, 1.5]) | st.floats(-4.0, 4.0))
        rsrp_eff = np.clip(rsrp + jitter, RSRP_MIN_DBM, RSRP_MAX_DBM)
    pf_avg = per_ue(st.sampled_from(TIED_PF_AVG) | st.floats(0.0, 60.0))
    y = spectral_efficiency(rsrp_eff) * prb_mb
    queue, demands = np.zeros(n), np.zeros(n)
    for i in range(n):
        kind = draw(st.sampled_from(["none", "whole_prbs", "any"]))
        if kind == "whole_prbs":
            queue[i] = draw(st.integers(1, 130)) * y[i]
        elif kind == "any":
            queue[i] = draw(st.sampled_from([0.0, 1e-13, 1e-12]) | st.floats(0.0, 3000.0))
            demands[i] = draw(st.just(0.0) | st.floats(0.0, 1500.0))
    # the kernel takes y_mb as given, so the PRB size reaches it through the state's yields
    state = make_state(queue, rsrp_eff, pf_avg, prb_mb, budget)
    return state, demands


@st.composite
def row_cells(draw):
    """1..3 cells of one shape, each a row: 1..12 UEs, so that sums over
    more than 8 UEs unroll, a budget of 1..120 PRBs and one PRB size; UEs
    without traffic and tied yields as in cells()."""
    n = draw(st.integers(1, 12))
    budget = draw(st.integers(1, 120))
    prb_mb = draw(st.sampled_from([PRB_MEGABITS, 1.0, 0.05]))
    return [draw_cell(draw, n, budget, prb_mb) for _ in range(draw(st.integers(1, 3)))]


class TestScheduleKernel:
    """schedule_prbs against the per-PRB reference loops, bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    # PF: a first PRB drops either UE's average from 38-40 to about 31, so its
    # next key beats its first (the running-minimum path)
    @example(cell=(make_state([1e6, 1e6], [-105.0, -105.0], pf_avg=[40.0, 38.0], budget=5),
                   np.zeros(2)))
    # MAXIMUM_C_OVER_I: the best UE holds exactly 31 PRBs of traffic, and
    # (31 * y) / y rounds up to 31 + 3.6e-15
    @example(cell=(make_state([31 * Y_105, 1e6], [-105.0, -115.0], budget=40),
                   np.zeros(2)))
    # MAXIMUM_C_OVER_I, 0.05-megabit PRBs: 1e-13 megabits count as no traffic
    @example(cell=(make_state([1e-13, 1e6], [-115.0, -130.0], prb_mb=0.05, budget=3),
                   np.zeros(2)))
    # MAXIMUM_C_OVER_I, tied yields: UE 0 takes its whole need of 5 PRBs
    # before UE 1 gets the last one
    @example(cell=(make_state([5 * Y_105, 3 * Y_105, 1e6], [-105.0, -105.0, -115.0], budget=6),
                   np.zeros(3)))
    # MAXIMUM_C_OVER_I: the best UE needs more than the whole budget
    @example(cell=(make_state([1e6, 50.0], [-94.0, -115.0], budget=20),
                   np.zeros(2)))
    # a budget of 1, the best UE without traffic
    @example(cell=(make_state([1e-13, 2 * Y_105, 1e6], [-60.0, -105.0, -105.0], budget=1),
                   np.zeros(3)))
    @given(cell=cells())
    def test_matches_reference_loops(self, cell):
        state, demands = cell
        for option in SchedulerOption:
            alloc = schedule(option, state, demands)
            expected = reference_schedule(option, state, demands)
            assert alloc.dtype == expected.dtype
            assert alloc.tolist() == expected.tolist(), option.name

    def test_pf_first_prb_raises_next_key(self):
        state = make_state([1e6, 1e6], [-105.0, -105.0], pf_avg=[40.0, 38.0], budget=5)
        opt = SchedulerOption.PROPORTIONAL_FAIR_MEDIUM
        # UE 1 ranks first and, its average lowered, keeps every PRB; UE 0's
        # second and later keys beat UE 1's first, but never come into play
        assert schedule(opt, state, np.zeros(2)).tolist() == [0, 5]

    def test_max_ci_exact_multiple_takes_need(self):
        state = make_state([31 * Y_105, 1e6], [-105.0, -115.0], budget=40)
        alloc = schedule(SchedulerOption.MAXIMUM_C_OVER_I, state, np.zeros(2))
        assert alloc.tolist() == [31, 9]


class TestRowKernel:
    """schedule_prbs over stacked rows: each row as if scheduled alone."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    # 12 UEs in two rows, one of them tied at one yield, the other without traffic
    @example(rows=[(make_state([1e6] * 12, [-105.0] * 12, budget=120), np.zeros(12)),
                   (make_state([0.0] * 12, RSRP_LAB * 3, budget=120), np.zeros(12))])
    @given(rows=row_cells())
    def test_each_row_is_the_row_alone_and_the_reference(self, rows):
        avail = np.stack([state.queue_mb + demands for state, demands in rows])
        y, grid = (np.stack([getattr(state, name)[0] for state, _ in rows])
                   for name in ("y_mb", "prb_grid_mb"))
        pf_avg = np.stack([state.pf_avg_mbps for state, _ in rows])
        for option in SchedulerOption:
            alloc = schedule_prbs(option, avail, y, grid, pf_avg)
            assert alloc.shape == avail.shape
            for row, (state, demands) in zip(alloc, rows):
                alone = schedule(option, state, demands)
                assert same_bits(row, alone), option.name
                assert row.tolist() == reference_schedule(option, state, demands).tolist()


@st.composite
def mixed_rows(draw):
    """row_cells() as the episodes of a tick of 1..2 blocks of rows, and an
    option for each (block, episode) row."""
    rows = draw(row_cells())
    blocks = draw(st.integers(1, 2))
    options = draw(st.lists(st.sampled_from(SchedulerOption), min_size=blocks * len(rows),
                            max_size=blocks * len(rows)))
    return rows, np.array(options).reshape(blocks, len(rows))


BUDGET_OF_ONE = (make_state([1e-13, 2 * Y_105, 1e6], [-60.0, -105.0, -105.0], budget=1),
                 np.zeros(3))


class TestMixedKernel:
    """The one kernel's pass over a tick of rows, an option each, as
    _schedule_rows feeds it: each row as schedule_prbs schedules it alone
    under its option, and as the reference loops do."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    # all five options in one tick, over rows of one yield ladder, the PF
    # averages rotated and the last UE's demand growing
    @example(tick=([(make_state([1e6, 2 * Y_105, 0.0, 700.0], RSRP_LAB,
                                pf_avg=np.roll(TIED_PF_AVG[1:], r)),
                     np.array([0.0, 0.0, 0.0, 300.0 * r])) for r in range(5)],
                   np.array([list(SchedulerOption)])))
    # a first PRB raises the next key, under each PF exponent
    @example(tick=([(make_state([1e6, 1e6], [-105.0, -105.0], pf_avg=[40.0, 38.0], budget=5),
                     np.zeros(2))] * 3, np.array([[1, 2, 3]])))
    # a budget of 1, the best UE without traffic, over two blocks
    @example(tick=([BUDGET_OF_ONE] * 2, np.array([[4, 0], [3, 1]])))
    # a block whose rows all agree, as some eval ticks' do
    @example(tick=([(make_state([1e6, 2 * Y_105, 0.0, 700.0], RSRP_LAB,
                                pf_avg=np.roll(TIED_PF_AVG[1:], r)), np.zeros(4))
                    for r in range(3)], np.array([[2, 2, 2]])))
    # per-row options over two blocks, each code repeated
    @example(tick=([(make_state([1e6, 1e6], [-105.0, -105.0], pf_avg=[40.0, 38.0], budget=5),
                     np.zeros(2)),
                    (make_state([1e6, 1e6], [-94.0, -105.0], budget=5), np.zeros(2)),
                    (make_state([3.0, 1e6], [-94.0, -110.0], budget=5), np.zeros(2))],
                   np.array([[1, 3, 1], [3, 4, 4]])))
    @given(tick=mixed_rows())
    def test_each_row_is_the_row_alone_and_the_reference(self, tick):
        rows, options = tick
        avail = np.stack([state.queue_mb + demands for state, demands in rows])
        y, grid = (np.stack([getattr(state, name)[0] for state, _ in rows])
                   for name in ("y_mb", "prb_grid_mb"))
        pf_avg = np.stack([state.pf_avg_mbps for state, _ in rows])
        blocks = len(options)  # every block's rows read the episodes' drawn rows
        alloc = _schedule_rows(options, np.stack([avail] * blocks), y, grid,
                               np.stack([pf_avg] * blocks))
        assert alloc.shape == options.shape + avail.shape[-1:]
        for b, e in np.ndindex(options.shape):
            state, demands = rows[e]
            option = SchedulerOption(options[b, e])
            assert same_bits(alloc[b, e], schedule(option, state, demands)), option.name
            assert alloc[b, e].tolist() == reference_schedule(option, state, demands).tolist()

    def test_negative_avail_refused(self):
        state, _ = BUDGET_OF_ONE
        avail = np.array([[state.queue_mb, [0.0, -1e-9, 1.0]]])
        with pytest.raises(ValueError, match=r"^avail must be >= 0$"):
            _schedule_rows(np.array([[0, 4]]), avail, np.stack([state.y_mb[0]] * 2),
                           np.stack([state.prb_grid_mb[0]] * 2),
                           np.stack([state.pf_avg_mbps] * 2)[None])


@st.composite
def column_ticks(draw):
    """A tick of 1..6 blocks of 1..4 episode rows, block b under codes[b], in
    any order and with repeats: 1..12 UEs, a budget of 1..120 PRBs and one
    PRB size. Each row holds its own queues, demands and PF averages, every
    block's row e the yields of episode e; UEs without traffic and tied
    yields as in cells()."""
    n = draw(st.integers(1, 12))
    budget = draw(st.integers(1, 120))
    prb_mb = draw(st.sampled_from([PRB_MEGABITS, 1.0, 0.05]))
    codes = draw(st.lists(st.sampled_from(SchedulerOption), min_size=1, max_size=6))
    first = [draw_cell(draw, n, budget, prb_mb) for _ in range(draw(st.integers(1, 4)))]
    rows = [first] + [[draw_cell(draw, n, budget, prb_mb, state.rsrp_dbm[0])
                       for state, _ in first] for _ in codes[1:]]
    return rows, codes


def ladder_column(codes, episodes=2, budget=SimConfig().prb_budget):
    """A tick of one block per code over rows of one yield ladder, each row's
    PF averages rotated and its last UE's demand growing with (block, episode)."""
    return ([[(make_state([1e6, 2 * Y_105, 0.0, 700.0], RSRP_LAB,
                          pf_avg=np.roll(TIED_PF_AVG[1:], b + e), budget=budget),
               np.array([0.0, 0.0, 0.0, 300.0 * (b + e)])) for e in range(episodes)]
             for b in range(len(codes))], codes)


class TestColumnKernel:
    """The one kernel's pass over a column of blocks, one option each, its
    blocks' rows reading the episodes' drawn rows: each row as schedule_prbs
    schedules it alone under its block's option, and as the reference loops
    do."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    # the suite's order
    @example(tick=ladder_column(list(SchedulerOption)))
    # reversed, with repeats
    @example(tick=ladder_column([4, 3, 3, 2, 1, 0], episodes=3, budget=7))
    # every block MAXIMUM_C_OVER_I; then so at a budget of 1, with tied yields
    @example(tick=ladder_column([4, 4, 4]))
    @example(tick=([[BUDGET_OF_ONE] * 2] * 3, [4, 4, 4]))
    # a first PRB raises the next key, under each PF exponent
    @example(tick=([[(make_state([1e6, 1e6], [-105.0, -105.0], pf_avg=[40.0, 38.0], budget=5),
                      np.zeros(2))]] * 3, [3, 1, 2]))
    @given(tick=column_ticks())
    def test_each_row_is_the_row_alone_and_the_reference(self, tick):
        rows, codes = tick
        avail = np.array([[state.queue_mb + demands for state, demands in block]
                          for block in rows])
        pf_avg = np.array([[state.pf_avg_mbps for state, _ in block] for block in rows])
        y, grid = (np.stack([getattr(state, name)[0] for state, _ in rows[0]])
                   for name in ("y_mb", "prb_grid_mb"))
        alloc = _schedule(tuple(codes), avail, y, grid, pf_avg)
        assert alloc.shape == avail.shape
        for b, e in np.ndindex(avail.shape[:2]):
            state, demands = rows[b][e]
            option = SchedulerOption(codes[b])
            assert same_bits(alloc[b, e], schedule(option, state, demands)), option.name
            assert alloc[b, e].tolist() == reference_schedule(option, state, demands).tolist()

    def test_negative_avail_refused_by_step(self):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1, 2], demand_ticks(1), 3)
        cell.queue_mb = np.zeros_like(cell.queue_mb)
        cell.queue_mb[2, 1, 0] = -1e-3 - cell.demand_mb[0, 1, 0]
        with pytest.raises(ValueError, match=r"^avail must be >= 0$"):
            step(cell, np.array([[4], [0], [1]]))
        assert cell.tick == 0

    def test_the_plan_refuses_an_unknown_code_on_each_call(self):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1, 2], demand_ticks(1), 3)
        cached = _column_plan.cache_info().currsize
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match=r"^unknown scheduler option 7$"):
                step(cell, np.array([[0], [7], [4]]))
        assert _column_plan.cache_info().currsize == cached
        assert cell.tick == 0

    def test_negative_avail_refused_once_the_plan_is_cached(self):
        codes = np.array([[3], [0], [1]])
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1, 2], demand_ticks(1), 3)
        step(copy.copy(cell), codes)  # the codes' plan is now cached
        hits = _column_plan.cache_info().hits
        cell.queue_mb = np.zeros_like(cell.queue_mb)
        cell.queue_mb[1, 0, 2] = -1e-3 - cell.demand_mb[0, 0, 2]
        queue, pf_avg = cell.queue_mb, cell.pf_avg_mbps
        before = queue.tobytes(), pf_avg.tobytes()
        with pytest.raises(ValueError, match=r"^avail must be >= 0$"):
            step(cell, codes)
        # refused before the plan is read, and nothing of the cell is touched
        assert _column_plan.cache_info().hits == hits
        assert cell.tick == 0 and cell.queue_mb is queue and cell.pf_avg_mbps is pf_avg
        assert (queue.tobytes(), pf_avg.tobytes()) == before


def _rsrp_for_eff(eff):
    """Invert the channel map (within the unclamped region)."""
    sinr_db = 10.0 * math.log10(2.0 ** (eff / 0.6) - 1.0)
    return sinr_db - 121.0


PROFILES_LAB = [UeProfile(r, m, sd) for r, m, sd in
                zip(RSRP_LAB, [500, 600, 1400, 2600], [400, 450, 900, 2000])]
IDLE_LAB = [UeProfile(r, 0.0, 0.0) for r in RSRP_LAB]


def demand_ticks(ticks):
    return np.zeros(ticks, dtype=bool)


class TestStep:
    def test_nothing_to_serve(self):
        cfg = SimConfig()
        st = init_cell_state(IDLE_LAB, cfg, 1, demand_ticks(1))
        st, obs = step(st, SchedulerOption.EQUAL_RATE)
        assert obs.cell_throughput_mbps == 0.0
        assert obs.prb_utilization == 0.0
        assert not obs.active_mask.any()

    def test_single_backlogged_ue_gets_full_budget(self):
        cfg = SimConfig()
        for opt in SchedulerOption:
            st = init_cell_state(IDLE_LAB, cfg, 2, demand_ticks(1))
            st.queue_mb[1] = 1e9  # far more than one tick can serve
            st, obs = step(st, opt)
            assert obs.prb_allocation[1] == cfg.prb_budget
            assert obs.prb_utilization == 1.0

    def test_conservation(self):
        cfg = SimConfig()
        st = init_cell_state(PROFILES_LAB, cfg, 3, np.arange(60) % 9 == 8)
        for t in range(60):
            before = st.queue_mb.copy()
            opt = SchedulerOption(t % 5)
            st, obs = step(st, opt)
            assert np.allclose(before + obs.demand_mb - obs.served_mb, obs.queue_after_mb)
            assert np.all(obs.served_mb >= 0)
            assert np.all(obs.served_mb <= before + obs.demand_mb + 1e-9)
            assert obs.cell_throughput_mbps == pytest.approx(obs.ue_throughput_mbps.sum())
            assert 0.0 <= obs.prb_utilization <= 1.0
            assert (t % 9 == 8) == (not obs.demand_mb.any())

    def test_deterministic_trajectories(self):
        cfg = SimConfig()
        runs = []
        for _ in range(2):
            st = init_cell_state(PROFILES_LAB, cfg, 12345, np.arange(90) >= 80)
            trace = []
            for _ in range(90):
                st, obs = step(st, SchedulerOption.MAXIMUM_C_OVER_I)
                trace.append(np.concatenate([obs.served_mb, obs.rsrp_dbm,
                                             obs.queue_after_mb, [obs.cell_throughput_mbps]]))
            runs.append(np.array(trace))
        assert np.array_equal(runs[0], runs[1])  # byte-identical

    def test_pf_average_updates(self):
        cfg = SimConfig(rf_jitter_std_db=0.0)
        st = init_cell_state([UeProfile(-100.0, 0.0, 0.0)], cfg, 4, demand_ticks(1))
        st.queue_mb[0] = 1e9
        before = st.pf_avg_mbps.copy()
        st, obs = step(st, SchedulerOption.EQUAL_RATE)
        expected = 0.8 * before[0] + 0.2 * obs.ue_throughput_mbps[0]
        assert st.pf_avg_mbps[0] == pytest.approx(expected)

    def test_constant_option_ordering(self):
        # construction property: max C/I tops raw throughput, equal rate
        # minimizes the throughput spread, over 50 matched 80-tick runs,
        # drawn as one cell of a row per option and episode
        options = list(SchedulerOption)
        st = init_cell_state(PROFILES_LAB, SimConfig(), [1000 + ep for ep in range(50)],
                             demand_ticks(80), len(options))
        tputs, gaps, gap_ticks = np.zeros(5), np.zeros(5), np.zeros(5)
        for _ in range(80):
            st, obs = step(st, np.array(options)[:, None])  # a column: one option per block
            tputs += obs.cell_throughput_mbps.sum(axis=1)
            active, tput = obs.active_mask, obs.ue_throughput_mbps
            gap = (np.where(active, tput, -np.inf).max(axis=2)
                   - np.where(active, tput, np.inf).min(axis=2))
            gaps += np.where(active.any(axis=2), gap, 0.0).sum(axis=1)
            gap_ticks += active.any(axis=2).sum(axis=1)
        mean_tput = dict(zip(options, tputs / (50 * 80)))
        mean_gap = dict(zip(options, gaps / gap_ticks))
        assert max(mean_tput, key=mean_tput.get) == SchedulerOption.MAXIMUM_C_OVER_I
        assert min(mean_gap, key=mean_gap.get) == SchedulerOption.EQUAL_RATE

    def test_drawn_episode_read_only(self):
        st = init_cell_state(PROFILES_LAB, SimConfig(), 6, demand_ticks(3))
        for name in ("rsrp_dbm", "spectral_eff", "y_mb", "demand_mb", "prb_grid_mb"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(st, name)[0, 0] = 1.0

    def test_observables_outlive_the_next_tick(self):
        cfg = SimConfig()
        st = init_cell_state(PROFILES_LAB, cfg, 7, demand_ticks(2))
        st, first = step(st, SchedulerOption.EQUAL_RATE)
        queue = first.queue_after_mb.copy()
        step(st, SchedulerOption.MAXIMUM_C_OVER_I)
        assert same_bits(first.queue_after_mb, queue)

    def test_episode_end_refused(self):
        cfg = SimConfig()
        st, _ = step(init_cell_state(PROFILES_LAB, cfg, 5, demand_ticks(1)),
                     SchedulerOption.EQUAL_RATE)
        with pytest.raises(IndexError):
            step(st, SchedulerOption.EQUAL_RATE)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def episodes(draw):
    """Profiles of 1..8 UEs (some without variance), a budget of 1..120 PRBs,
    fading on or off, and an episode of 1..40 ticks: its rest mask and an
    option per tick."""
    n = draw(st.integers(1, 8))
    profiles = [UeProfile(draw(st.floats(RSRP_MIN_DBM, RSRP_MAX_DBM)),
                          draw(st.floats(0.0, 3000.0)),
                          draw(st.just(0.0) | st.floats(0.0, 2500.0))) for _ in range(n)]
    cfg = SimConfig(prb_budget=draw(st.just(100) | st.integers(1, 120)),
                    rf_jitter_std_db=draw(st.sampled_from([0.0, 1.0])))
    ticks = draw(st.integers(1, 40))
    rest = draw(st.lists(st.booleans(), min_size=ticks, max_size=ticks))
    options = draw(st.lists(st.sampled_from(SchedulerOption), min_size=ticks, max_size=ticks))
    return profiles, cfg, draw(st.integers(0, 2 ** 64 - 1)), rest, options


class TestDrawnEpisode:
    """step over a cell drawn at creation against the tick-by-tick reference."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    # every UE without variance: no demand draws at all
    @example(episode=(IDLE_LAB[:2] + [UeProfile(-100.0, 300.0, 0.0)], SimConfig(), 7,
                      [False, True, False], list(SchedulerOption)[:3]))
    # the default episode shape
    @example(episode=(PROFILES_LAB, SimConfig(), 99, [t >= 80 for t in range(90)],
                      [SchedulerOption(t % 5) for t in range(90)]))
    @given(episode=episodes())
    def test_matches_per_tick_reference(self, episode):
        profiles, cfg, seed, rest, options = episode
        cell = init_cell_state(profiles, cfg, seed, rest)
        ref = init_tick_cell(profiles, cfg, seed)
        for t, (option, resting) in enumerate(zip(options, rest)):
            cell, obs = step(cell, option)
            expected = tick_step(ref, option, profiles, resting, cfg)
            # the drawn grid against the yield the reference drew this tick
            assert same_bits(cell.prb_grid_mb[t], np.arange(cfg.prb_budget)
                             * (expected.spectral_eff * PRB_MEGABITS)[:, None])
            for name in ("demand_mb", "served_mb", "queue_after_mb", "rsrp_dbm",
                         "spectral_eff", "prb_allocation", "prb_utilization", "active_mask"):
                assert same_bits(getattr(obs, name), getattr(expected, name)), name
            assert same_bits(cell.pf_avg_mbps, ref.pf_avg_mbps)
            assert obs.cell_throughput_mbps.hex() == expected.cell_throughput_mbps.hex()


@st.composite
def stacked_episodes(draw):
    """A block of 1..3 episodes, as init_cell_state draws it: profiles of
    1..12 UEs, a budget of 1..120 PRBs, fading on or off, 1..8 ticks and
    their rest mask, and 1..5 blocks of options: a column of one option
    per block, or one option per row."""
    n = draw(st.integers(1, 12))
    profiles = [UeProfile(draw(st.floats(RSRP_MIN_DBM, RSRP_MAX_DBM)),
                          draw(st.floats(0.0, 3000.0)),
                          draw(st.just(0.0) | st.floats(0.0, 2500.0))) for _ in range(n)]
    cfg = SimConfig(prb_budget=draw(st.integers(1, 120)),
                    rf_jitter_std_db=draw(st.sampled_from([0.0, 1.0])))
    rest = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3))
    blocks = draw(st.integers(1, 5))
    per_row = draw(st.booleans())
    options = draw(st.lists(st.lists(st.sampled_from(SchedulerOption),
                                     min_size=len(seeds) if per_row else 1,
                                     max_size=len(seeds) if per_row else 1),
                            min_size=blocks, max_size=blocks))
    return profiles, cfg, rest, seeds, options


class TestStackedCells:
    """A cell of option blocks by episode rows, drawn from the block's seeds
    in one call: its drawn arrays against the one-seed draws stacked, and
    step over it row by row against each episode's one-row cell under the
    row's option."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    # the suite's shape: every option over two episodes of the lab UEs
    @example(episode=(PROFILES_LAB, SimConfig(), [t >= 8 for t in range(10)], [3, 4],
                      [[option] for option in SchedulerOption]))
    # one block of rows, as greedy evaluation steps, two of them of one option
    @example(episode=(PROFILES_LAB, SimConfig(), [False] * 3, [3, 4, 5],
                      [[SchedulerOption.MAXIMUM_C_OVER_I, SchedulerOption.EQUAL_RATE,
                        SchedulerOption.MAXIMUM_C_OVER_I]]))
    @given(episode=stacked_episodes())
    def test_each_row_steps_as_its_cell_alone(self, episode):
        profiles, cfg, rest, seeds, options = episode
        cells = [init_cell_state(profiles, cfg, seed, rest) for seed in seeds]
        stacked = init_cell_state(profiles, cfg, seeds, rest, len(options))
        rows = (len(options), len(seeds), len(profiles))
        assert stacked.queue_mb.shape == stacked.pf_avg_mbps.shape == rows
        for name in ("rsrp_dbm", "spectral_eff", "y_mb", "demand_mb", "prb_grid_mb"):
            assert same_bits(getattr(stacked, name), np.stack([getattr(c, name) for c in cells], 1))
            assert not getattr(stacked, name).flags.writeable
        alone = [[copy.copy(c) for c in cells] for _ in options]
        by_row = np.broadcast_to(np.array(options), (len(options), len(cells)))
        for _ in rest:
            stacked, obs = step(stacked, np.array(options))
            for b in range(len(options)):
                for e, cell in enumerate(alone[b]):
                    _, expected = step(cell, SchedulerOption(by_row[b, e]))
                    for name in ("served_mb", "queue_after_mb", "ue_throughput_mbps",
                                 "prb_allocation", "active_mask"):
                        assert same_bits(getattr(obs, name)[b, e], getattr(expected, name)), name
                    for name in ("demand_mb", "spectral_eff", "rsrp_dbm"):
                        assert same_bits(getattr(obs, name)[e], getattr(expected, name)), name
                    assert obs.cell_throughput_mbps[b, e].hex() == \
                        expected.cell_throughput_mbps.hex()
                    assert obs.prb_utilization[b, e] == expected.prb_utilization
                    assert same_bits(stacked.pf_avg_mbps[b, e], cell.pf_avg_mbps)


class TestStackRefusals:
    def test_no_cells(self):
        with pytest.raises(ValueError, match="^init_cell_state needs at least one seed, got none$"):
            init_cell_state(PROFILES_LAB, SimConfig(), [], demand_ticks(1))

    @pytest.mark.parametrize("options", [[0, 4], [[[0]], [[4]]]])
    def test_options_not_one_per_row(self, options):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1], demand_ticks(1), 2)
        with pytest.raises(ValueError, match=r"^options of shape \(2,( 1, 1)?\) are not one per "
                                             r"row of \(2, 1\) rows$"):
            step(cell, np.array(options))

    def test_unknown_option(self):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1], demand_ticks(1), 2)
        with pytest.raises(ValueError, match=r"^unknown scheduler option 7$"):
            step(cell, np.array([[0], [7]]))

    @pytest.mark.parametrize("options, first", [([[0, 7, 9]], 7), ([[4, 2, -1]], -1)])
    def test_unknown_option_among_valid_ones(self, options, first):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1, 2, 3], demand_ticks(1))
        with pytest.raises(ValueError, match=rf"^unknown scheduler option {first}$"):
            step(cell, np.array(options))

    # a bool would run as EQUAL_RATE or PROPORTIONAL_FAIR_HIGH, 3.0 as
    # PROPORTIONAL_FAIR_LOW
    @pytest.mark.parametrize("options, dtype", [([[True], [False]], "bool"),
                                                ([[3.0], [0.0]], "float64"),
                                                ([[0.0, 3.7], [3.0, 3.0]], "float64")])
    def test_options_not_integers(self, options, dtype):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), [1, 2], demand_ticks(1), 2)
        with pytest.raises(ValueError, match=rf"^options of dtype {dtype} are not integer "
                                             rf"option codes$"):
            step(cell, np.array(options))
        assert cell.tick == 0 and not cell.queue_mb.any()  # nothing scheduled

    # 2.0 would run as PROPORTIONAL_FAIR_MEDIUM, True as PROPORTIONAL_FAIR_HIGH,
    # 4.0 as MAXIMUM_C_OVER_I, and 2.7 truncated as PROPORTIONAL_FAIR_MEDIUM
    @pytest.mark.parametrize("option, shown", [(2.0, "2.0"), (True, "True"), (2.7, "2.7"),
                                               (np.float64(4.0), "np.float64(4.0)"),
                                               (np.True_, "np.True_")])
    def test_a_scalar_option_not_an_integer(self, option, shown):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), 1, demand_ticks(1))
        queue = cell.queue_mb
        with pytest.raises(ValueError, match=rf"^option {re.escape(shown)} is not an integer "
                                             rf"option code$"):
            step(cell, option)
        assert cell.tick == 0 and cell.queue_mb is queue and not queue.any()

    def test_an_unknown_scalar_option_is_refused_on_each_call(self):
        cell = init_cell_state(PROFILES_LAB, SimConfig(), 1, demand_ticks(1))
        for option in (7, np.int64(7), 7):  # a refusal is not cached
            with pytest.raises(ValueError, match=r"^unknown scheduler option 7$"):
                step(cell, option)
        assert cell.tick == 0
        step(cell, np.int64(4))  # a numpy integer is a code
        assert cell.tick == 1


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

    def test_k_counts_records_distinct_once_standardized(self):
        # 5.0 and its next float standardize to one point: two distinct, not three
        records = [(-100.0, 5.0), (-100.0, 5.000000000000001), (-100.0, 3000.0)]
        with pytest.raises(ValueError, match="^k=3 exceeds the 2 distinct records$"):
            fit_traffic_profiles(records, k=3)
        low, high = fit_traffic_profiles(records, k=2)
        assert sorted([low.demand_mean, high.demand_mean]) == pytest.approx([5.0, 3000.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_record_named(self, bad):
        records = [(-100.0, 5.0), (-90.0, 7.0), (-80.0, bad), (bad, 3.0)]
        with pytest.raises(ValueError,
                           match=r"^record 2 \[-80.0, -?(inf|nan)\]: a non-finite value$"):
            fit_traffic_profiles(records, k=2)

    @pytest.mark.parametrize("huge", [1e308, -1e308])
    def test_record_too_large_to_standardize_named(self, huge):
        records = [(-100.0, 5.0), (-90.0, huge), (-80.0, -huge), (-70.0, 3.0)]
        with pytest.raises(ValueError, match=r"^record 1 \[-90.0, -?1e\+308\]: a value of "
                                             r"magnitude above .*, too large to standardize$"):
            fit_traffic_profiles(records, k=2)

    def test_large_records_within_the_bound_cluster(self):
        records = [(-100.0, 1e150), (-90.0, 1e150), (-80.0, 0.0)]
        low, high = sorted(fit_traffic_profiles(records, k=2), key=lambda p: p.demand_mean)
        assert (low.demand_mean, high.demand_mean) == (0.0, 1e150)

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

    @pytest.mark.parametrize("row", ["-110,nan", "-110,inf", "-inf,300", "NaN,300"])
    def test_non_finite_value_names_line(self, tmp_path, row):
        path = tmp_path / "records.csv"
        path.write_text(f"rsrp_dbm,rrc_volume_mb\n-110,250\n{row}\n")
        with pytest.raises(ValueError, match=":3: non-finite value in") as err:
            read_traffic_records(path)
        assert str(err.value).startswith(f"{path}:3:")
