"""Deterministic single-cell downlink simulator.

One tick is one simulated minute. Four (by default) UEs sit at fixed base
RSRP levels with a slow shadow-fading component on top; each demand tick
brings them fresh traffic, the configured MAC scheduler option splits the
PRB budget over their buffered traffic, and the cell serves whatever the
channel allows. The whole trajectory is a pure function of (profiles,
config, seed, rest ticks).

No action changes the radio or the demand, so a cell draws its episode's
noise when it is created: each tick's radio conditions, demand and PRB-yield
grid (the megabits each count of PRBs carries) are rows of drawn arrays, and
a tick only schedules and serves. The grid's width is the cell's PRB budget,
so a config is read only when a cell is drawn. A block of episodes, drawn
together from their seeds, is one cell of rows, blocks over episodes. Every
tick, of one row or of a cell of rows, is one pass of one kernel over rows
sorted by option: blocks of one option each read the episodes' drawn rows
in place, and rows whose options differ within a block are taken one by
one, each with its episode's drawn rows.

The scheduler's internals, the tick length and the fading persistence are
module constants, as a vendor fixes them: a config sets only the PRB budget
and the fading innovation.

Units: traffic volumes in megabits, rates in Mbit/s, radio conditions in dBm.
One PRB carries PRB_MEGABITS * efficiency megabits per tick.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

RSRP_MIN_DBM = -140.0
RSRP_MAX_DBM = -40.0

# RSRP-to-SINR offset and truncated-Shannon constants for the channel map.
SINR_OFFSET_DB = 121.0
SINR_FLOOR_DB = -6.0
SINR_CEIL_DB = 22.0
EFF_SCALE = 0.6
EFF_CAP = 4.8


class SchedulerOption(IntEnum):
    """The five MAC scheduler configurations the agent chooses between."""

    EQUAL_RATE = 0
    PROPORTIONAL_FAIR_HIGH = 1
    PROPORTIONAL_FAIR_MEDIUM = 2
    PROPORTIONAL_FAIR_LOW = 3
    MAXIMUM_C_OVER_I = 4


# Fairness exponent for the proportional-fair variants: rank = eff / avg**alpha.
PF_ALPHA = {
    SchedulerOption.PROPORTIONAL_FAIR_HIGH: 1.5,
    SchedulerOption.PROPORTIONAL_FAIR_MEDIUM: 1.0,
    SchedulerOption.PROPORTIONAL_FAIR_LOW: 0.5,
}
# The option codes as ints, which compare without the Python-level call of an enum attribute read
_EQUAL_RATE, _PF_HIGH, _PF_MEDIUM, _PF_LOW, _MAXIMUM_C_OVER_I = map(int, SchedulerOption)
# One tick is one minute, so a PRB carries 180 kHz * 60 s * 1 bit/s/Hz =
# 10.8 megabits per tick at unit spectral efficiency.
TICK_SECONDS = 60.0
PRB_MEGABITS = 10.8
PF_EMA = 0.2            # smoothing of the per-UE served-rate average
PF_FLOOR_MBPS = 0.01    # keeps the PF denominator positive
RF_JITTER_RHO = 0.95    # AR(1) persistence of the fading component


@dataclass
class UeProfile:
    """Traffic/radio profile of one UE: fixed RSRP plus a per-tick demand model."""

    rsrp_dbm: float
    demand_mean: float  # megabits per tick
    demand_std: float   # megabits per tick

    def __post_init__(self):
        if not RSRP_MIN_DBM <= self.rsrp_dbm <= RSRP_MAX_DBM:
            raise ValueError(f"rsrp_dbm {self.rsrp_dbm} outside [{RSRP_MIN_DBM}, {RSRP_MAX_DBM}]")
        for name in ("demand_mean", "demand_std"):
            value = getattr(self, name)
            if not value >= 0:  # a NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class SimConfig:
    """The cell's two settable knobs, defaults for a 20 MHz-like cell; the
    rest of the cell model is the module constants."""

    prb_budget: int = 100
    rf_jitter_std_db: float = 1.0  # per-tick shadow-fading innovation; 0 fixes the radio

    def __post_init__(self):
        # the budget is the width of the cell's drawn PRB-yield grid
        if isinstance(self.prb_budget, bool) or not isinstance(self.prb_budget, numbers.Integral):
            raise ValueError(f"prb_budget must be an integer, got {self.prb_budget!r}")
        if self.prb_budget <= 0:
            raise ValueError(f"prb_budget must be positive, got {self.prb_budget}")
        # an infinite innovation would make the drawn RSRP NaN
        if not 0 <= self.rf_jitter_std_db < math.inf:  # a NaN fails too
            raise ValueError(f"rf_jitter_std_db must be >= 0 and finite, "
                             f"got {self.rf_jitter_std_db}")


@dataclass
class CellState:
    """Mutable simulator truth for one cell, or for a block of rows of
    cells stepped together. Its episode is drawn at creation into read-only
    arrays: row t of each (ticks, n_ues) array, and of the (ticks, n_ues,
    prb_budget) PRB-yield grid, is what tick t sees; the grid's width is the
    only record of the PRB budget. step rebinds the queue and PF average,
    never writes into them, so a shallow copy of a fresh cell runs the same
    episode.

    A cell of rows, as init_cell_state draws it from E seeds, holds E
    episodes: each drawn array has the episode axis second, (ticks, E,
    n_ues[, prb_budget]), and the queue and PF average are (blocks, E,
    n_ues), one block of E rows for each option step is given. Every block
    reads the same drawn arrays, so nothing drawn is held per option."""

    queue_mb: np.ndarray        # per-UE buffered traffic
    pf_avg_mbps: np.ndarray     # per-UE smoothed served rate
    rsrp_dbm: np.ndarray        # effective (base + fading) RSRP
    spectral_eff: np.ndarray    # efficiency at the effective RSRP
    y_mb: np.ndarray            # megabits one PRB carries
    demand_mb: np.ndarray       # fresh traffic, zero on rest ticks
    prb_grid_mb: np.ndarray     # [t, i, k]: megabits k PRBs carry, k * y_mb[t, i]
    tick: int = 0               # the next tick to simulate


@dataclass
class TickObservables:
    """Everything measurable about one tick, before KPI composition. For a
    cell of rows, each field has the rows' shape, the drawn ones
    (demand_mb, spectral_eff, rsrp_dbm) that of the episodes they share."""

    demand_mb: np.ndarray
    served_mb: np.ndarray
    queue_after_mb: np.ndarray
    ue_throughput_mbps: np.ndarray
    cell_throughput_mbps: float
    spectral_eff: np.ndarray      # per-UE efficiency at the effective RSRP
    rsrp_dbm: np.ndarray          # effective (base + fading) RSRP
    prb_allocation: np.ndarray
    prb_utilization: float
    active_mask: np.ndarray       # UEs with buffered or fresh traffic this tick


def spectral_efficiency(rsrp_dbm):
    """Map RSRP to spectral efficiency (bit/s/Hz), monotone and deterministic.

    RSRP + 121 dB gives an SINR clamped to [-6, 22] dB, then a truncated
    Shannon curve min(0.6 * log2(1 + sinr), 4.8).
    """
    rsrp = np.asarray(rsrp_dbm, dtype=np.float64)
    if not ((RSRP_MIN_DBM <= rsrp) & (rsrp <= RSRP_MAX_DBM)).all():  # a NaN fails both
        raise ValueError(f"rsrp_dbm outside [{RSRP_MIN_DBM}, {RSRP_MAX_DBM}] or NaN: {rsrp_dbm}")
    sinr_db = np.clip(rsrp + SINR_OFFSET_DB, SINR_FLOOR_DB, SINR_CEIL_DB)
    eff = np.minimum(EFF_SCALE * np.log2(1.0 + 10.0 ** (sinr_db / 10.0)), EFF_CAP)
    if np.isscalar(rsrp_dbm):
        return float(eff)
    return eff


def init_cell_state(profiles: list[UeProfile], cfg: SimConfig, seeds, rest,
                    blocks: int = 1) -> CellState:
    """Fresh cell with empty buffers and its episodes drawn: seeds is one
    seed, for a one-row cell, or a sequence of E seeds, for a cell of
    (blocks, E) rows whose row (b, e) runs the episode of seed e. rest
    holds one flag per tick, and a rest tick brings no demand.

    Each seed's standard-normal block, drawn by its own generator, holds the
    draws of a tick-by-tick simulation in its order: n for the initial
    fading, at its stationary distribution, then per tick n for the fading
    innovation and, on a demand tick, n for demand. Fading draws are skipped
    without fading, demand draws when no UE's demand varies. Each draw is
    loc + scale * z, as Generator.normal forms it, and demand is truncated
    at 0. Every step after the draw is elementwise, so each episode of a
    block holds the bits of its one-seed cell. The PRB-yield grid is drawn
    for cfg.prb_budget PRBs. The drawn arrays are read-only. Refuses an
    empty sequence of seeds.
    """
    one = np.ndim(seeds) == 0
    seeds = [seeds] if one else list(seeds)
    if not seeds:
        raise ValueError("init_cell_state needs at least one seed, got none")
    rest = np.asarray(rest, dtype=bool)
    n, ticks = len(profiles), rest.size
    means, stds = np.array([(p.demand_mean, p.demand_std) for p in profiles]).T
    drawn = np.full((ticks + 1, 2), cfg.rf_jitter_std_db > 0)  # (fading, demand); row 0: start
    drawn[:, 1] = np.append(False, ~rest & np.any(stds > 0))
    z = np.zeros((len(seeds), ticks + 1, 2, n))
    for seed_z, seed in zip(z, seeds):
        seed_z[drawn] = np.random.default_rng(seed).standard_normal(
            n * int(drawn.sum())).reshape(-1, n)
    z = z.transpose(1, 2, 0, 3)  # the episode axis second: (ticks + 1, 2, E, n)

    scale = np.full((ticks + 1, 1, 1), cfg.rf_jitter_std_db)
    scale[0] = cfg.rf_jitter_std_db / math.sqrt(1.0 - RF_JITTER_RHO ** 2)
    fading = 0.0 + scale * z[:, 0]  # the AR(1), a tick's rows at a time: innovation + rho * prev
    for t in range(1, ticks + 1):
        fading[t] += RF_JITTER_RHO * fading[t - 1]
    rsrp = np.clip([p.rsrp_dbm for p in profiles] + fading[1:], RSRP_MIN_DBM, RSRP_MAX_DBM)
    eff = spectral_efficiency(rsrp)
    # a UE without variance gets exactly its mean
    demand = np.maximum(np.where(stds > 0, means + stds * z[1:, 1], means), 0.0)
    y = eff * PRB_MEGABITS
    episodes = {"rsrp_dbm": rsrp, "spectral_eff": eff, "y_mb": y,
                "demand_mb": np.where(rest[:, None, None], 0.0, demand),
                "prb_grid_mb": np.arange(cfg.prb_budget) * y[..., None]}
    for array in episodes.values():
        array.flags.writeable = False  # and so every view of it
    rows = (blocks, len(seeds))
    if one:
        episodes = {name: array[:, 0] for name, array in episodes.items()}
        rows = ()
    return CellState(queue_mb=np.zeros(rows + (n,)),
                     pf_avg_mbps=np.full(rows + (n,), PF_FLOOR_MBPS), **episodes)


def _top_budget(keys, valid, budget):
    """PRBs per UE from (..., n_ues, k) keys whose entry k is the key of the
    UE's (k+1)-th PRB: for each row, counts of its first `budget` valid
    entries in (key, UE index, k) order, least key first. Serves EQUAL_RATE
    and the PF options; MAXIMUM_C_OVER_I fills by rank instead.

    This is the per-PRB greedy choice (ties to the lowest UE index) as long
    as no UE's keys fall along k: a UE's next PRB is then never preferred to
    one it got earlier, so greedy heads merge in sorted order. Each row is
    sorted once, its invalid entries keyed +inf so that they sort last and
    drop out of its first `budget`; one bincount over indices offset by row
    counts every row.
    """
    n, k = keys.shape[-2:]
    ranked = np.where(valid, keys, np.inf).reshape(-1, n * k)
    first = ranked.argsort(kind="stable")[:, :budget]
    if len(first) > 1:  # an index into the flattened rows, whose // k is row * n + UE
        first += np.arange(0, ranked.size, n * k)[:, None]
    taken = first[valid.take(first)]
    taken //= k
    return np.bincount(taken, minlength=len(first) * n).reshape(valid.shape[:-1])


def _pf_keys(served_before, y_mb, pf_avg_mbps, pf_rows, keys):
    """Writes into keys the proportional-fair keys -eff / avg**alpha of
    rows along the leading axis, negated so that the best PRB sorts first,
    where the smoothed rate avg counts the PRBs the UE got earlier in the
    tick. pf_rows holds two slices of that axis, the rows of
    PROPORTIONAL_FAIR_HIGH and of PROPORTIONAL_FAIR_LOW; the other rows keep
    alpha 1.0. Each slice's alpha is raised by the ufunc `keys **= alpha`
    takes for the Python scalar: np.power for 1.5, a square root for 0.5,
    none for 1.0.

    A first PRB can lower avg below the UE's average and so raise its next
    key; the greedy choice then keeps serving that UE, which a running
    maximum of the negated keys along k reproduces. From the second PRB on,
    avg, its power and so the negated key only grow with k, so that maximum
    is each key's maximum with the first.
    """
    base_avg = np.maximum(pf_avg_mbps, PF_FLOOR_MBPS)
    # the smoothed rate, then the key
    np.multiply(served_before, PF_EMA, out=keys)
    keys /= TICK_SECONDS
    keys += ((1.0 - PF_EMA) * base_avg)[..., None]
    np.maximum(keys, PF_FLOOR_MBPS, out=keys)
    keys[..., 0] = base_avg
    high, low = pf_rows
    if high.start < high.stop:
        np.power(keys[high], PF_ALPHA[_PF_HIGH], out=keys[high])
    if low.start < low.stop:
        np.sqrt(keys[low], out=keys[low])
    np.divide((y_mb / -PRB_MEGABITS)[..., None], keys, out=keys)
    np.maximum(keys[..., 1:], keys[..., :1], out=keys[..., 1:])


def _ranked_fill(avail, y_mb, budget):
    """MAXIMUM_C_OVER_I: in each row, UEs in order of yield, best first, each
    take their whole need of ceil(avail / y) PRBs, capped by what the budget
    has left. A UE without traffic takes none. y_mb broadcasts against
    avail, so rows that share their yields give them once.

    Ranked by a stable sort, so equal yields go to the lowest UE index
    first. A UE takes the budget spent once it is served, capped at the
    budget, less that spent before it: the sums are exact while below the
    budget, and one that reaches it rounds to no less.
    """
    order = np.negative(y_mb).argsort(kind="stable")
    if avail.size > avail.shape[-1]:  # an index into the flattened rows
        order = order + np.arange(0, avail.size, avail.shape[-1]).reshape(avail.shape[:-1] + (1,))
    need = np.divide(avail, y_mb)
    need -= 1e-12
    np.ceil(need, out=need)
    # spent[..., r + 1]: the budget spent once the UE of rank r is served
    spent = np.zeros(order.shape[:-1] + (order.shape[-1] + 1,))
    np.add.accumulate(np.where(avail > 1e-12, need, 0.0).take(order), axis=-1,
                      out=spent[..., 1:])
    np.minimum(spent, budget, out=spent)
    alloc = np.empty(avail.shape, dtype=np.int64)
    alloc.put(order, spent[..., 1:] - spent[..., :-1])
    return alloc


def schedule_prbs(option: SchedulerOption, avail: np.ndarray, y_mb: np.ndarray,
                  grid_mb: np.ndarray, pf_avg_mbps: np.ndarray) -> np.ndarray:
    """Integer split of one tick's PRBs over UEs under the given option (a
    SchedulerOption or its integer code), where UE i has avail[i] megabits,
    its queue and fresh demand, to send at y_mb[i] megabits per PRB, and
    grid_mb[i, k] = k * y_mb[i] are the megabits its first k PRBs carry:
    the grid's width is the PRB budget.
    The PF options rank by the per-UE smoothed rates pf_avg_mbps.

    Each argument may carry leading row axes, (..., n_ues) and, for the
    grid, (..., n_ues, budget): every row is scheduled on its own under the
    one option, and the split has avail's shape. This is _schedule's pass
    over one block of rows; an option that is not an integer, such as a
    float or a bool, is refused, never rounded to a code.

    Never allocates to a UE without buffered or fresh traffic, never exceeds
    the budget, and breaks ranking ties toward the lowest UE index.
    """
    if isinstance(option, bool) or not isinstance(option, numbers.Integral):
        raise ValueError(f"option {option!r} is not an integer option code")
    return _schedule((option,), avail[None], y_mb, grid_mb, pf_avg_mbps[None])[0]


def _plan(codes: tuple) -> tuple:
    """How _schedule takes rows under a tuple of integer codes, one per row,
    a pure function of the codes: the order that sorts the rows by code and
    its inverse, both None when the rows are sorted already; the counts of
    EQUAL_RATE rows and of keyed rows, EQUAL_RATE and PF; and the slices of
    the PROPORTIONAL_FAIR_HIGH and PROPORTIONAL_FAIR_LOW rows among the PF
    rows, which the sort makes contiguous. Refuses, named as an int, the
    first unknown code."""
    for code in codes:
        if not _EQUAL_RATE <= code <= _MAXIMUM_C_OVER_I:
            raise ValueError(f"unknown scheduler option {code}")
    order = inverse = None
    if list(codes) != sorted(codes):
        order = np.array(codes).argsort(kind="stable")
        inverse = order.argsort()
        order.flags.writeable = inverse.flags.writeable = False
    equal, keyed = codes.count(_EQUAL_RATE), len(codes) - codes.count(_MAXIMUM_C_OVER_I)
    pf = keyed - equal
    return (order, inverse, equal, keyed,
            (slice(0, codes.count(_PF_HIGH)), slice(pf - codes.count(_PF_LOW), pf)))


# Blocks of one option each, one row's option or the suite's column, are a
# few tuples that recur every tick. Per-row codes seldom do (under a tenth of
# greedy evaluation's ticks), so _schedule plans them afresh. lru_cache keeps
# no refusal, so each call with an unknown code refuses it.
_column_plan = functools.lru_cache(maxsize=64)(_plan)


def _schedule(codes: tuple, avail, y, grid, pf_avg):
    """Each row along the first axis of avail and pf_avg as it is split
    alone, row r under codes[r], in one pass. y and grid hold each row's
    drawn rows or, one axis shorter, the drawn rows every row shares, which
    are then read in place.

    Sorted by code, the EQUAL_RATE rows, keyed by the grid, and the PF rows,
    keyed by one _pf_keys call, come before the MAXIMUM_C_OVER_I rows: one
    _top_budget serves the first two kinds, one _ranked_fill the last. A
    negative avail is refused before the plan is read, and an unknown code
    by the plan: both on every call, before anything is written.
    """
    if np.minimum.reduce(avail, axis=None) < 0:
        raise ValueError("avail must be >= 0")
    shared = y.ndim < avail.ndim
    order, inverse, equal, keyed, pf_rows = (_column_plan if shared else _plan)(codes)
    if order is not None:  # take is the cheaper gather
        avail, pf_avg = avail.take(order, axis=0), pf_avg.take(order, axis=0)
        if not shared:
            y, grid = y.take(order, axis=0), grid.take(order, axis=0)
    budget = grid.shape[-1]
    parts = []
    if keyed:  # EQUAL_RATE rows alone are keyed by the grid, which _top_budget broadcasts
        keys = grid if shared else grid[:keyed]
        # a PRB is useful while the UE has traffic left; the megabits served
        # before it, min(avail, k * y), are then k * y, since avail - 1e-12
        # never rounds above avail
        valid = keys < (avail[:keyed] - 1e-12)[..., None]
        if keyed > equal:
            keys = np.empty(valid.shape)
            if equal:
                keys[:equal] = grid if shared else grid[:equal]
            _pf_keys(grid if shared else grid[equal:keyed], y if shared else y[equal:keyed],
                     pf_avg[equal:keyed], pf_rows, keys[equal:])
        parts.append(_top_budget(keys, valid, budget))
    if keyed < len(avail):
        parts.append(_ranked_fill(avail[keyed:], y if shared else y[keyed:], budget))
    alloc = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return alloc if inverse is None else alloc.take(inverse, axis=0)


def _schedule_rows(options, avail, y, grid, pf_avg):
    """PRBs of a cell of (blocks, E) rows under integer options, one per row
    or a column of one per block, in one _schedule pass: over the blocks,
    which read the episodes' drawn rows in place, when each block's rows
    agree, else over the rows, each given its episode's drawn rows."""
    if options.shape[1] == 1 or all(row.count(row[0]) == len(row) for row in options.tolist()):
        return _schedule(tuple(options[:, 0].tolist()), avail, y, grid, pf_avg)
    rows = (-1,) + avail.shape[-1:]
    if len(avail) > 1:  # row (b, e) reads the drawn rows of episode e
        episode = np.arange(options.size) % options.shape[1]
        y, grid = y[episode], grid[episode]
    alloc = _schedule(tuple(options.ravel().tolist()), avail.reshape(rows), y, grid,
                      pf_avg.reshape(rows))
    return alloc.reshape(avail.shape)


def step(state: CellState, option) -> tuple[CellState, TickObservables]:
    """Advance the cell by one minute, the next row of its drawn episodes,
    over the PRB budget it was drawn for; mutates and returns the state.

    option is one integer code or SchedulerOption for every row of the
    cell, or, for a cell of (blocks, E) rows, an integer ndarray of one
    option per row, (blocks, E), or of one per block, (blocks, 1), refused
    in any other type, dtype or shape; schedule_prbs or _schedule_rows
    schedules them in one _schedule pass. A one-row cell's observables hold
    its cell throughput and utilization as floats, a cell of rows as arrays
    of the rows' shape.

    Order within a tick: demand arrives, PRBs are scheduled, traffic is
    served, buffers and the PF average update.
    """
    t = state.tick
    demands, y, grid = state.demand_mb[t], state.y_mb[t], state.prb_grid_mb[t]
    avail = state.queue_mb + demands
    active = avail > 1e-12
    if not isinstance(option, np.ndarray):
        alloc = schedule_prbs(option, avail, y, grid, state.pf_avg_mbps)
    elif option.dtype.kind not in "iu":
        raise ValueError(f"options of dtype {option.dtype} are not integer option codes")
    elif (option.ndim == avail.ndim - 1 == 2 and len(option) == len(avail)
          and option.shape[1] in (1, avail.shape[1])):
        alloc = _schedule_rows(option, avail, y, grid, state.pf_avg_mbps)
    else:
        raise ValueError(f"options of shape {option.shape} are not one per row of "
                         f"{avail.shape[:-1]} rows")

    served = np.minimum(avail, alloc * y)
    state.queue_mb = avail - served
    state.tick = t + 1

    tput = served / TICK_SECONDS
    pf_avg = (1.0 - PF_EMA) * state.pf_avg_mbps  # a new array: the old one is never written
    pf_avg += PF_EMA * tput
    state.pf_avg_mbps = np.maximum(pf_avg, PF_FLOOR_MBPS, out=pf_avg)

    # each row's sums run along its own contiguous UE axis, as a 1-d sum does
    cell_tput, used = np.add.reduce(tput, axis=-1), np.add.reduce(alloc, axis=-1)
    if alloc.ndim == 1:  # one row: floats
        cell_tput, used = float(cell_tput), float(used)
    obs = TickObservables(
        demand_mb=demands,
        served_mb=served,
        queue_after_mb=state.queue_mb,
        ue_throughput_mbps=tput,
        cell_throughput_mbps=cell_tput,
        spectral_eff=state.spectral_eff[t],
        rsrp_dbm=state.rsrp_dbm[t],
        prb_allocation=alloc,
        prb_utilization=used / grid.shape[-1],
        active_mask=active,
    )
    return state, obs


# --- traffic profile fitting -------------------------------------------------

def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread the initial centers: each next center is drawn with probability
    proportional to its squared distance from the nearest one chosen so far."""
    centers = [points[rng.integers(points.shape[0])]]
    for _ in range(1, k):
        d2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total == 0:
            # all remaining mass sits on chosen centers; pick any unused point
            used = {tuple(c) for c in centers}
            for p in points:
                if tuple(p) not in used:
                    centers.append(p)
                    break
            continue
        centers.append(points[rng.choice(points.shape[0], p=d2 / total)])
    return np.array(centers)


def _lloyd(z: np.ndarray, centers: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Lloyd iterations to an assignment fixpoint or 100 rounds."""
    centers = centers.copy()
    assign = np.full(z.shape[0], -1, dtype=np.int64)
    for _ in range(100):
        dist = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        for c in range(k):
            members = new_assign == c
            if np.any(members):
                centers[c] = z[members].mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                worst = int(np.argmax(dist[np.arange(z.shape[0]), new_assign]))
                centers[c] = z[worst]
                new_assign[worst] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(((z - centers[assign]) ** 2).sum())
    return assign, inertia


def fit_traffic_profiles(records, k: int = 4, seed: int = 0) -> list[UeProfile]:
    """Cluster (rsrp, session volume) records into k traffic profiles.

    Lloyd's k-means on standardized features, run to an assignment fixpoint
    or 100 iterations, with k-means++ seeding and ten restarts (lowest
    inertia wins). Each profile carries its cluster's mean RSRP, mean volume
    and within-cluster volume standard deviation; profiles come back sorted
    by RSRP ascending.

    Refuses, naming the first bad record, a record with a non-finite value
    and one with a value of magnitude above sqrt(max float / (8 n)) for n
    records, the bound below which the standardization cannot overflow.
    """
    data = np.asarray(records, dtype=np.float64)
    if data.size == 0:
        raise ValueError("records must not be empty")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"records must be (n, 2) pairs, got shape {data.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # squared deviations of at most (2 * limit)**2 each sum to at most max float / 2
    limit = math.sqrt(np.finfo(np.float64).max / (8 * len(data)))
    for fault, bad in (("a non-finite value", ~np.isfinite(data)),
                       (f"a value of magnitude above {limit:.3g}, too large to standardize",
                        np.abs(data) > limit)):
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            raise ValueError(f"record {i} {data[i].tolist()}: {fault}")

    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd[sd == 0] = 1.0
    z = (data - mu) / sd
    # distinct as the clustering sees them: records that standardize to one point are one
    distinct = np.unique(z, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the {distinct.shape[0]} distinct records")

    rng = np.random.default_rng(seed)
    assign, best_inertia = None, None
    for _ in range(10):  # restarts guard against local optima
        cand_assign, inertia = _lloyd(z, _kmeanspp_init(distinct, k, rng), k)
        if best_inertia is None or inertia < best_inertia:
            assign, best_inertia = cand_assign, inertia

    profiles = []
    for c in range(k):
        members = data[assign == c]
        profiles.append(UeProfile(
            rsrp_dbm=float(members[:, 0].mean()),
            demand_mean=float(members[:, 1].mean()),
            demand_std=float(members[:, 1].std()),
        ))
    profiles.sort(key=lambda p: p.rsrp_dbm)
    return profiles


TRAFFIC_CSV_HEADER = ["rsrp_dbm", "rrc_volume_mb"]


def read_traffic_records(path) -> list[tuple[float, float]]:
    """Read session records from a CSV with header rsrp_dbm,rrc_volume_mb."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty traffic file") from None
        if [h.strip() for h in header] != TRAFFIC_CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(TRAFFIC_CSV_HEADER)}, "
                             f"got {','.join(header)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                record = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {row}") from None
            if not all(map(math.isfinite, record)):
                raise ValueError(f"{path}:{lineno}: non-finite value in {row}")
            records.append(record)
    return records
