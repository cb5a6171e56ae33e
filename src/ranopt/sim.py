"""Deterministic single-cell downlink simulator.

One tick is one simulated minute. Four (by default) UEs sit at fixed base
RSRP levels with a slow shadow-fading component on top; each tick they draw
fresh traffic demand, the configured MAC scheduler option splits the PRB
budget over their buffered traffic, and the cell serves whatever the channel
allows. The whole trajectory is a pure function of (profiles, config, seed).

Units: traffic volumes in megabits, rates in Mbit/s, radio conditions in dBm.
One PRB carries prb_megabits * efficiency megabits per tick (180 kHz * 60 s
* 1 bit/s/Hz = 10.8 Mbit at unit spectral efficiency).
"""

from __future__ import annotations

import csv
import math
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


@dataclass
class UeProfile:
    """Traffic/radio profile of one UE: fixed RSRP plus a per-tick demand model."""

    rsrp_dbm: float
    demand_mean: float  # megabits per tick
    demand_std: float   # megabits per tick

    def __post_init__(self):
        if not RSRP_MIN_DBM <= self.rsrp_dbm <= RSRP_MAX_DBM:
            raise ValueError(f"rsrp_dbm {self.rsrp_dbm} outside [{RSRP_MIN_DBM}, {RSRP_MAX_DBM}]")
        if self.demand_mean < 0:
            raise ValueError(f"demand_mean must be >= 0, got {self.demand_mean}")
        if self.demand_std < 0:
            raise ValueError(f"demand_std must be >= 0, got {self.demand_std}")


@dataclass
class SimConfig:
    """Cell-level knobs; defaults model a 20 MHz-like cell."""

    prb_budget: int = 100
    prb_megabits: float = 10.8     # megabits per PRB-tick at unit efficiency
    tick_seconds: float = 60.0
    pf_ema: float = 0.2            # smoothing of the per-UE served-rate average
    pf_floor_mbps: float = 0.01    # keeps the PF denominator positive
    rf_jitter_std_db: float = 1.0  # per-tick shadow-fading innovation
    rf_jitter_rho: float = 0.95    # AR(1) persistence of the fading component

    def __post_init__(self):
        if self.prb_budget <= 0:
            raise ValueError(f"prb_budget must be positive, got {self.prb_budget}")
        if not 0.0 < self.pf_ema <= 1.0:
            raise ValueError(f"pf_ema must lie in (0, 1], got {self.pf_ema}")
        if self.pf_floor_mbps <= 0:
            raise ValueError("pf_floor_mbps must be positive")
        if self.rf_jitter_std_db < 0:
            raise ValueError("rf_jitter_std_db must be >= 0")
        if not 0.0 <= self.rf_jitter_rho < 1.0:
            raise ValueError(f"rf_jitter_rho must lie in [0, 1), got {self.rf_jitter_rho}")


@dataclass
class CellState:
    """Mutable simulator truth for one cell."""

    queue_mb: np.ndarray        # per-UE buffered traffic
    base_rsrp_dbm: np.ndarray   # per-UE nominal radio condition
    jitter_db: np.ndarray       # per-UE shadow-fading offset
    pf_avg_mbps: np.ndarray     # per-UE smoothed served rate
    rng: np.random.Generator


@dataclass
class TickObservables:
    """Everything measurable about one tick, before KPI composition."""

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
    if np.any(rsrp < RSRP_MIN_DBM) or np.any(rsrp > RSRP_MAX_DBM):
        raise ValueError(f"rsrp_dbm outside [{RSRP_MIN_DBM}, {RSRP_MAX_DBM}]: {rsrp_dbm}")
    sinr_db = np.clip(rsrp + SINR_OFFSET_DB, SINR_FLOOR_DB, SINR_CEIL_DB)
    eff = np.minimum(EFF_SCALE * np.log2(1.0 + 10.0 ** (sinr_db / 10.0)), EFF_CAP)
    if np.isscalar(rsrp_dbm):
        return float(eff)
    return eff


def generate_demands(profiles: list[UeProfile], rest: bool, rng: np.random.Generator) -> np.ndarray:
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


def init_cell_state(profiles: list[UeProfile], cfg: SimConfig, seed) -> CellState:
    """Fresh cell with empty buffers; fading starts at its stationary distribution."""
    n = len(profiles)
    rng = np.random.default_rng(seed)
    base = np.array([p.rsrp_dbm for p in profiles])
    if cfg.rf_jitter_std_db > 0:
        stat_std = cfg.rf_jitter_std_db / math.sqrt(1.0 - cfg.rf_jitter_rho ** 2)
        jitter = rng.normal(0.0, stat_std, size=n)
    else:
        jitter = np.zeros(n)
    return CellState(
        queue_mb=np.zeros(n),
        base_rsrp_dbm=base,
        jitter_db=jitter,
        pf_avg_mbps=np.full(n, cfg.pf_floor_mbps),
        rng=rng,
    )


def _top_budget(keys, valid, budget, descending):
    """PRBs per UE from an (n_ues, k) grid whose entry k is the key of the
    UE's (k+1)-th PRB: counts of the first `budget` valid entries in
    (key, UE index, k) order, best key first.

    This is the per-PRB greedy choice (ties to the lowest UE index) as long
    as no UE's keys get better along k: a UE's next PRB is then never
    preferred to one it got earlier, so greedy heads merge in sorted order.
    """
    ue, k = np.nonzero(valid)  # row-major, so already in (UE index, k) order
    key = keys[ue, k]
    order = np.argsort(-key if descending else key, kind="stable")
    return np.bincount(ue[order[:budget]], minlength=keys.shape[0])


def _pf_keys(served_before, y_mb, pf_avg_mbps, alpha, cfg):
    """Proportional-fair keys eff / avg**alpha, where the smoothed rate avg
    counts the PRBs the UE got earlier in the tick.

    A first PRB can lower avg below the UE's average and so raise its next
    key; the greedy choice then keeps serving that UE, which a running
    minimum along k reproduces.
    """
    base_avg = np.maximum(pf_avg_mbps, cfg.pf_floor_mbps)
    virtual = np.maximum(cfg.pf_floor_mbps,
                         (1.0 - cfg.pf_ema) * base_avg[:, None]
                         + cfg.pf_ema * served_before / cfg.tick_seconds)
    virtual[:, 0] = base_avg
    eff = y_mb / cfg.prb_megabits
    return np.minimum.accumulate(eff[:, None] / virtual ** alpha, axis=1)


def _prb_yield(state: CellState, cfg: SimConfig):
    """Effective RSRP, spectral efficiency and megabits per PRB of each UE."""
    rsrp_eff = np.clip(state.base_rsrp_dbm + state.jitter_db, RSRP_MIN_DBM, RSRP_MAX_DBM)
    eff = spectral_efficiency(rsrp_eff)
    return rsrp_eff, eff, eff * cfg.prb_megabits


def schedule_prbs(option: SchedulerOption, state: CellState, demands: np.ndarray,
                  prb_budget: int, cfg: SimConfig, *, y_mb: np.ndarray | None = None
                  ) -> np.ndarray:
    """Integer PRB split over UEs for one tick under the given option.

    Never allocates to a UE without buffered or fresh traffic, never exceeds
    the budget, and breaks ranking ties toward the lowest UE index. y_mb,
    the megabits one PRB carries for each UE, follows from the state's radio
    conditions unless the caller has it already, as step does.
    """
    if prb_budget <= 0:
        raise ValueError(f"prb_budget must be positive, got {prb_budget}")
    demands = np.asarray(demands, dtype=np.float64)
    if np.any(demands < 0):
        raise ValueError("demands must be >= 0")
    if y_mb is None:
        y_mb = _prb_yield(state, cfg)[2]
    avail = state.queue_mb + demands
    k = np.arange(prb_budget)
    if option == SchedulerOption.MAXIMUM_C_OVER_I:
        # each UE's whole need, ceil(avail / y) PRBs, best yield first
        need = np.ceil(avail / y_mb - 1e-12)
        valid = (k < need[:, None]) & (avail[:, None] > 1e-12)
        return _top_budget(np.broadcast_to(y_mb[:, None], valid.shape), valid, prb_budget,
                           descending=True)
    served_before = np.minimum(avail[:, None], k * y_mb[:, None])  # megabits before PRB k+1
    valid = served_before < avail[:, None] - 1e-12
    if option == SchedulerOption.EQUAL_RATE:
        return _top_budget(served_before, valid, prb_budget, descending=False)
    if option in PF_ALPHA:
        keys = _pf_keys(served_before, y_mb, state.pf_avg_mbps, PF_ALPHA[option], cfg)
        return _top_budget(keys, valid, prb_budget, descending=True)
    raise ValueError(f"unknown scheduler option {option!r}")


def step(state: CellState, option: SchedulerOption, profiles: list[UeProfile],
         rest: bool, cfg: SimConfig) -> tuple[CellState, TickObservables]:
    """Advance the cell by one minute; mutates and returns the state.

    Order within a tick: fading evolves, demand arrives, PRBs are scheduled,
    traffic is served, buffers and the PF average update.
    """
    if cfg.rf_jitter_std_db > 0:
        innov = state.rng.normal(0.0, cfg.rf_jitter_std_db, size=state.jitter_db.size)
        state.jitter_db = cfg.rf_jitter_rho * state.jitter_db + innov
    rsrp_eff, eff, y = _prb_yield(state, cfg)

    demands = generate_demands(profiles, rest, state.rng)
    avail = state.queue_mb + demands
    active = avail > 1e-12
    alloc = schedule_prbs(option, state, demands, cfg.prb_budget, cfg, y_mb=y)

    served = np.minimum(avail, alloc * y)
    state.queue_mb = avail - served

    tput = served / cfg.tick_seconds
    state.pf_avg_mbps = np.maximum(cfg.pf_floor_mbps,
                                   (1.0 - cfg.pf_ema) * state.pf_avg_mbps + cfg.pf_ema * tput)

    obs = TickObservables(
        demand_mb=demands,
        served_mb=served,
        queue_after_mb=state.queue_mb.copy(),
        ue_throughput_mbps=tput,
        cell_throughput_mbps=float(tput.sum()),
        spectral_eff=eff,
        rsrp_dbm=rsrp_eff,
        prb_allocation=alloc,
        prb_utilization=float(alloc.sum()) / cfg.prb_budget,
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
    """
    data = np.asarray(records, dtype=np.float64)
    if data.size == 0:
        raise ValueError("records must not be empty")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"records must be (n, 2) pairs, got shape {data.shape}")
    distinct = np.unique(data, axis=0)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the {distinct.shape[0]} distinct records")

    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd[sd == 0] = 1.0
    z = (data - mu) / sd

    rng = np.random.default_rng(seed)
    z_distinct = (distinct - mu) / sd
    assign, best_inertia = None, None
    for _ in range(10):  # restarts guard against local optima
        cand_assign, inertia = _lloyd(z, _kmeanspp_init(z_distinct, k, rng), k)
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
                records.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in {row}") from None
    return records
