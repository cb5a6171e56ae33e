"""KPI state composition and reward definitions.

The agent never sees raw simulator state; it sees a 58-entry KPI vector
composed from the tick observables, with every entry min-max normalized into
[0, 1]. No action changes the radio, so its half of the state is binned once
per episode: radio_table gives each tick's CQI, RSRP and timing-advance
histogram ids and RSRQ's radio term, and compose_kpis adds a tick's cell
scalars, its RSRQ bins (they depend on the utilization) and the histogram
counts of its active UEs, for one row or for a tick of rows at once. The
layout (12 cell scalars, 15 CQI bins, 8 RSRP bins, 8 RSRQ bins, 8
timing-advance bins, 5 previous-action indicators and 2 episode-phase
entries) is frozen in a manifest, pinned by its sha256 (MANIFEST_SHA256),
so that recorded experience stays interpretable across runs. The manifest
also fixes the state's normalization bounds: the 12 cell scalars are divided
by its bound column (the active-UE count, like the histograms, by the UE
count), so a checkpoint's manifest hash pins what every state entry means. A
config sets only the two reward bounds.

CCE utilization, RSRQ and timing advance have no simulator ground truth and
are deterministic proxies: grant-count fraction, an RSRP/load blend, and a
fixed per-UE distance ladder respectively.

Rewards are clipped to [-1, 1]. The throughput reward normalizes by a
configured operating bound, deliberately below the theoretical cell peak:
ticks at or above the bound count as full reward, which is what makes
"serve the burst now" and "bank it for the lull" genuinely different
strategies for the agent to weigh.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .sim import EFF_CAP, SchedulerOption, TickObservables

N_CELL_SCALARS = 12
N_CQI_BINS = 15
N_RSRP_BINS = 8
N_RSRQ_BINS = 8
N_TA_BINS = 8
N_ACTIONS = len(SchedulerOption)
N_PHASE = 2
STATE_DIM = N_CELL_SCALARS + N_CQI_BINS + N_RSRP_BINS + N_RSRQ_BINS + N_TA_BINS + N_ACTIONS + N_PHASE

# The cell scalars in state order, each with its normalization bound (min is always 0).
_CELL_SCALARS = [
    ("dl_cell_throughput_mbps", 86.4),
    ("mean_spectral_efficiency", 4.8),
    ("prb_utilization", 1.0),
    ("cce_utilization_proxy", 1.0),
    ("cell_bitrate_mbps", 86.4),
    ("active_ue_count", 4.0),
    ("harmonic_mean_ue_throughput_mbps", 43.2),
    ("worst_ue_throughput_mbps", 43.2),
    ("ue_throughput_gap_mbps", 43.2),
    ("mean_queue_depth_mb", 10000.0),
    ("served_volume_mb", 5184.0),
    ("demand_volume_mb", 5184.0),
]

# Histogram edges. RSRP bins resolve the region the default UE placements
# and their fading excursions actually visit.
RSRP_BIN_EDGES = np.array([-140.0, -118.0, -112.0, -107.0, -102.0, -97.0, -92.0, -80.0, -40.0])
RSRQ_BIN_EDGES = np.linspace(-20.0, -3.0, N_RSRQ_BINS + 1)
TA_BIN_EDGES = np.linspace(0.0, 3.0, N_TA_BINS + 1)
# Fixed per-UE distance ladder behind the timing-advance proxy (km).
TA_KM_PER_UE_INDEX = 0.6
TA_KM_BASE = 0.3


def build_manifest() -> list[tuple[int, str, str, float, float]]:
    """The frozen state layout: (index, name, group, min_bound, max_bound) rows."""
    groups = {
        "cell_scalar": _CELL_SCALARS,
        "cqi_hist": [(f"cqi_bin_{i:02d}", 4.0) for i in range(1, N_CQI_BINS + 1)],
        "rsrp_hist": [(f"rsrp_bin_{lo:.0f}_{hi:.0f}", 4.0)
                      for lo, hi in zip(RSRP_BIN_EDGES[:-1], RSRP_BIN_EDGES[1:])],
        "rsrq_hist": [(f"rsrq_bin_{i}", 4.0) for i in range(1, N_RSRQ_BINS + 1)],
        "ta_hist": [(f"ta_bin_{i}", 4.0) for i in range(1, N_TA_BINS + 1)],
        "prev_action": [(f"prev_action_{opt.name.lower()}", 1.0) for opt in SchedulerOption],
        "phase": [("episode_step_fraction", 1.0), ("rest_flag", 1.0)],
    }
    rows = [(name, group, bound) for group, entries in groups.items() for name, bound in entries]
    assert len(rows) == STATE_DIM
    return [(i, name, group, 0.0, bound) for i, (name, group, bound) in enumerate(rows)]


def manifest_text() -> str:
    """Canonical CSV rendering of the manifest (what the hash covers)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "name", "group", "min_bound", "max_bound"])
    for row in build_manifest():
        writer.writerow([row[0], row[1], row[2], repr(row[3]), repr(row[4])])
    return buf.getvalue()


def manifest_sha256() -> str:
    return hashlib.sha256(manifest_text().encode()).hexdigest()


MANIFEST_SHA256 = manifest_sha256()


# Normalization bounds of the cell scalars: the bound column of the manifest.
CELL_SCALAR_BOUNDS = np.array([row[4] for row in build_manifest()[:N_CELL_SCALARS]])
# The one cell scalar divided by the UE count instead of its manifest bound.
_ACTIVE_UE_COUNT = [name for name, _ in _CELL_SCALARS].index("active_ue_count")


@dataclass
class KpiConfig:
    """Reward normalization bounds. The state bounds are fixed by the
    manifest, so they are not part of a config."""

    reward_throughput_bound_mbps: float = 55.0
    reward_gap_bound_mbps: float = 10.0

    def __post_init__(self):
        for name in ("reward_throughput_bound_mbps", "reward_gap_bound_mbps"):
            if not getattr(self, name) > 0:  # a NaN fails too
                raise ValueError(f"{name} must be positive")


# Each histogram's offset into the state's histogram entries, and the inner
# edges of the binned ones: searchsorted on them puts a value below the first
# edge into bin 0 and one above the last, or NaN, into the last bin.
_CQI_AT, _RSRP_AT, _RSRQ_AT, _TA_AT = np.cumsum([0, N_CQI_BINS, N_RSRP_BINS, N_RSRQ_BINS])
_N_HIST = N_CQI_BINS + N_RSRP_BINS + N_RSRQ_BINS + N_TA_BINS
_RSRP_INNER, _RSRQ_INNER, _TA_INNER = (e[1:-1] for e in (RSRP_BIN_EDGES, RSRQ_BIN_EDGES,
                                                         TA_BIN_EDGES))
_PREV_ACTION_AT = N_CELL_SCALARS + _N_HIST
# The state before the first tick, what compose_kpis makes of a tick with no
# active UE: every measurement 0, EQUAL_RATE as the previous action.
INITIAL_STATE = np.zeros(STATE_DIM)
INITIAL_STATE[_PREV_ACTION_AT + SchedulerOption.EQUAL_RATE] = 1.0
INITIAL_STATE.flags.writeable = False
# RSRQ's inner edges after _RSRQ_AT edges of -inf, which no value, NaN
# included, sorts before: searchsorted on them gives an RSRQ value's id.
_RSRQ_IDS = np.concatenate((np.full(_RSRQ_AT, -np.inf), _RSRQ_INNER))
# The previous-action entries of each option.
_ONE_HOT = np.eye(N_ACTIONS)


def radio_table(rsrp_dbm, spectral_eff) -> tuple[np.ndarray, np.ndarray]:
    """The state terms no action changes, for arrays whose last axis is the UE.

    Returns each UE's CQI, RSRP and timing-advance histogram ids, shape
    (..., n_ues, 3), and the radio term of its RSRQ proxy, shape (..., n_ues).
    A tick's row is compose_kpis's radio argument; the RSRQ bins also depend
    on the tick's utilization, so they are binned there.
    """
    rsrp = np.asarray(rsrp_dbm, dtype=np.float64)
    eff = np.asarray(spectral_eff, dtype=np.float64)
    cqi = np.clip(np.rint(N_CQI_BINS * eff / EFF_CAP), 1, N_CQI_BINS).astype(np.intp) - 1
    ta_km = TA_KM_BASE + TA_KM_PER_UE_INDEX * np.arange(rsrp.shape[-1])
    ids = np.stack(np.broadcast_arrays(cqi + _CQI_AT,
                                       np.searchsorted(_RSRP_INNER, rsrp, "right") + _RSRP_AT,
                                       np.searchsorted(_TA_INNER, ta_km, "right") + _TA_AT),
                   axis=-1)
    return ids, 8.5 * (1.0 - (rsrp + 140.0) / 100.0)


def _tput_stats(tputs):
    """Harmonic-mean, worst and best-less-worst throughput over the UE axis
    of (..., m) throughputs of active UEs, each (...); the harmonic mean is
    0 where a throughput is not above 0. A row's sum runs along its own
    contiguous entries, as a 1-d sum does."""
    lo, hi = np.minimum.reduce(tputs, axis=-1), np.maximum.reduce(tputs, axis=-1)
    served = lo > 0  # every active UE served; a NaN makes the minimum NaN
    # one row's flag is a numpy bool, whose truth costs far less than any()
    if served.all() if served.ndim else served:
        harmonic = tputs.shape[-1] / np.add.reduce(1.0 / tputs, axis=-1)
    else:
        harmonic = np.zeros(lo.shape)
        if served.ndim and served.any():
            harmonic[served] = tputs.shape[-1] / np.add.reduce(1.0 / tputs[served], axis=-1)
    return harmonic, lo, hi - lo


def compose_kpis(obs: TickObservables, prev_action, step_in_episode: int,
                 demand_steps: int, episode_steps: int,
                 radio: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Build the 58-entry state vector of each row of a tick. Pure function
    of its inputs.

    The observables may be one row's, (n_ues,) arrays, or a tick of rows',
    (..., n_ues): the drawn ones and radio broadcast against the rows, and
    prev_action is then one option per row. Returns (58,) for one row,
    (..., 58) for rows, each row as it would be composed alone. The episode
    framing (demand_steps of episode_steps ticks) sets the phase entries;
    the UE count is the length of the observables' UE axis. radio is
    radio_table of the tick's RSRP and efficiency, obs.rsrp_dbm and
    obs.spectral_eff.
    """
    if obs.active_mask.ndim > 1:
        return _compose_rows(obs, prev_action, step_in_episode, demand_steps, episode_steps,
                             radio)
    # one row, a training tick's state: float arithmetic, fewer numpy calls
    hist_ids, rsrq_radio = radio
    active = obs.active_mask
    n_ues = active.size
    n_active = np.count_nonzero(active)
    tputs, eff = obs.ue_throughput_mbps, obs.spectral_eff
    if n_active < n_ues:  # the active UEs' entries; all of them need no copy
        tputs, eff, hist_ids, rsrq_radio = (a[active] for a in (tputs, eff, hist_ids, rsrq_radio))
    cell_tput = obs.cell_throughput_mbps
    util = obs.prb_utilization
    mean_se, worst, gap, harmonic = 0.0, 0.0, 0.0, 0.0
    if n_active:
        lo, hi = np.minimum.reduce(tputs), np.maximum.reduce(tputs)
        mean_se, worst, gap = np.add.reduce(eff) / n_active, lo, hi - lo
        if lo > 0:  # every active UE served; a NaN makes the minimum NaN
            harmonic = n_active / np.add.reduce(1.0 / tputs)
    cce = np.count_nonzero(obs.prb_allocation) / n_ues  # allocations are counts >= 0
    bitrate = cell_tput / util if util > 0 else 0.0
    values = np.zeros(STATE_DIM)
    np.divide((cell_tput, mean_se, util, cce, bitrate, n_active, harmonic, worst, gap,
               np.add.reduce(obs.queue_after_mb) / n_ues, np.add.reduce(obs.served_mb),
               np.add.reduce(obs.demand_mb)),
              CELL_SCALAR_BOUNDS, out=values[:N_CELL_SCALARS])
    values[_ACTIVE_UE_COUNT] = n_active / n_ues

    # histograms count active UEs only, then normalize by the UE population
    rsrq = (-3.0 - 8.5 * util) - rsrq_radio
    bins = np.concatenate((hist_ids.ravel(), _RSRQ_IDS.searchsorted(rsrq, "right")))
    np.divide(np.bincount(bins, minlength=_N_HIST), n_ues,
              out=values[N_CELL_SCALARS:_PREV_ACTION_AT])

    values[_PREV_ACTION_AT + int(prev_action)] = 1.0
    values[-2] = min(step_in_episode / episode_steps, 1.0)
    values[-1] = 1.0 if step_in_episode >= demand_steps else 0.0
    # the one clamp of every entry: np.clip's result, NaN and -0.0 kept, the
    # bound first so that maximum keeps a -0.0 entry
    return np.minimum(1.0, np.maximum(0.0, values, out=values), out=values)


def _compose_rows(obs: TickObservables, prev_actions, step_in_episode: int,
                  demand_steps: int, episode_steps: int,
                  radio: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """compose_kpis of (..., n_ues) rows: each row's state the bits that
    compose_kpis gives the row alone, its sums reduced along its own UE
    axis."""
    hist_ids, rsrq_radio = radio
    active, tputs, eff, demand = (obs.active_mask, obs.ue_throughput_mbps, obs.spectral_eff,
                                  obs.demand_mb)
    rows_shape, n_ues = active.shape[:-1], active.shape[-1]
    if eff.shape != active.shape:  # drawn rows that the rows share: one block's as views
        rows_of = np.reshape if eff.size == active.size else np.broadcast_to
        eff, demand = (rows_of(a, active.shape) for a in (eff, demand))
    if hist_ids.shape[:-1] != active.shape:
        hist_ids = np.broadcast_to(hist_ids, active.shape + hist_ids.shape[-1:])
    # each row's sums along its own contiguous UE axis, as a 1-d sum runs;
    # the counts are exact in floats
    queue, served, demand, granted, n_active, eff_sum = np.add.reduce(np.array(
        (obs.queue_after_mb, obs.served_mb, demand, obs.prb_allocation != 0, active, eff)),
        axis=-1)
    # every row as if all its UEs were active, then each other row alone: a
    # partly active row reduces its active entries alone, as a 1-d sum does
    stats = (eff_sum / n_ues, *_tput_stats(tputs))
    partial = np.count_nonzero(active) < active.size
    if partial:
        stats = np.array(stats)
        for row in map(tuple, np.argwhere(n_active < n_ues).tolist()):
            ues = active[row]
            stats[(slice(None),) + row] = ((np.add.reduce(eff[row][ues]) / n_active[row],
                                            *_tput_stats(tputs[row][ues]))
                                           if n_active[row] else 0.0)
    mean_se, harmonic, worst, gap = stats
    cell_tput, util = obs.cell_throughput_mbps, obs.prb_utilization
    with np.errstate(over="ignore"):  # a tiny load's bitrate is inf, as a float division's
        bitrate = np.divide(cell_tput, util, out=np.zeros(rows_shape), where=util > 0)
    values = np.zeros(rows_shape + (STATE_DIM,))
    np.divide(np.array((cell_tput, mean_se, util, granted / n_ues, bitrate, n_active, harmonic,
                        worst, gap, queue / n_ues, served, demand))
              .reshape(N_CELL_SCALARS, -1).T, CELL_SCALAR_BOUNDS,
              out=values.reshape(-1, STATE_DIM)[:, :N_CELL_SCALARS])
    values[..., _ACTIVE_UE_COUNT] = n_active / n_ues

    # histograms count active UEs only, then normalize by the UE population;
    # each row's bins are offset past the rows before it
    rsrq = (-3.0 - 8.5 * util)[..., None] - rsrq_radio
    ids = np.concatenate((hist_ids, _RSRQ_IDS.searchsorted(rsrq, "right")[..., None]), axis=-1)
    n_rows = values.size // STATE_DIM
    ids += np.arange(0, n_rows * _N_HIST, _N_HIST).reshape(rows_shape + (1, 1))
    np.divide(np.bincount((ids[active] if partial else ids).ravel(), minlength=n_rows * _N_HIST)
              .reshape(rows_shape + (_N_HIST,)), n_ues,
              out=values[..., N_CELL_SCALARS:_PREV_ACTION_AT])

    values[..., _PREV_ACTION_AT:_PREV_ACTION_AT + N_ACTIONS] = _ONE_HOT[prev_actions]
    values[..., -2] = min(step_in_episode / episode_steps, 1.0)
    values[..., -1] = 1.0 if step_in_episode >= demand_steps else 0.0
    return np.minimum(1.0, np.maximum(0.0, values, out=values), out=values)


REWARD_MODES = ("cell_throughput", "ue_gap")


def _clip_unit(x):
    """np.clip(x, -1, 1), NaN kept: a float for a float, without np.clip's
    cost on a scalar, and an array for an array."""
    if isinstance(x, float):
        return min(max(x, -1.0), 1.0)
    return np.minimum(np.maximum(x, -1.0), 1.0)


def reward_throughput(obs: TickObservables, cfg: KpiConfig):
    """Cell throughput normalized by the operating bound, clipped to [-1, 1]:
    a float for a one-row tick, an array of one reward per row for a tick
    of rows."""
    return _clip_unit(obs.cell_throughput_mbps / cfg.reward_throughput_bound_mbps)


def reward_ue_gap(obs: TickObservables, cfg: KpiConfig):
    """Fairness reward: min minus max active-UE throughput, normalized,
    clipped; one per row, as reward_throughput gives them.

    Always <= 0; exactly 0 when every active UE saw the same throughput.
    Zero active UEs scores 0 by convention: their masked min and max are
    +inf and -inf, whose difference the cap at 0 turns into 0.
    """
    tputs, active = obs.ue_throughput_mbps, obs.active_mask
    lo = np.minimum.reduce(tputs, -1, where=active, initial=np.inf)
    hi = np.maximum.reduce(tputs, -1, where=active, initial=-np.inf)
    return _clip_unit(np.minimum(lo - hi, 0.0) / cfg.reward_gap_bound_mbps)
