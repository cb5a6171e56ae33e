"""KPI state composition and reward definitions.

The agent never sees raw simulator state; it sees a 58-entry KPI vector
composed once per tick from the tick observables, with every entry min-max
normalized into [0, 1]. The layout (12 cell scalars, 15 CQI bins, 8 RSRP
bins, 8 RSRQ bins, 8 timing-advance bins, 5 previous-action indicators and
2 episode-phase entries) is frozen in a versioned manifest so that recorded
experience stays interpretable across runs; the composer refuses to run if
the configured manifest hash does not match the layout compiled in here.

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

MANIFEST_VERSION = "v1"

N_CELL_SCALARS = 12
N_CQI_BINS = 15
N_RSRP_BINS = 8
N_RSRQ_BINS = 8
N_TA_BINS = 8
N_ACTIONS = len(SchedulerOption)
N_PHASE = 2
STATE_DIM = N_CELL_SCALARS + N_CQI_BINS + N_RSRP_BINS + N_RSRQ_BINS + N_TA_BINS + N_ACTIONS + N_PHASE

# Default normalization bounds for the cell scalars (min is always 0).
_SCALAR_DEFAULTS = [
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
    rows = []
    idx = 0
    for name, bound in _SCALAR_DEFAULTS:
        rows.append((idx, name, "cell_scalar", 0.0, bound))
        idx += 1
    for i in range(N_CQI_BINS):
        rows.append((idx, f"cqi_bin_{i + 1:02d}", "cqi_hist", 0.0, 4.0))
        idx += 1
    for i in range(N_RSRP_BINS):
        lo, hi = RSRP_BIN_EDGES[i], RSRP_BIN_EDGES[i + 1]
        rows.append((idx, f"rsrp_bin_{lo:.0f}_{hi:.0f}", "rsrp_hist", 0.0, 4.0))
        idx += 1
    for i in range(N_RSRQ_BINS):
        rows.append((idx, f"rsrq_bin_{i + 1}", "rsrq_hist", 0.0, 4.0))
        idx += 1
    for i in range(N_TA_BINS):
        rows.append((idx, f"ta_bin_{i + 1}", "ta_hist", 0.0, 4.0))
        idx += 1
    for opt in SchedulerOption:
        rows.append((idx, f"prev_action_{opt.name.lower()}", "prev_action", 0.0, 1.0))
        idx += 1
    rows.append((idx, "episode_step_fraction", "phase", 0.0, 1.0))
    rows.append((idx + 1, "rest_flag", "phase", 0.0, 1.0))
    assert len(rows) == STATE_DIM
    return rows


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


def write_manifest(path) -> None:
    with open(path, "w") as fh:
        fh.write(manifest_text())


@dataclass
class KpiConfig:
    """Normalization bounds and episode framing for state and reward composition."""

    n_ues: int = 4
    episode_steps: int = 90
    demand_steps: int = 80
    cell_bandwidth_mhz: float = 18.0
    # state bounds (override the manifest defaults if needed)
    cell_throughput_bound_mbps: float = 86.4
    spectral_eff_bound: float = 4.8
    ue_throughput_bound_mbps: float = 43.2
    queue_depth_bound_mb: float = 10000.0
    volume_bound_mb: float = 5184.0
    # reward bounds
    reward_throughput_bound_mbps: float = 55.0
    reward_gap_bound_mbps: float = 10.0
    manifest_sha256: str = MANIFEST_SHA256

    def __post_init__(self):
        if self.manifest_sha256 != MANIFEST_SHA256:
            raise ValueError(
                f"KPI manifest hash mismatch: config expects {self.manifest_sha256}, "
                f"this build composes {MANIFEST_SHA256} ({MANIFEST_VERSION})")
        for name in ("cell_throughput_bound_mbps", "spectral_eff_bound",
                     "ue_throughput_bound_mbps", "queue_depth_bound_mb",
                     "volume_bound_mb", "reward_throughput_bound_mbps",
                     "reward_gap_bound_mbps", "cell_bandwidth_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_ues < 1:
            raise ValueError("n_ues must be >= 1")
        if not 0 < self.demand_steps <= self.episode_steps:
            raise ValueError("demand_steps must lie in (0, episode_steps]")


@dataclass
class KpiVector:
    """One composed state: 58 values in [0, 1] plus the layout version."""

    values: np.ndarray
    manifest_version: str = MANIFEST_VERSION


def _norm(value: float, bound: float) -> float:
    return float(np.clip(value / bound, 0.0, 1.0))


def _hist(values: np.ndarray, edges: np.ndarray, n_bins: int) -> np.ndarray:
    """Count values into bins, clamping outliers into the edge bins."""
    clipped = np.clip(values, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, n_bins - 1)
    return np.bincount(idx, minlength=n_bins)


def compose_kpis(obs: TickObservables, prev_action: SchedulerOption,
                 step_in_episode: int, cfg: KpiConfig) -> KpiVector:
    """Build the 58-entry state vector for one tick. Pure function of its inputs."""
    active = obs.active_mask
    n_active = int(active.sum())
    tputs = obs.ue_throughput_mbps[active]

    cell_tput = obs.cell_throughput_mbps
    mean_se = float(obs.spectral_eff[active].mean()) if n_active else 0.0
    util = obs.prb_utilization
    n_sched = int((obs.prb_allocation > 0).sum())
    cce = n_sched / cfg.n_ues
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

    scalars = [
        _norm(cell_tput, cfg.cell_throughput_bound_mbps),
        _norm(mean_se, cfg.spectral_eff_bound),
        _norm(util, 1.0),
        _norm(cce, 1.0),
        _norm(bitrate, cfg.cell_throughput_bound_mbps),
        _norm(n_active, cfg.n_ues),
        _norm(harmonic, cfg.ue_throughput_bound_mbps),
        _norm(worst, cfg.ue_throughput_bound_mbps),
        _norm(gap, cfg.ue_throughput_bound_mbps),
        _norm(mean_queue, cfg.queue_depth_bound_mb),
        _norm(served_vol, cfg.volume_bound_mb),
        _norm(demand_vol, cfg.volume_bound_mb),
    ]

    # histograms count active UEs only, then normalize by the UE population
    cqi = np.clip(np.rint(N_CQI_BINS * obs.spectral_eff[active] / EFF_CAP), 1, N_CQI_BINS)
    cqi_counts = np.bincount(cqi.astype(int) - 1, minlength=N_CQI_BINS)

    rsrp_counts = _hist(obs.rsrp_dbm[active], RSRP_BIN_EDGES, N_RSRP_BINS)

    rsrq = -3.0 - 8.5 * util - 8.5 * (1.0 - (obs.rsrp_dbm[active] + 140.0) / 100.0)
    rsrq_counts = _hist(rsrq, RSRQ_BIN_EDGES, N_RSRQ_BINS)

    ue_index = np.flatnonzero(active)
    ta_km = TA_KM_BASE + TA_KM_PER_UE_INDEX * ue_index
    ta_counts = _hist(ta_km, TA_BIN_EDGES, N_TA_BINS)

    one_hot = np.zeros(N_ACTIONS)
    one_hot[int(prev_action)] = 1.0

    phase = [
        min(step_in_episode / cfg.episode_steps, 1.0),
        1.0 if step_in_episode >= cfg.demand_steps else 0.0,
    ]

    values = np.concatenate([
        np.array(scalars),
        cqi_counts / cfg.n_ues,
        rsrp_counts / cfg.n_ues,
        rsrq_counts / cfg.n_ues,
        ta_counts / cfg.n_ues,
        one_hot,
        np.array(phase),
    ])
    values = np.clip(values, 0.0, 1.0)
    assert values.shape == (STATE_DIM,)
    return KpiVector(values=values)


REWARD_MODES = ("cell_throughput", "spectrum_efficiency", "ue_gap")


def reward_throughput(obs: TickObservables, mode: str, cfg: KpiConfig) -> float:
    """Throughput-flavored reward, normalized by the operating bound and clipped.

    The two modes are proportional views of the same quantity: cell
    throughput in Mbit/s, or the same volume expressed as bit/s/Hz over the
    whole cell bandwidth.
    """
    if mode == "cell_throughput":
        raw = obs.cell_throughput_mbps
        bound = cfg.reward_throughput_bound_mbps
    elif mode == "spectrum_efficiency":
        raw = obs.cell_throughput_mbps / cfg.cell_bandwidth_mhz
        bound = cfg.reward_throughput_bound_mbps / cfg.cell_bandwidth_mhz
    else:
        raise ValueError(f"unknown throughput reward mode {mode!r}")
    return float(np.clip(raw / bound, -1.0, 1.0))


def reward_ue_gap(obs: TickObservables, cfg: KpiConfig) -> float:
    """Fairness reward: min minus max active-UE throughput, normalized, clipped.

    Always <= 0; exactly 0 when every active UE saw the same throughput.
    Zero active UEs scores 0 by convention.
    """
    tputs = obs.ue_throughput_mbps[obs.active_mask]
    if tputs.size == 0:
        return 0.0
    raw = float(tputs.min() - tputs.max())
    return float(np.clip(raw / cfg.reward_gap_bound_mbps, -1.0, 1.0))
