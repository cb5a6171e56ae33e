"""Experiment harness: 90-minute episodes, baselines, training runs.

An episode is 80 demand minutes followed by 10 rest minutes. The cell is
rebuilt at the start of every episode from a seed derived deterministically
from (master seed, episode index), so a baseline sweep and a training run
see byte-identical demand and fading realizations episode for episode, and
any two runs of the same config reproduce each other exactly. Learning
state (networks, replay buffer, exploration schedule) is never reset
between episodes: the control task is continuous.

Rest minutes are simulated (queues keep draining) but produce no experience,
no training and no reward statistics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import agent as agent_mod
from . import kpi, qnet
from .agent import BUFFER_FIELDS, AgentConfig, DoubleQAgent
from .kpi import KpiConfig, compose_kpis, reward_throughput, reward_ue_gap
from .sim import SchedulerOption, SimConfig, TickObservables, UeProfile, init_cell_state, step

# Default UE population: radio conditions from the lab placements, traffic
# sized so that the cell runs just past capacity on an average minute and
# burst/lull swings make the scheduling choice consequential.
DEFAULT_PROFILES = [
    UeProfile(rsrp_dbm=-115.0, demand_mean=500.0, demand_std=400.0),
    UeProfile(rsrp_dbm=-110.0, demand_mean=600.0, demand_std=450.0),
    UeProfile(rsrp_dbm=-105.0, demand_mean=1400.0, demand_std=900.0),
    UeProfile(rsrp_dbm=-94.0, demand_mean=2600.0, demand_std=2000.0),
]

CURVE_CSV_HEADER = ["episode", "mean_reward", "stderr", "epsilon_end", "mean_td_error"]
BASELINE_CSV_HEADER = ["action", "mean_reward", "stderr", "episodes"]

CHECKPOINT_FILE = "checkpoint.npz"
CHECKPOINT_FORMAT = 2
_NETS = ("online", "target")
_PARAMS = ("w1", "b1", "w2", "b2")
_ARRAYS = tuple(f"{net}_{name}" for net in _NETS for name in _PARAMS) + BUFFER_FIELDS


@dataclass
class ExperimentConfig:
    reward_mode: str = "cell_throughput"
    episodes: int = 300
    steps_demand: int = 80
    steps_rest: int = 10
    ue_profiles: list[UeProfile] = field(default_factory=lambda: list(DEFAULT_PROFILES))
    agent: AgentConfig = field(default_factory=AgentConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    kpi: KpiConfig = field(default_factory=KpiConfig)
    seed: int = 0
    baseline_episodes: int = 50
    checkpoint_every: int = 10
    preload_path: str | None = None

    def __post_init__(self):
        if self.reward_mode not in kpi.REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {kpi.REWARD_MODES}, "
                             f"got {self.reward_mode!r}")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.steps_demand < 1 or self.steps_rest < 0:
            raise ValueError("need steps_demand >= 1 and steps_rest >= 0")
        if len(self.ue_profiles) < 1:
            raise ValueError("need at least one UE profile")
        if self.baseline_episodes < 1:
            raise ValueError("baseline_episodes must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        # keep the KPI composer's framing consistent with the episode shape
        self.kpi = dataclasses.replace(
            self.kpi,
            n_ues=len(self.ue_profiles),
            episode_steps=self.steps_demand + self.steps_rest,
            demand_steps=self.steps_demand,
        )


@dataclass
class EpisodeResult:
    episode_index: int
    mean_reward: float
    stderr: float
    epsilon_end: float
    mean_td_error: float


def episode_stats(rewards) -> tuple[float, float]:
    """Mean and standard error of the mean (sample std / sqrt(n); 0 for n = 1)."""
    arr = np.asarray(rewards, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rewards must not be empty")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer (stable across platforms and runs)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def episode_seed(master_seed: int, episode_index: int) -> int:
    """Per-episode stream: master seed XOR a mixed episode index."""
    return (int(master_seed) ^ _splitmix64(int(episode_index))) & 0xFFFFFFFFFFFFFFFF


def _reward_for(obs, mode: str, cfg: KpiConfig) -> float:
    if mode == "ue_gap":
        return reward_ue_gap(obs, cfg)
    return reward_throughput(obs, mode, cfg)


def _initial_state_vector(cfg: ExperimentConfig) -> np.ndarray:
    """State seen before the first tick: all-zero observables, EQUAL_RATE marker."""
    n = len(cfg.ue_profiles)
    zeros = np.zeros(n)
    obs = TickObservables(
        demand_mb=zeros, served_mb=zeros, queue_after_mb=zeros,
        ue_throughput_mbps=zeros, cell_throughput_mbps=0.0,
        spectral_eff=zeros, rsrp_dbm=np.array([p.rsrp_dbm for p in cfg.ue_profiles]),
        prb_allocation=np.zeros(n, dtype=np.int64), prb_utilization=0.0,
        active_mask=np.zeros(n, dtype=bool), active_ue_count=0,
    )
    return compose_kpis(obs, SchedulerOption.EQUAL_RATE, 0, cfg.kpi).values


def run_episode(cfg: ExperimentConfig, episode_index: int,
                agent: DoubleQAgent | None = None,
                constant_action: SchedulerOption | None = None,
                train: bool = False) -> EpisodeResult:
    """One 90-tick episode under either the agent's policy or a constant action.

    Returns reward statistics over the demand steps only. With train set the
    agent pushes one experience per demand step and runs one training step
    per tick once the buffer holds a valid segment.
    """
    if (agent is None) == (constant_action is None):
        raise ValueError("provide exactly one of agent or constant_action")
    if train and agent is None:
        raise ValueError("training requires an agent")

    cell = init_cell_state(cfg.ue_profiles, cfg.sim, episode_seed(cfg.seed, episode_index))
    state_vec = _initial_state_vector(cfg)
    rewards = []
    td_errors = []
    action = SchedulerOption.EQUAL_RATE

    for t in range(cfg.steps_demand):
        if constant_action is not None:
            action = constant_action
        elif train:
            action = SchedulerOption(agent.act(state_vec))
        else:
            action = SchedulerOption(agent.act(state_vec, greedy=True))
        cell, obs = step(cell, action, cfg.ue_profiles, False, cfg.sim)
        r = _reward_for(obs, cfg.reward_mode, cfg.kpi)
        next_vec = compose_kpis(obs, action, t + 1, cfg.kpi).values
        rewards.append(r)
        if train:
            agent.observe(state_vec, int(action), r, next_vec, episode_index)
            if agent.can_train():
                td_errors.append(agent.train_step())
        state_vec = next_vec

    for t in range(cfg.steps_demand, cfg.steps_demand + cfg.steps_rest):
        cell, obs = step(cell, action, cfg.ue_profiles, True, cfg.sim)
        state_vec = compose_kpis(obs, action, t + 1, cfg.kpi).values

    mean, stderr = episode_stats(rewards)
    return EpisodeResult(
        episode_index=episode_index,
        mean_reward=mean,
        stderr=stderr,
        epsilon_end=agent.epsilon if agent is not None else 0.0,
        mean_td_error=float(np.mean(td_errors)) if td_errors else 0.0,
    )


@dataclass
class BaselineRow:
    action: SchedulerOption
    mean_reward: float
    stderr: float
    episodes: int


def run_baseline_suite(cfg: ExperimentConfig, episodes: int | None = None,
                       first_episode: int = 0) -> list[BaselineRow]:
    """Evaluate all five constant actions on identical episode seeds.

    Rows come back sorted best-first under the configured reward mode.
    """
    n_eps = cfg.baseline_episodes if episodes is None else episodes
    rows = []
    for option in SchedulerOption:
        means = [run_episode(cfg, first_episode + i, constant_action=option).mean_reward
                 for i in range(n_eps)]
        mean, stderr = episode_stats(means)
        rows.append(BaselineRow(action=option, mean_reward=mean, stderr=stderr,
                                episodes=n_eps))
    rows.sort(key=lambda r: -r.mean_reward)
    return rows


# --- training runs and checkpoints ---------------------------------------------


def build_agent(cfg: ExperimentConfig) -> DoubleQAgent:
    ag = DoubleQAgent(cfg.agent)
    if cfg.preload_path:
        agent_mod.preload(ag.buffer, agent_mod.read_experience_csv(cfg.preload_path))
    return ag


def save_checkpoint(directory, ag: DoubleQAgent, next_episode: int) -> None:
    """Write the agent's whole learning state to directory/checkpoint.npz.

    One uncompressed npz holds both networks, the replay buffer as five
    arrays and a JSON meta string (format, global_step, next_episode, RNG
    state, KPI manifest hash). It is written under a temporary name and
    renamed into place, so a failed save leaves any earlier checkpoint
    whole. The same state always gives the same bytes: np.savez dates every
    member 1980-01-01 and meta holds no timestamp.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {f"{net}_{name}": getattr(getattr(ag, net), name) for net in _NETS for name in _PARAMS}
    meta = {
        "format": CHECKPOINT_FORMAT,
        "global_step": ag.global_step,
        "next_episode": next_episode,
        "rng_state": ag.rng.bit_generator.state,
        "manifest_sha256": kpi.MANIFEST_SHA256,
    }
    path = os.path.join(directory, CHECKPOINT_FILE)
    tmp = path + ".tmp"
    try:
        # a handle, not a path: np.savez would append ".npz" to the temporary name
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays, **ag.buffer.arrays())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def load_checkpoint(directory, cfg: ExperimentConfig) -> tuple[DoubleQAgent, int]:
    """Restore an agent exactly as saved; returns (agent, next_episode).

    Refuses, naming the directory, a checkpoint of another format or KPI
    manifest, a missing or 0-d array member, network arrays of the wrong
    shape, and buffer arrays that do not fit the replay ring or hold a
    transition the ring's check refuses.
    """
    with np.load(os.path.join(directory, CHECKPOINT_FILE), allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    meta = json.loads(str(members.pop("meta", "{}")))
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{directory}: unsupported checkpoint format {meta.get('format')}")
    if meta.get("manifest_sha256") != kpi.MANIFEST_SHA256:
        raise ValueError(f"{directory}: checkpoint written for KPI manifest "
                         f"{meta.get('manifest_sha256')}, this build uses {kpi.MANIFEST_SHA256}")
    absent = [name for name in _ARRAYS if np.ndim(members.get(name)) == 0]  # missing or 0-d
    if absent:
        raise ValueError(f"{directory}: {CHECKPOINT_FILE} lacks arrays {', '.join(absent)}; "
                         f"format {CHECKPOINT_FORMAT} holds meta and the arrays {', '.join(_ARRAYS)}")
    ag = DoubleQAgent(cfg.agent)
    for net in _NETS:
        for name in _PARAMS:
            got, want = members[f"{net}_{name}"], getattr(ag.online, name)
            if got.shape != want.shape or got.dtype != want.dtype:
                raise ValueError(f"{directory}: {net} {name} is {got.dtype}{list(got.shape)}, "
                                 f"expected {want.dtype}{list(want.shape)}")
        setattr(ag, net, qnet.QNetParams(*(members[f"{net}_{name}"] for name in _PARAMS)))

    columns = [members[name] for name in BUFFER_FIELDS]
    try:
        if max(map(len, columns)) > ag.buffer.capacity:
            raise ValueError(f"buffer holds more than {ag.buffer.capacity} transitions")
        ag.buffer.extend(*columns)
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None
    ag.global_step = int(meta["global_step"])
    ag.rng.bit_generator.state = meta["rng_state"]
    return ag, int(meta["next_episode"])


def _format_float(v: float) -> str:
    return repr(float(v))


def write_baseline_csv(path, rows: list[BaselineRow]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(BASELINE_CSV_HEADER) + "\n")
        for r in rows:
            fh.write(",".join([r.action.name, _format_float(r.mean_reward),
                               _format_float(r.stderr), str(r.episodes)]) + "\n")


def train_experiment(cfg: ExperimentConfig, out_dir=None,
                     resume_from=None, verbose: bool = False
                     ) -> tuple[list[EpisodeResult], DoubleQAgent]:
    """Run cfg.episodes training episodes, checkpointing every checkpoint_every
    episodes and at the end.

    With out_dir set, writes curve.csv incrementally (partial results survive
    a crash) plus checkpoints/ep_NNNN/ directories and a final/ checkpoint
    directory, each holding one checkpoint.npz. A run that resumes at episode
    k keeps the rows of an existing curve.csv for episodes before k and drops
    the rest, so resuming into the same out_dir continues one curve.
    """
    if resume_from is not None:
        ag, start = load_checkpoint(resume_from, cfg)
    else:
        ag, start = build_agent(cfg), 0

    results: list[EpisodeResult] = []
    curve_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        curve_path = os.path.join(out_dir, "curve.csv")
        kept = []
        if os.path.exists(curve_path):
            with open(curve_path, newline="") as fh:
                # a row without its newline was torn by a crash mid-write
                kept = [row for row in fh.readlines()[1:]
                        if row.endswith("\n") and int(row.split(",", 1)[0]) < start]
        with open(curve_path, "w", newline="") as fh:
            fh.write(",".join(CURVE_CSV_HEADER) + "\n")
            fh.writelines(kept)

    for ep in range(start, cfg.episodes):
        res = run_episode(cfg, ep, agent=ag, train=True)
        results.append(res)
        if curve_path is not None:
            with open(curve_path, "a", newline="") as fh:
                fh.write(",".join([str(res.episode_index), _format_float(res.mean_reward),
                                   _format_float(res.stderr), _format_float(res.epsilon_end),
                                   _format_float(res.mean_td_error)]) + "\n")
        if verbose:
            print(f"episode {ep:4d}  mean_reward {res.mean_reward:+.4f}  "
                  f"eps {res.epsilon_end:.3f}  td {res.mean_td_error:.4f}")
        if out_dir is not None and (ep + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, "checkpoints", f"ep_{ep + 1:04d}"),
                            ag, ep + 1)

    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "final"), ag, cfg.episodes)
    return results, ag


def evaluate_checkpoint(cfg: ExperimentConfig, checkpoint_dir, episodes: int,
                        first_episode: int = 0) -> tuple[float, float]:
    """Greedy (epsilon = 0) evaluation of a saved policy; returns (mean, stderr)."""
    ag, _ = load_checkpoint(checkpoint_dir, cfg)
    means = [run_episode(cfg, first_episode + i, agent=ag, train=False).mean_reward
             for i in range(episodes)]
    return episode_stats(means)
