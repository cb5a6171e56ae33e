"""Experiment harness: 90-minute episodes, baselines, training runs.

An episode is 80 demand minutes followed by 10 rest minutes. The cell is
rebuilt at the start of every episode from a seed derived deterministically
from (master seed, episode index), so a baseline sweep and a training run
see byte-identical demand and fading realizations episode for episode, and
any two runs of the same config reproduce each other exactly. Learning
state (networks, replay buffer, exploration schedule) is never reset
between episodes: the control task is continuous.

Rest minutes produce no experience, no training and no reward statistics,
so their KPI states are never composed; nor are any under a constant
action, which reads no state. run_episode still simulates them (queues keep
draining); the rows of evaluation and the suite are neither drawn nor
stepped for them, since their next block draws a fresh cell. An agent
episode bins its radio once, with radio_table over the drawn rows of its
demand ticks, and composes each demand tick's state from its row.

Evaluation and the baseline suite step rows: run_rows draws a block of at
most BASELINE_BLOCK_EPISODES episodes as one cell of rows, in one
init_cell_state call over the block's seeds, and steps it in one sim.step a
demand tick, a row per episode under the greedy policy and a row per
constant action and episode in the suite. Only training's one-row cells
pass this module's step.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import kpi, qnet, sim
from .agent import BUFFER_FIELDS, AgentConfig, DoubleQAgent, ReplayBuffer, greedy_options
from .kpi import (INITIAL_STATE, KpiConfig, compose_kpis, radio_table, reward_throughput,
                  reward_ue_gap)
from .sim import CellState, SchedulerOption, SimConfig, UeProfile, init_cell_state, step

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
CHECKPOINT_FORMAT = 4
_NETS = ("online", "target")
_ARRAYS = _NETS + BUFFER_FIELDS + ("chained",)
# Episodes run_rows steps together: memory grows with it, not with the
# number of episodes evaluated.
BASELINE_BLOCK_EPISODES = 10


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
    seed: int = 0  # the run's one seed: its episodes, and its agent's networks and stream
    baseline_episodes: int = 50
    checkpoint_every: int = 10
    # a checkpoint directory, as --resume names one, whose replay ring a fresh run starts with
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
        if not 0 <= self.seed < 2 ** 64:  # episode_seed keeps 64 bits: any other would alias
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


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
    return reward_ue_gap(obs, cfg) if mode == "ue_gap" else reward_throughput(obs, cfg)


def _draw_cell(cfg: ExperimentConfig, episodes: int | range, ticks: int,
               blocks: int = 1) -> CellState:
    """The cell of one episode index, or of a range of episodes as (blocks,
    len(episodes)) rows, each episode's radio and demand drawn from its
    episode seed for its first `ticks` ticks, those from cfg.steps_demand
    on rest ticks. An episode's draws run in tick order, so a cell drawn
    for fewer ticks holds the same bits on the ticks it has."""
    seeds = ([episode_seed(cfg.seed, ep) for ep in episodes] if isinstance(episodes, range)
             else episode_seed(cfg.seed, episodes))
    return init_cell_state(cfg.ue_profiles, cfg.sim, seeds,
                           np.arange(ticks) >= cfg.steps_demand, blocks)


def run_episode(cfg: ExperimentConfig, episode_index: int,
                agent: DoubleQAgent | None = None,
                constant_action: SchedulerOption | None = None,
                train: bool = False) -> EpisodeResult:
    """One episode, cfg.steps_demand demand ticks then cfg.steps_rest rest
    ticks, under either the agent's policy or a constant action.

    Returns reward statistics over the demand steps only. With train set each
    demand step appends one experience to the agent's buffer and calls
    train_step, which trains once the buffer holds an n_step segment. Only an
    agent's demand steps compose a state: nothing else reads one.
    """
    if (agent is None) == (constant_action is None):
        raise ValueError("provide exactly one of agent or constant_action")
    if train and agent is None:
        raise ValueError("training requires an agent")

    n_ticks = cfg.steps_demand + cfg.steps_rest
    cell = _draw_cell(cfg, episode_index, n_ticks)
    state_vec = INITIAL_STATE
    rewards = []
    td_errors = []
    action = constant_action
    if agent is not None:  # each demand tick's row of the radio's state terms
        radio = list(zip(*radio_table(cell.rsrp_dbm[:cfg.steps_demand],
                                      cell.spectral_eff[:cfg.steps_demand])))

    for t in range(cfg.steps_demand):
        if agent is not None:
            action = SchedulerOption(agent.act(state_vec, greedy=not train))
        cell, obs = step(cell, action)
        r = _reward_for(obs, cfg.reward_mode, cfg.kpi)
        rewards.append(r)
        if agent is None:
            continue
        next_vec = compose_kpis(obs, action, t + 1, cfg.steps_demand, n_ticks, radio[t])
        if train:
            agent.buffer.append(state_vec, next_vec, int(action), r, episode_index)
            td = agent.train_step()
            if td is not None:
                td_errors.append(td)
        state_vec = next_vec

    for _ in range(cfg.steps_rest):  # queues keep draining
        step(cell, action)

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


def run_rows(cfg: ExperimentConfig, episodes: range, policy) -> np.ndarray:
    """Each row's mean demand reward, (blocks, len(episodes)), the episodes
    stepped in lock-step: in blocks of at most BASELINE_BLOCK_EPISODES, each
    block drawn once as one cell of rows, one sim.step a tick. Refuses an
    empty range of episodes or an empty sequence of options, naming it.

    policy is a sequence of constant options, a block of rows for each, or
    a callable that maps the states of one block of rows, (1, E, STATE_DIM),
    to their (1, E) options, asked every demand tick; only a callable's
    rows compose their states. A block is drawn and stepped for its demand
    ticks alone: no mean or state reads a rest tick, and the next block
    draws a fresh cell. A row's rewards lie along its own ticks, so its
    mean adds them in run_episode's order, and its states and rewards are
    those of its episode run alone.
    """
    if not episodes:
        raise ValueError(f"run_rows needs at least one episode, got the empty {episodes!r}")
    reads_states = callable(policy)
    blocks = 1 if reads_states else len(policy)
    if not blocks:
        raise ValueError(f"run_rows needs at least one option, got the empty {policy!r}")

    def run_block(block: range) -> np.ndarray:  # nothing of a block outlives its turn
        cell = _draw_cell(cfg, block, cfg.steps_demand, blocks)
        rewards = np.empty((blocks, len(block), cfg.steps_demand))
        if reads_states:  # each demand tick's radio state terms, one block of rows
            ids, rsrq_radio = radio_table(cell.rsrp_dbm[:cfg.steps_demand, None],
                                          cell.spectral_eff[:cfg.steps_demand, None])
            states = np.broadcast_to(INITIAL_STATE, (1, len(block)) + INITIAL_STATE.shape)
        else:
            options = np.array(policy)[:, None]  # a column: one option per block
        for t in range(cfg.steps_demand):
            if reads_states:
                options = policy(states)
            cell, obs = sim.step(cell, options)
            rewards[..., t] = _reward_for(obs, cfg.reward_mode, cfg.kpi)
            if reads_states:
                states = compose_kpis(obs, options, t + 1, cfg.steps_demand,
                                      cfg.steps_demand + cfg.steps_rest, (ids[t], rsrq_radio[t]))
        return rewards.mean(axis=-1)

    return np.concatenate([run_block(episodes[start:start + BASELINE_BLOCK_EPISODES])
                           for start in range(0, len(episodes), BASELINE_BLOCK_EPISODES)], axis=1)


def run_baseline_suite(cfg: ExperimentConfig, episodes: int | None = None,
                       first_episode: int = 0) -> list[BaselineRow]:
    """Evaluate all five constant actions on identical episode seeds, each
    episode's cell drawn once and run under every option.

    run_rows steps a block of episodes as one cell of five option rows per
    episode, each demand tick one sim._schedule_column pass over the five
    options' rows, so memory does not grow with the suite; no rest tick is
    stepped. The means are run_episode's, bit for bit. Rows come back sorted
    best-first under the configured reward mode.
    """
    n_eps = cfg.baseline_episodes if episodes is None else episodes
    options = list(SchedulerOption)
    means = run_rows(cfg, range(first_episode, first_episode + n_eps), options)
    rows = [BaselineRow(option, *episode_stats(option_means), episodes=n_eps)
            for option, option_means in zip(options, means)]
    rows.sort(key=lambda r: -r.mean_reward)
    return rows


# --- training runs and checkpoints ---------------------------------------------


def _read_npz(path, names=None) -> dict[str, np.ndarray]:
    """The members of an npz archive, or those of names that it holds, the
    others left unread; refuses, naming path, a file that is not one."""
    try:
        # a handle of its own: np.load leaks the one it opens when the zip is cut short
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            return dict(npz) if names is None else {k: npz[k] for k in names if k in npz}
    # empty, a lone .npy, of no numpy format, or a zip archive cut short
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not an npz archive") from None


def build_agent(cfg: ExperimentConfig) -> DoubleQAgent:
    """A fresh agent of the run's seed. With cfg.preload_path set, its replay
    ring is that of the checkpoint directory named there, read by
    load_checkpoint as a resume is.

    The preloaded episode ids are shifted to end at -1, equal ids staying
    equal, so no n-step segment spans a preloaded episode and the run's
    first episode, 0; ids that the shift would wrap are refused.
    """
    buffer = load_checkpoint(cfg.preload_path, cfg)[0].buffer if cfg.preload_path else None
    if buffer:  # not None and not empty
        ids = buffer.episode_ids[:len(buffer)]
        if int(ids.max()) - int(ids.min()) >= 2 ** 63:  # the shift would wrap
            raise ValueError(f"{cfg.preload_path}: episode ids {ids.min()} to {ids.max()} "
                             f"do not fit int64 once shifted to end at -1")
        buffer.shift_episode_ids(-int(ids.max()) - 1)
    return DoubleQAgent(cfg.agent, buffer, cfg.seed)


def save_checkpoint(directory, ag: DoubleQAgent, next_episode: int) -> None:
    """Write the agent's whole learning state to directory/checkpoint.npz.

    One uncompressed npz (format 4) holds a JSON meta string (format,
    global_step, next_episode, RNG state, KPI manifest hash), each network
    as one parameter vector (members online and target) and the replay
    buffer as ReplayBuffer.packed gives it: the BUFFER_FIELDS arrays, with
    next_states holding only the rows of entries whose next state is not the
    following entry's state, and the bool member chained flagging the
    others, the entries the ring stores no next state for. It is written
    under a temporary name, synced to disk, renamed into place and the
    rename synced, so a failed save leaves any earlier checkpoint whole and
    a finished one survives a crash. The same state always gives the same
    bytes: np.savez dates every member 1980-01-01 and meta holds no
    timestamp.
    """
    os.makedirs(directory, exist_ok=True)
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
            np.savez(fh, meta=np.array(json.dumps(meta)), online=ag.online, target=ag.target,
                     **ag.buffer.packed())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(directory, os.O_RDONLY)  # the rename lives in the directory
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _check_members(members: dict, arrays=_ARRAYS) -> dict:
    """The meta of a checkpoint, popped from its members once these pass.
    Refuses a meta that is not a JSON object of this format and KPI
    manifest, a member of arrays that is missing or 0-d, and a network among
    arrays that is not a float64 vector of qnet.N_PARAMS entries."""
    meta = json.loads(str(members.pop("meta", "{}")))
    if not isinstance(meta, dict):
        raise ValueError(f"{CHECKPOINT_FILE} meta must be a JSON object, "
                         f"got {type(meta).__name__}")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {meta.get('format')}")
    if meta.get("manifest_sha256") != kpi.MANIFEST_SHA256:
        raise ValueError(f"checkpoint written for KPI manifest {meta.get('manifest_sha256')}, "
                         f"this build uses {kpi.MANIFEST_SHA256}")
    absent = [name for name in arrays if np.ndim(members.get(name)) == 0]  # missing or 0-d
    if absent:
        raise ValueError(f"{CHECKPOINT_FILE} lacks arrays {', '.join(absent)}; format "
                         f"{CHECKPOINT_FORMAT} holds meta and the arrays {', '.join(_ARRAYS)}")
    # qnet trusts its vectors; these come from outside the program
    for net in (name for name in arrays if name in _NETS):
        theta = members[net]
        if theta.dtype != np.float64 or theta.shape != (qnet.N_PARAMS,):
            raise ValueError(f"{CHECKPOINT_FILE} member {net} is {theta.dtype}"
                             f"{list(theta.shape)}, expected float64[{qnet.N_PARAMS}]")
    return meta


def load_checkpoint(directory, cfg: ExperimentConfig) -> tuple[DoubleQAgent, int]:
    """Restore an agent exactly as saved by save_checkpoint; returns (agent, next_episode).

    Refuses, naming the directory, a checkpoint of another format or KPI
    manifest, a meta that is not a JSON object, one whose step or next
    episode is missing, not a JSON integer or negative, or whose RNG state
    is missing or malformed, a missing or 0-d array member, a network member
    that is not a float64 vector of qnet.N_PARAMS entries, and buffer arrays
    that ReplayBuffer.load refuses: a chained that does not pack next_states,
    actions or episode ids that are not integers, arrays that do not fit the
    replay ring, or a transition the ring's check refuses. The agent's ring
    takes over the buffer arrays that np.load read, each next state still
    stored once: nothing unpacks them or copies a full ring.
    """
    members = _read_npz(os.path.join(directory, CHECKPOINT_FILE))
    try:
        meta = _check_members(members)
        ag = DoubleQAgent(cfg.agent, ReplayBuffer(arrays=members))
        ag.online, ag.target = (members[net] for net in _NETS)
        for name in ("global_step", "next_episode"):
            value = meta[name]
            if type(value) is not int:  # a JSON integer; a bool is not one
                raise ValueError(f"{CHECKPOINT_FILE} meta {name} must be an integer, "
                                 f"got {value!r}")
            if value < 0:
                raise ValueError(f"{CHECKPOINT_FILE} meta {name} must be >= 0, got {value}")
        ag.global_step, next_episode = meta["global_step"], meta["next_episode"]
        ag.rng.bit_generator.state = meta["rng_state"]
        return ag, next_episode
    except KeyError as exc:  # a meta key, or an entry of the RNG state that numpy reads
        raise ValueError(f"{directory}: {CHECKPOINT_FILE} meta lacks {exc.args[0]}") from None
    except (OverflowError, TypeError, ValueError) as exc:  # overflow: an RNG state too large
        raise ValueError(f"{directory}: {exc}") from None


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
    the rest, so resuming into the same out_dir continues one curve; a row
    that does not start with an episode number is refused, naming the file
    and the line, before anything is written.
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
                rows = fh.readlines()[1:]
            for line, row in enumerate(rows, start=2):
                if not row.endswith("\n"):  # torn by a crash mid-write
                    continue
                try:
                    episode = int(row.split(",", 1)[0])
                except ValueError:
                    raise ValueError(f"{curve_path} line {line}: {row.rstrip()!r} does not "
                                     f"start with an episode number") from None
                if episode < start:
                    kept.append(row)
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

    if out_dir is not None:  # a resume past cfg.episodes trains nothing and keeps its count
        save_checkpoint(os.path.join(out_dir, "final"), ag, max(start, cfg.episodes))
    return results, ag


def evaluate_checkpoint(cfg: ExperimentConfig, checkpoint_dir, episodes: int,
                        first_episode: int = 0) -> tuple[float, float]:
    """Greedy (epsilon = 0) evaluation of a saved policy; returns (mean, stderr).

    Only the checkpoint's meta and online members are read, with
    load_checkpoint's refusals of those two: a meta that is not a JSON
    object, another format or KPI manifest, a missing or 0-d online, and an
    online that is not a float64 vector of qnet.N_PARAMS entries, each
    naming the directory. The replay ring and the rest of the learning
    state are left unread.

    run_rows steps the episodes together, in blocks, one row each:
    greedy_options scores a block's states in one pass, each row as act
    would score it alone, so the statistics are those of per-episode
    run_episode calls, bit for bit.
    """
    members = _read_npz(os.path.join(checkpoint_dir, CHECKPOINT_FILE), ("meta", "online"))
    try:
        _check_members(members, ("online",))
    except ValueError as exc:
        raise ValueError(f"{checkpoint_dir}: {exc}") from None
    means = run_rows(cfg, range(first_episode, first_episode + episodes),
                     functools.partial(greedy_options, qnet.layers(members["online"])))
    return episode_stats(means[0])
