#!/usr/bin/env python3
"""End-to-end benchmark of the ranopt closed loop, driven through its CLI.

    python3 perfbench/run.py --workload train_resume --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 25 --trace 0

Each workload calls ``ranopt.cli.main`` in this process with a config the
benchmark writes, repeats that one invocation until ``--seconds`` are used,
and checks every invocation's outputs. The last line of standard output is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics of
a traced run with ``--trace 1``. perfbench/README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import os

# The networks are 32x58 matrices on a small host: extra BLAS or OpenMP
# threads add noise, not speed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if not (SRC / "ranopt" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ranopt source at {SRC / 'ranopt'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ranopt import agent, cli, harness, kpi, qnet, sim  # noqa: E402
from tracing import Tracer, percentile  # noqa: E402

WORKLOADS = {
    "baseline_suite": "all five constant scheduler options on shared episode seeds: "
                      "scheduler and KPI code only, no agent, network or checkpoint",
    "train_resume": "resumed training with a full replay buffer at the epsilon floor: "
                    "learner and checkpoint saves dominate a tick",
    "eval_greedy": "greedy evaluation of the set-up checkpoint: one load, single-state "
                   "forward, a mix of scheduler options; reads the agent, never writes it",
}

BASELINE_EPISODES = 2   # per option and invocation
TRAIN_EPISODES = 10     # one checkpoint cadence per invocation
EVAL_EPISODES = 10
WARM_EPISODES = 63      # 63 x 80 = 5,040 transitions: the 5,000-entry buffer is full
# Seed n runs the inputs of seed n % REFERENCE_SEEDS; reference.json holds the
# outputs of each of those seeds.
REFERENCE_SEEDS = 32
# Allowed |mean reward - reference| where a change may reorder float sums.
REWARD_TOL = 0.01
# Set-up is repeated and its median reported; checkpoint set-ups are also
# compared byte for byte.
SETUP_REPEATS = 5
# Seconds the calibration kernel takes on the reference host (the 2-vCPU host
# this benchmark was written on, at its least contended); see host_factor.
CALIBRATION_REFERENCE_S = 0.0065

OPTIONS = [o.name for o in sim.SchedulerOption]

END_TO_END = {"ticks_per_s": "ticks/s", "setup_s": "s", "disk_mb": "MB", "peak_rss_mb": "MB"}

_KIND_UNITS = {"calls": "count", "us_p50": "us", "us_p99": "us", "ms_p50": "ms",
               "ms_p99": "ms", "ms": "ms", "self_s": "s"}
# Values recorded by trace hooks: name -> (unit, reduction over the samples).
_GAUGES = {
    "sim.prb_utilization": ("fraction", statistics.fmean),
    "agent.buffer_len": ("count", max),
    "harness.save_checkpoint.bytes": ("bytes", statistics.median),
}
_TRACE_FRACTIONS = ("trace.overhead_frac", "trace.accounted_frac")


def _span_metrics(span: str, *kinds: str) -> list[str]:
    return [f"{span}.{kind}" for kind in kinds]


PER_LAYER = [
    *_span_metrics("sim.step", "calls", "us_p50", "us_p99", "self_s"),
    *[m for o in OPTIONS for m in _span_metrics(f"sim.schedule_prbs.{o}", "calls", "us_p50", "us_p99")],
    "sim.prb_utilization",
    *_span_metrics("kpi.compose_kpis", "calls", "us_p50", "us_p99", "self_s"),
    *_span_metrics("kpi.reward", "calls", "us_p50"),
    *_span_metrics("agent.train_step", "calls", "ms_p50", "ms_p99", "self_s"),
    *_span_metrics("agent.can_train", "calls", "us_p50"),
    "agent.sample_segments.us_p50",
    *_span_metrics("qnet.backward", "calls", "us_p50"),
    *_span_metrics("qnet.forward_batch", "calls", "us_p50"),
    "qnet.apply_gradient.us_p50",
    "qnet.soft_update.us_p50",
    "agent.observe.us_p50",
    *_span_metrics("agent.act", "calls", "us_p50", "us_p99"),
    *_span_metrics("qnet.forward", "calls", "us_p50"),
    *_span_metrics("harness.save_checkpoint", "calls", "ms_p50", "bytes"),
    *_span_metrics("qnet.save_params", "calls", "ms_p50"),
    "agent.write_experience_csv.ms_p50",
    *_span_metrics("harness.load_checkpoint", "calls", "ms_p50"),
    *_span_metrics("qnet.load_params", "calls", "ms_p50"),
    "agent.read_experience_csv.ms_p50",
    "agent.buffer_len",
    *_span_metrics("harness.run_episode", "calls", "ms_p50", "self_s"),
    "cli.load_config_file.ms",
    *_TRACE_FRACTIONS,
]


def metric_unit(name: str) -> str:
    if name in _GAUGES:
        return _GAUGES[name][0]
    if name in _TRACE_FRACTIONS:
        return "fraction"
    return _KIND_UNITS[name.rsplit(".", 1)[1]]


# --- bookkeeping -----------------------------------------------------------------


class Ledger:
    """Operations attempted and failed: episodes, checkpoint saves and loads, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


def _files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*") if p.is_file())


def tree_size(directory: Path) -> int:
    """Bytes in the regular files under a directory (0 when it does not exist)."""
    return sum(p.stat().st_size for p in _files(directory)) if directory.is_dir() else 0


def tree_digest(directory: Path) -> dict[str, str]:
    """Relative path -> sha256 of each file under a directory."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in _files(directory)}


def same_value(a, b) -> bool:
    """Bitwise equality through arrays, dataclasses, mappings and sequences."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(same_value(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same_value(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def agent_state(ag) -> tuple:
    return ag.online, ag.target, list(ag.buffer), ag.rng.bit_generator.state, ag.global_step


def _in_unit_range(x: float) -> bool:
    return math.isfinite(x) and -1.0 <= x <= 1.0


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- set-up ----------------------------------------------------------------------


@dataclasses.dataclass
class Fixture:
    workload: str
    work: Path
    config_path: Path
    cfg: harness.ExperimentConfig
    checkpoint: Path | None


def write_config(path: Path, workload: str, seed: int) -> None:
    """The config a user would write: defaults plus the workload's run length."""
    data = {"seed": seed}
    if workload == "baseline_suite":
        data["baseline_episodes"] = BASELINE_EPISODES
    elif workload == "train_resume":
        data["episodes"] = WARM_EPISODES + TRAIN_EPISODES
    path.write_text(json.dumps(data))


def warm_experiences(seed: int, steps: int) -> list[agent.Experience]:
    """Synthetic replay history from the seed: WARM_EPISODES episodes of `steps`
    transitions, states in [0, 1]^58 chained within an episode, rewards in [-1, 1].

    train_step's cost does not depend on state values, and real rollouts would
    add ~10 s to every set-up.
    """
    rng = np.random.default_rng([seed, 58])
    records = []
    for ep in range(WARM_EPISODES):
        states = rng.random((steps + 1, qnet.STATE_DIM))
        actions = rng.integers(0, qnet.N_ACTIONS, size=steps)
        rewards = rng.uniform(-1.0, 1.0, size=steps)
        records += [agent.Experience(state=states[t], action=int(actions[t]),
                                     reward=float(rewards[t]), next_state=states[t + 1],
                                     episode_id=ep)
                    for t in range(steps)]
    return records


def build_warm_checkpoint(directory: Path, cfg, seed: int) -> None:
    """A checkpoint as after WARM_EPISODES training episodes, built from public calls."""
    ag = agent.DoubleQAgent(cfg.agent)
    agent.preload(ag.buffer, warm_experiences(seed, cfg.steps_demand))
    # one act per demand step: epsilon reaches its floor after ~2,300 steps
    ag.global_step = WARM_EPISODES * cfg.steps_demand
    harness.save_checkpoint(str(directory), ag, WARM_EPISODES)


def start_program() -> None:
    """What every ranopt command pays first: a fresh interpreter importing the CLI."""
    # no timeout: with one, subprocess polls the child every 50 ms and the
    # measured time snaps to that grid
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import ranopt.cli"], check=True)


def set_up(workload: str, seed: int, config_path: Path, checkpoint: Path) -> tuple[Fixture, float]:
    """One timed set-up: program start-up, config parsing and, for the agent
    workloads, the warm checkpoint. Writing the config file is the user's part
    and is not timed."""
    t0 = time.perf_counter()
    start_program()
    cfg = cli.load_config_file(config_path)
    if workload == "baseline_suite":
        checkpoint = None
    else:
        build_warm_checkpoint(checkpoint, cfg, seed)
    fx = Fixture(workload, config_path.parent, config_path, cfg, checkpoint)
    return fx, time.perf_counter() - t0


class SetUps:
    """The run's set-up, and SETUP_REPEATS - 1 repeats spread over the run.

    Other tenants of the host slow it for tens of seconds at a time, so
    repeats taken back to back all see one moment; spread out, their median
    sees the run. Each repeated checkpoint must equal the first byte for byte.
    """

    def __init__(self, workload: str, seed: int, work: Path, ledger: Ledger):
        self.workload, self.seed, self.work, self.ledger = workload, seed, work, ledger
        config_path = work / "config.json"
        write_config(config_path, workload, seed)
        self.fixture, first = set_up(workload, seed, config_path, work / "warm_0")
        self.times = [first]
        self.digest = tree_digest(self.fixture.checkpoint) if self.fixture.checkpoint else None

    def repeat_if_due(self, share_of_run: float) -> None:
        """Repeat once if the run is far enough along for the next repeat."""
        if len(self.times) < SETUP_REPEATS and share_of_run >= len(self.times) / SETUP_REPEATS:
            fx, seconds = set_up(self.workload, self.seed, self.fixture.config_path,
                                 self.work / f"warm_{len(self.times)}")
            self.times.append(seconds)
            if fx.checkpoint is not None:
                self.ledger.record("set-up checkpoints of one seed are byte-identical",
                                   tree_digest(fx.checkpoint) == self.digest)
                shutil.rmtree(fx.checkpoint)

    def finish(self) -> float:
        """Take the repeats still missing; returns the median set-up time."""
        while len(self.times) < SETUP_REPEATS:
            self.repeat_if_due(1.0)
        return statistics.median(self.times)


# --- workloads -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    argv: object      # (fixture, out dir) -> CLI arguments
    episodes: int     # episodes one invocation runs
    summarize: object  # out dir -> the outputs reference.json records
    check: object     # (fixture, exit code, out dir, reference, ledger, trained agent) -> None


def _baseline_argv(fx: Fixture, out: Path) -> list[str]:
    return ["baseline", "--config", str(fx.config_path), "--out", str(out)]


def _baseline_summary(out: Path) -> dict[str, str]:
    return {r["action"]: repr(float(r["mean_reward"])) for r in _read_csv(out / "baseline.csv")}


def _check_baseline(fx, code, out, reference, ledger, trained) -> None:
    ledger.record("baseline exits 0", code == 0)
    ledger.record("baseline episodes", code == 0, count=len(OPTIONS) * BASELINE_EPISODES)
    rows = _read_csv(out / "baseline.csv")
    ledger.record("baseline.csv has one row per option, each over every episode",
                  sorted(r["action"] for r in rows) == sorted(OPTIONS)
                  and all(int(r["episodes"]) == BASELINE_EPISODES for r in rows))
    means = _baseline_summary(out)
    for name in OPTIONS:
        mean = float(means.get(name, "nan"))
        ledger.record(f"{name} mean reward is finite and in [-1, 1]", _in_unit_range(mean))
        # allocations are integers, so an exact scheduler keeps every bit
        ledger.record(f"{name} mean reward is bit-equal to its reference",
                      mean.hex() == float(reference[name]).hex())


def _train_argv(fx: Fixture, out: Path) -> list[str]:
    return ["train", "--config", str(fx.config_path), "--out", str(out),
            "--resume", str(fx.checkpoint)]


def _train_summary(out: Path) -> str:
    return repr(statistics.fmean(float(r["mean_reward"]) for r in _read_csv(out / "curve.csv")))


def _check_train(fx, code, out, reference, ledger, trained) -> None:
    first, end = WARM_EPISODES, WARM_EPISODES + TRAIN_EPISODES
    ledger.record("train exits 0", code == 0)
    ledger.record("checkpoint load on resume", code == 0)
    rows = _read_csv(out / "curve.csv")
    ledger.record("curve.csv has one row per episode",
                  [int(r["episode"]) for r in rows] == list(range(first, end)))
    by_episode = {int(r["episode"]): r for r in rows}
    for ep in range(first, end):
        row = by_episode.get(ep)
        ok = (row is not None and _in_unit_range(float(row["mean_reward"]))
              and all(math.isfinite(float(row[k])) for k in ("stderr", "epsilon_end", "mean_td_error")))
        ledger.record(f"episode {ep} statistics are finite, reward in [-1, 1]", ok)
    saves = [f"checkpoints/ep_{e:04d}" for e in range(first + 1, end + 1)
             if e % fx.cfg.checkpoint_every == 0] + ["final"]
    for name in saves:
        ledger.record(f"checkpoint save {name}", (out / name).is_dir() and any((out / name).iterdir()))
    ledger.record("mean reward within tolerance of its reference",
                  abs(float(_train_summary(out)) - float(reference)) <= REWARD_TOL)
    if trained is not None:
        loaded, next_episode = harness.load_checkpoint(str(out / "final"), fx.cfg)
        ledger.record("checkpoint load of the final checkpoint", True)
        ledger.record("final checkpoint reloads networks, buffer, RNG state and global_step bitwise",
                      next_episode == end and same_value(agent_state(loaded), agent_state(trained)))


def _eval_argv(fx: Fixture, out: Path) -> list[str]:
    return ["eval", "--config", str(fx.config_path), "--checkpoint", str(fx.checkpoint),
            "--episodes", str(EVAL_EPISODES), "--out", str(out)]


def _eval_summary(out: Path) -> str:
    return repr(float(json.loads((out / "eval.json").read_text())["mean_reward"]))


def _check_eval(fx, code, out, reference, ledger, trained) -> None:
    ledger.record("eval exits 0", code == 0)
    ledger.record("checkpoint load", code == 0)
    ledger.record("eval episodes", code == 0, count=EVAL_EPISODES)
    report = json.loads((out / "eval.json").read_text())
    ledger.record("eval.json covers every episode", report["episodes"] == EVAL_EPISODES)
    mean, stderr = float(report["mean_reward"]), float(report["stderr"])
    ledger.record("eval mean reward is finite and in [-1, 1], stderr finite",
                  _in_unit_range(mean) and math.isfinite(stderr) and stderr >= 0)
    ledger.record("eval mean reward within tolerance of its reference",
                  abs(mean - float(reference)) <= REWARD_TOL)


SPECS = {
    "baseline_suite": Workload(_baseline_argv, len(OPTIONS) * BASELINE_EPISODES,
                               _baseline_summary, _check_baseline),
    "train_resume": Workload(_train_argv, TRAIN_EPISODES, _train_summary, _check_train),
    "eval_greedy": Workload(_eval_argv, EVAL_EPISODES, _eval_summary, _check_eval),
}


def invoke(argv: list[str]) -> tuple[int, float, str]:
    """Run the CLI in this process; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


def run_invocation(fx: Fixture, out: Path, reference, ledger: Ledger,
                   check_reload: bool = False, tracer: Tracer | None = None) -> float:
    """One CLI invocation plus its output checks; returns its wall seconds.

    With check_reload, the agent that training returns is kept so that the
    final checkpoint can be compared with it.
    """
    spec = SPECS[fx.workload]
    trained = []
    capture = []
    if check_reload and fx.workload == "train_resume":
        capture = [(harness, "train_experiment", "capture",
                    {"hook": lambda _t, _a, _k, result: trained.append(result[1])})]
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched(trace_targets()))
        stack.enter_context(Tracer().patched(capture))
        code, elapsed, err = invoke(spec.argv(fx, out))
    if code != 0:
        print(f"perfbench: {fx.workload} exited {code}: {err.strip()}", file=sys.stderr)
    try:
        spec.check(fx, code, out, reference, ledger, trained[0] if trained else None)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ledger.record(f"{fx.workload} outputs are readable: {exc!r}", False)
    return elapsed


# --- tracing ---------------------------------------------------------------------


def _schedule_span(args, kwargs) -> str:
    option = args[0] if args else kwargs["option"]
    return f"sim.schedule_prbs.{sim.SchedulerOption(option).name}"


def _on_step(tracer, args, kwargs, result) -> None:
    tracer.gauge("sim.prb_utilization", result[1].prb_utilization)


def _on_save(tracer, args, kwargs, result) -> None:
    tracer.gauge("harness.save_checkpoint.bytes", tree_size(Path(args[0])))
    tracer.gauge("agent.buffer_len", len(args[1].buffer))


def _on_load(tracer, args, kwargs, result) -> None:
    tracer.gauge("agent.buffer_len", len(result[0].buffer))


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name, options) for every traced layer boundary.

    Each attribute is patched where its caller looks it up: harness imports
    step, compose_kpis and the rewards by name, sim.step finds schedule_prbs
    in sim's globals, and agent and harness call qnet and agent functions
    through the module. Names that do not exist (a later change may delete
    one) are skipped and report zero calls.
    """
    plain = [
        ("cli", cli, ["main", "cmd_train", "cmd_baseline", "cmd_eval", "load_config_file"]),
        ("harness", harness, ["train_experiment", "run_baseline_suite", "evaluate_checkpoint",
                              "run_episode"]),
        ("agent", agent.DoubleQAgent, ["act", "observe", "can_train", "train_step"]),
        ("agent", agent, ["sample_segments", "preload", "write_experience_csv",
                          "read_experience_csv"]),
        ("qnet", qnet, ["forward", "forward_batch", "backward", "apply_gradient", "soft_update",
                        "save_params", "load_params"]),
    ]
    targets = [(owner, attr, f"{prefix}.{attr}", {})
               for prefix, owner, attrs in plain for attr in attrs]
    targets += [
        (harness, "save_checkpoint", "harness.save_checkpoint", {"hook": _on_save}),
        (harness, "load_checkpoint", "harness.load_checkpoint", {"hook": _on_load}),
        (harness, "init_cell_state", "sim.init_cell_state", {}),
        (harness, "step", "sim.step", {"hook": _on_step}),
        (sim, "schedule_prbs", "sim.schedule_prbs", {"name_from_args": _schedule_span}),
        (harness, "compose_kpis", "kpi.compose_kpis", {}),
        (harness, "reward_throughput", "kpi.reward", {}),
        (harness, "reward_ue_gap", "kpi.reward", {}),
    ]
    return [t for t in targets if hasattr(t[0], t[1])]


def layer_metrics(tracer: Tracer, invocations: int, fractions: dict[str, float]) -> dict:
    """Every PER_LAYER metric; counts and self times are per invocation."""
    spans = tracer.by_name()
    metrics = {}
    for name in PER_LAYER:
        if name in fractions:
            value = fractions[name]
        elif name in _GAUGES:
            samples = tracer.gauges.get(name)
            value = _GAUGES[name][1](samples) if samples else 0
        else:
            span, kind = name.rsplit(".", 1)
            durations, self_s = spans.get(span, (np.empty(0), 0.0))
            if kind == "calls":
                value = durations.size // invocations if durations.size % invocations == 0 \
                    else durations.size / invocations
            elif kind == "self_s":
                value = self_s / invocations
            else:
                scale = 1e6 if kind.startswith("us") else 1e3
                value = percentile(durations, 99 if kind.endswith("p99") else 50) * scale
        metrics[name] = {"value": value, "unit": metric_unit(name)}
    return metrics


# --- runs ------------------------------------------------------------------------


def calibration_seconds() -> float:
    """Wall time of a fixed CPU-bound kernel that mixes interpreter work with
    small numpy calls, as the simulator's per-PRB loops do.

    The garbage collector is off while it runs: a collection would walk the
    program's live objects and tie the kernel's time to the program's heap.
    """
    x = np.arange(4.0)
    acc = 0.0
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(2000):
            acc += float(np.argmin(np.where(x > i % 4, x, np.inf))) + i * 0.5
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_factor(calibrations: list[float]) -> float:
    """How much slower the host ran than the reference host over this run.

    Other tenants slow this single-threaded, CPU-bound loop by 20 to 60% for
    minutes at a time, invisibly to the process (its CPU time tracks wall
    time). The calibration kernel runs before and after every invocation, so
    the median of its times sees the same spells as the median invocation.
    """
    return statistics.median(calibrations) / CALIBRATION_REFERENCE_S


def _time_left(start: float, seconds: float, rounds: int) -> bool:
    """Whether one more round, at the mean round time so far, ends within seconds."""
    used = time.perf_counter() - start
    return used + used / rounds <= seconds


def warm_up(fx: Fixture, reference, ledger: Ledger) -> None:
    """One checked, untimed invocation: the first in a process pays for growing
    the heap and warming caches, which the timed ones then share. It also
    checks that the final checkpoint reloads the trained agent exactly."""
    out = fx.work / "warm_up"
    run_invocation(fx, out, reference, ledger, check_reload=True)
    shutil.rmtree(out, ignore_errors=True)


def timed_run(setups: SetUps, seconds: float, reference, ledger: Ledger) -> dict:
    """Untraced invocations until the time is used, each between two
    calibrations; times are scaled to the reference host."""
    fx = setups.fixture
    ticks = SPECS[fx.workload].episodes * (fx.cfg.steps_demand + fx.cfg.steps_rest)
    rates, disk, calibrations = [], [], []
    warm_up(fx, reference, ledger)
    start = time.perf_counter()
    while True:
        out = fx.work / "out"
        calibrations.append(calibration_seconds())
        elapsed = run_invocation(fx, out, reference, ledger)
        calibrations.append(calibration_seconds())
        rates.append(ticks / elapsed)
        disk.append(tree_size(out))
        shutil.rmtree(out, ignore_errors=True)
        setups.repeat_if_due((time.perf_counter() - start) / seconds)
        if not _time_left(start, seconds, len(rates)):
            break
    setup_s = setups.finish()
    factor = host_factor(calibrations)
    print(f"invocations {len(rates)}, host factor {factor!r}: as measured, ticks_per_s median "
          f"{statistics.median(rates)!r} (min {min(rates)!r}, max {max(rates)!r}), "
          f"setup_s {setup_s!r}")
    return {"ticks_per_s": statistics.median(rates) * factor, "setup_s": setup_s / factor,
            "disk_mb": statistics.median(disk) / 1e6}


def traced_run(setups: SetUps, seconds: float, reference, ledger: Ledger) -> dict:
    """Pairs of one untraced and one traced invocation until the time is used.

    Per-layer figures come from the traced invocations. The tracing overhead
    is the median ratio within a pair, whose two halves see the same host.
    """
    fx = setups.fixture
    tracer = Tracer()
    plain_s, traced_s = [], []
    warm_up(fx, reference, ledger)
    start = time.perf_counter()
    while True:
        plain_out, traced_out = fx.work / "plain", fx.work / "traced"
        plain_s.append(run_invocation(fx, plain_out, reference, ledger))
        traced_s.append(run_invocation(fx, traced_out, reference, ledger, tracer=tracer))
        ledger.record("traced outputs equal untraced outputs",
                      tree_digest(plain_out) == tree_digest(traced_out))
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)
        setups.repeat_if_due((time.perf_counter() - start) / seconds)
        if not _time_left(start, seconds, len(plain_s)):
            break
    setups.finish()
    fractions = {"trace.overhead_frac": statistics.median(
                     t / p for t, p in zip(traced_s, plain_s)) - 1.0,
                 "trace.accounted_frac": tracer.top_level_seconds() / sum(traced_s)}
    return layer_metrics(tracer, len(traced_s), fractions)


def environment(cfg) -> dict:
    config_text = json.dumps(cli.resolved_config_dict(cfg), sort_keys=True)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "manifest_sha256": kpi.MANIFEST_SHA256,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def load_reference(workload: str, seed: int):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload][str(seed)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    program_seed = seed % REFERENCE_SEEDS
    reference = load_reference(workload, program_seed)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        setups = SetUps(workload, program_seed, work, ledger)
        print(f"workload {workload} seed {seed} (inputs of seed {program_seed}) "
              f"seconds {seconds:g} trace {int(trace)}")
        print("environment " + json.dumps(environment(setups.fixture.cfg), sort_keys=True))
        if trace:
            metrics = traced_run(setups, seconds, reference, ledger)
        else:
            figures = timed_run(setups, seconds, reference, ledger)
            # ru_maxrss is in KiB on Linux
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = {name: {"value": figures[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r} {m['unit']}")
    error_rate = ledger.failed / ledger.attempted
    print(f"{'error_rate':40s} {error_rate!r} fraction ({ledger.failed} of {ledger.attempted} ops failed)")
    for what in ledger.failures:
        print(f"perfbench: failed: {what}", file=sys.stderr)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process so peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
