"""Command-line entry point: train, baseline, eval, fit-traffic.

Configs are JSON files mirroring ExperimentConfig. Every omitted key takes
its documented default, unknown keys are rejected, and the fully resolved
config is echoed before anything runs so a run can be reproduced from its
own log. Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness
from .agent import AgentConfig
from .harness import ExperimentConfig
from .kpi import KpiConfig
from .sim import SimConfig, UeProfile, fit_traffic_profiles, read_traffic_records


class ConfigError(ValueError):
    pass


_PROFILE_KEYS = {"rsrp_dbm", "demand_mean", "demand_std"}


def _build_section(cls, data: dict, path: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, bool) and f.type in ("float", "int"):
            raise ConfigError(f"{path}.{f.name}: expected a number, got {value!r}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        # name the offending key when the dataclass validator identifies one
        msg = str(exc)
        for f in dataclasses.fields(cls):
            if f.name in msg:
                raise ConfigError(f"{path}.{f.name}: {msg}") from None
        raise ConfigError(f"{path}: {msg}") from None


def _parse_profiles(data, path: str) -> list[UeProfile]:
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list of profile objects")
    profiles = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}[{i}]: expected an object")
        unknown = set(entry) - _PROFILE_KEYS
        if unknown:
            raise ConfigError(f"{path}[{i}].{sorted(unknown)[0]}: unknown key")
        missing = _PROFILE_KEYS - set(entry)
        if missing:
            raise ConfigError(f"{path}[{i}]: missing key {sorted(missing)[0]}")
        try:
            profiles.append(UeProfile(**entry))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}[{i}]: {exc}") from None
    return profiles


_TOP_LEVEL_KEYS = {
    "reward_mode", "episodes", "steps_demand", "steps_rest", "profiles",
    "profiles_file", "agent", "sim", "kpi", "seed", "baseline_episodes",
    "checkpoint_every", "preload_path",
}


def build_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    if "profiles" in data and "profiles_file" in data:
        raise ConfigError("profiles: give either profiles or profiles_file, not both")

    kwargs = {}
    if "profiles" in data:
        kwargs["ue_profiles"] = _parse_profiles(data["profiles"], "profiles")
    elif "profiles_file" in data:
        with open(data["profiles_file"]) as fh:
            kwargs["ue_profiles"] = _parse_profiles(json.load(fh), "profiles_file")
    if "agent" in data:
        kwargs["agent"] = _build_section(AgentConfig, data["agent"], "agent")
    if "sim" in data:
        kwargs["sim"] = _build_section(SimConfig, data["sim"], "sim")
    if "kpi" in data:
        kwargs["kpi"] = _build_section(KpiConfig, data["kpi"], "kpi")
    for key in ("reward_mode", "episodes", "steps_demand", "steps_rest", "seed",
                "baseline_episodes", "checkpoint_every", "preload_path"):
        if key in data:
            kwargs[key] = data[key]
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        msg = str(exc)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in msg:
                raise ConfigError(f"{f.name}: {msg}") from None
        raise ConfigError(msg) from None


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """The fully resolved config as a mapping that build_config accepts again."""
    return {
        "reward_mode": cfg.reward_mode,
        "episodes": cfg.episodes,
        "steps_demand": cfg.steps_demand,
        "steps_rest": cfg.steps_rest,
        "profiles": [dataclasses.asdict(p) for p in cfg.ue_profiles],
        "agent": dataclasses.asdict(cfg.agent),
        "sim": dataclasses.asdict(cfg.sim),
        "kpi": dataclasses.asdict(cfg.kpi),
        "seed": cfg.seed,
        "baseline_episodes": cfg.baseline_episodes,
        "checkpoint_every": cfg.checkpoint_every,
        "preload_path": cfg.preload_path,
    }


def load_config_file(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read().strip()
    data = json.loads(text) if text else {}
    return build_config(data, seed_override=seed_override)


def _echo(cfg: ExperimentConfig) -> None:
    print(json.dumps(resolved_config_dict(cfg), indent=2))


def cmd_train(args) -> int:
    cfg = load_config_file(args.config, seed_override=args.seed)
    _echo(cfg)
    results, _ = harness.train_experiment(cfg, out_dir=args.out,
                                          resume_from=args.resume, verbose=True)
    print(f"wrote {os.path.join(args.out, 'curve.csv')} ({len(results)} episodes)")
    return 0


def cmd_baseline(args) -> int:
    cfg = load_config_file(args.config, seed_override=args.seed)
    _echo(cfg)
    rows = harness.run_baseline_suite(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "baseline.csv")
    harness.write_baseline_csv(path, rows)
    for r in rows:
        print(f"{r.action.name:24s} mean {r.mean_reward:+.4f}  stderr {r.stderr:.4f}")
    print(f"best constant action: {rows[0].action.name}")
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config_file(args.config, seed_override=args.seed)
    _echo(cfg)
    mean, stderr = harness.evaluate_checkpoint(cfg, args.checkpoint, args.episodes)
    report = {"checkpoint": args.checkpoint, "episodes": args.episodes,
              "mean_reward": mean, "stderr": stderr}
    print(json.dumps(report, indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


def cmd_fit_traffic(args) -> int:
    records = read_traffic_records(args.records)
    profiles = fit_traffic_profiles(records, k=args.k, seed=args.seed or 0)
    out = [dataclasses.asdict(p) for p in profiles]
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out, indent=2))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranopt",
        description="Train and evaluate a scheduler-selection agent on a simulated cell.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run training episodes, write curve and checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint directory to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="evaluate the five constant actions")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-traffic", help="cluster session records into UE profiles")
    p.add_argument("--records", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_traffic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
