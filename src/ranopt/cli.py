"""Command-line entry point: train, baseline, eval, fit-traffic.

Configs are JSON files mirroring ExperimentConfig. Every omitted key takes
its documented default, unknown keys are rejected, and the fully resolved
config is echoed before anything runs so a run can be reproduced from its
own log. A checkpoint is a directory holding one checkpoint.npz: train
--resume, eval --checkpoint and a config's preload_path each name one.
Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from . import harness
from .harness import ExperimentConfig
from .sim import UeProfile, fit_traffic_profiles, read_traffic_records


class ConfigError(ValueError):
    pass


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


# A field's annotation -> the JSON values it takes, and their name in an error.
_ACCEPTS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
            "str": (str, "a string"), "str | None": ((str, type(None)), "a string or null")}


def _check_value(f: dataclasses.Field, value, key: str) -> None:
    """Refuse a value not of the field's annotated type; a bool is no number,
    and NaN, an infinity (JSON files may hold them) or an integer past a
    float's range no float."""
    accepts = _ACCEPTS.get(f.type)
    if accepts and (isinstance(value, bool) or not isinstance(value, accepts[0])):
        raise ConfigError(f"{key}: expected {accepts[1]}, got {value!r}")
    try:
        finite = f.type != "float" or math.isfinite(value)
    except OverflowError:  # an integer too large to convert to a float
        finite = False
    if not finite:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")


def _build_section(cls, data, path: str, **parsed):
    """A cls from its config mapping, whose keys are the names of cls's fields.

    A field holding a config dataclass (agent, sim, kpi) is a nested mapping.
    The fields named in parsed are no keys of the mapping: they take the value
    given there, or their default where it is None.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = [f for f in dataclasses.fields(cls) if f.name not in parsed]
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{_key(path, sorted(unknown)[0])}: unknown key")
    kwargs = {name: value for name, value in parsed.items() if value is not None}
    for f in fields:
        key = _key(path, f.name)
        if f.name not in data:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{path}: missing key {f.name}")
        elif dataclasses.is_dataclass(f.default_factory):
            kwargs[f.name] = _build_section(f.default_factory, data[f.name], key)
        else:
            _check_value(f, data[f.name], key)
            kwargs[f.name] = data[f.name]
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        # name the offending key when the dataclass validator names one as a word
        msg = str(exc)
        for f in dataclasses.fields(cls):
            if re.search(rf"\b{f.name}\b", msg):
                raise ConfigError(f"{_key(path, f.name)}: {msg}") from None
        raise ConfigError(f"{path}: {msg}" if path else msg) from None


def _parse_profiles(data, path: str) -> list[UeProfile]:
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{path}: expected a non-empty list of profile objects")
    return [_build_section(UeProfile, entry, f"{path}[{i}]") for i, entry in enumerate(data)]


def _read_json(path):
    """A JSON file's value, {} for an empty one; refuses, naming it, one not UTF-8 JSON."""
    try:
        with open(path) as fh:
            text = fh.read().strip()
        return json.loads(text) if text else {}
    except ValueError as exc:  # not UTF-8 or not JSON, or an integer past int()'s digit limit
        raise ConfigError(f"{path}: {exc}") from None


def build_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig.

    Its keys are ExperimentConfig's field names, except that ue_profiles is
    given as profiles, a list of profile objects, or as profiles_file, the
    path of a JSON file holding one.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "profiles" in data and "profiles_file" in data:
        raise ConfigError("profiles: give either profiles or profiles_file, not both")
    data = dict(data)
    profiles = None
    if "profiles" in data:
        profiles = _parse_profiles(data.pop("profiles"), "profiles")
    elif "profiles_file" in data:
        if not isinstance(path := data.pop("profiles_file"), str):  # not a file descriptor
            raise ConfigError(f"profiles_file: expected a string, got {path!r}")
        profiles = _parse_profiles(_read_json(path), "profiles_file")
    if seed_override is not None:
        data["seed"] = seed_override
    return _build_section(ExperimentConfig, data, "", ue_profiles=profiles)


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    """The fully resolved config as a mapping that build_config accepts again."""
    return {"profiles" if name == "ue_profiles" else name: value
            for name, value in dataclasses.asdict(cfg).items()}


def load_config_file(path, seed_override: int | None = None) -> ExperimentConfig:
    return build_config(_read_json(path), seed_override=seed_override)


def _load_and_echo(args) -> ExperimentConfig:
    """The config of --config and --seed, echoed before anything runs."""
    cfg = load_config_file(args.config, seed_override=args.seed)
    print(json.dumps(resolved_config_dict(cfg), indent=2))
    return cfg


def cmd_train(args) -> int:
    cfg = _load_and_echo(args)
    results, _ = harness.train_experiment(cfg, out_dir=args.out,
                                          resume_from=args.resume, verbose=True)
    print(f"wrote {os.path.join(args.out, 'curve.csv')} ({len(results)} episodes)")
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_and_echo(args)
    os.makedirs(args.out, exist_ok=True)  # an --out that is a file is refused before the suite runs
    rows = harness.run_baseline_suite(cfg)
    path = os.path.join(args.out, "baseline.csv")
    harness.write_baseline_csv(path, rows)
    for r in rows:
        print(f"{r.action.name:24s} mean {r.mean_reward:+.4f}  stderr {r.stderr:.4f}")
    print(f"best constant action: {rows[0].action.name}")
    print(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    cfg = _load_and_echo(args)
    if args.out:  # an --out that is a file is refused before the checkpoint is read
        os.makedirs(args.out, exist_ok=True)
    mean, stderr = harness.evaluate_checkpoint(cfg, args.checkpoint, args.episodes)
    report = {"checkpoint": args.checkpoint, "episodes": args.episodes,
              "mean_reward": mean, "stderr": stderr}
    print(json.dumps(report, indent=2))
    if args.out:
        # relative to the report, so the file does not depend on where the tree lives
        report["checkpoint"] = os.path.relpath(args.checkpoint, args.out)
        with open(os.path.join(args.out, "eval.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


def cmd_fit_traffic(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    records = read_traffic_records(args.records)
    profiles = fit_traffic_profiles(records, k=args.k, seed=args.seed)
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
    run_seed = "the run's seed, in place of the config's: it seeds the episodes"

    p = sub.add_parser("train", help="run training episodes, write curve and checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=run_seed + ", the agent's initial networks and its exploration")
    p.add_argument("--resume", default=None, help="checkpoint directory to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="evaluate the five constant actions")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help=run_seed)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=10,
                   help="evaluate episodes 0..N-1, the first episodes a training run trains "
                        "on; they are evaluated together, in blocks of up to "
                        f"{harness.BASELINE_BLOCK_EPISODES} episodes, one row each")
    p.add_argument("--seed", type=int, default=None, help=run_seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-traffic", help="cluster session records into UE profiles")
    p.add_argument("--records", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="seeds the k-means++ initial centers")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_traffic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
