#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the outputs every workload must reproduce.

    python3 perfbench/make_reference.py

For each of run.REFERENCE_SEEDS input seeds, one invocation of each workload
runs through the CLI and its outputs are recorded: each option's mean reward
for baseline_suite (checked bit for bit) and the mean reward of train_resume
and eval_greedy (checked within run.REWARD_TOL). Regenerate only for a change
that is meant to alter outputs, and say so in CHANGES.md.
"""

import json
import shutil
import sys

import run


def main() -> int:
    reference = {"python": run.platform.python_version(), "numpy": run.np.__version__,
                 "manifest_sha256": run.kpi.MANIFEST_SHA256}
    work = run.WORK / "reference"
    try:
        for workload, spec in run.SPECS.items():
            reference[workload] = {}
            for seed in range(run.REFERENCE_SEEDS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                run.write_config(work / "config.json", workload, seed)
                fx, _ = run.set_up(workload, seed, work / "config.json", work / "warm")
                out = work / "out"
                code, _, err = run.invoke(spec.argv(fx, out))
                if code != 0:
                    raise RuntimeError(f"{workload} seed {seed} exited {code}: {err.strip()}")
                reference[workload][str(seed)] = spec.summarize(out)
                print(f"{workload} seed {seed}: {reference[workload][str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
