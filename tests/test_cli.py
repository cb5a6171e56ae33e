import json
import math
import os
import re

import numpy as np
import pytest

from ranopt import harness
from ranopt.agent import AgentConfig
from ranopt.cli import ConfigError, build_config, load_config_file, main, resolved_config_dict
from ranopt.harness import load_checkpoint
from ranopt.kpi import KpiConfig
from ranopt.sim import SimConfig, UeProfile


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SMALL = {"episodes": 2, "steps_demand": 12, "steps_rest": 2,
         "baseline_episodes": 3, "checkpoint_every": 2}


class TestBuildConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = build_config({})
        assert cfg.episodes == 300
        assert cfg.reward_mode == "cell_throughput"
        assert cfg.agent.gamma == 0.95
        assert len(cfg.ue_profiles) == 4

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="gamma_decay"):
            build_config({"gamma_decay": 1})

    def test_unknown_nested_key(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="agent.learningrate"):
            build_config({"agent": {"learningrate": 0.1}})
        # the UE count, the episode framing, the manifest hash, the state
        # bounds and the cell model's constants are not set by a config
        for section, key in [("kpi", "n_ues"), ("kpi", "manifest_sha256"),
                             ("kpi", "volume_bound_mb"), ("sim", "tick_seconds"),
                             ("sim", "prb_megabits"), ("sim", "pf_ema"),
                             ("sim", "pf_floor_mbps"), ("sim", "rf_jitter_rho")]:
            cfg_path = write_config(tmp_path, {section: {key: 1}})
            code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "o")])
            assert code == 1
            assert f"{section}.{key}: unknown key" in capsys.readouterr().err

    def test_gamma_invariant_names_key(self):
        with pytest.raises(ConfigError, match="agent.gamma"):
            build_config({"agent": {"gamma": 1.5}})

    def test_bad_reward_mode(self):
        for mode in ("profit", "spectrum_efficiency"):
            with pytest.raises(ConfigError, match="reward_mode"):
                build_config({"reward_mode": mode})

    def test_bad_baseline_action(self):
        with pytest.raises(ConfigError, match="baseline_action"):
            build_config({"baseline_action": "ROUND_ROBIN"})

    def test_profiles_parsed(self):
        cfg = build_config({"profiles": [
            {"rsrp_dbm": -110.0, "demand_mean": 5.0, "demand_std": 1.0}]})
        assert len(cfg.ue_profiles) == 1

    def test_profile_error_names_entry(self):
        with pytest.raises(ConfigError, match=r"profiles\[0\]"):
            build_config({"profiles": [{"rsrp_dbm": -110.0, "demand_mean": 5.0}]})

    def test_seed_override_wins(self):
        cfg = build_config({"seed": 5}, seed_override=9)
        assert cfg.seed == 9

    def test_resolved_dict_round_trips(self):
        # a value off its default in every section
        cfg = build_config({
            "episodes": 7, "reward_mode": "ue_gap", "preload_path": "run/final",
            "profiles": [{"rsrp_dbm": -110.0, "demand_mean": 5.0, "demand_std": 1.0}],
            "agent": {"n_step": 4}, "sim": {"prb_budget": 50},
            "kpi": {"reward_gap_bound_mbps": 7.5}})
        assert build_config(resolved_config_dict(cfg)) == cfg

    @pytest.mark.parametrize("data, error", [
        ({"episodes": True}, "episodes: expected an integer, got True"),
        ({"episodes": 1.5}, "episodes: expected an integer, got 1.5"),
        ({"seed": "3"}, "seed: expected an integer, got '3'"),
        ({"agent": {"n_step": 2.5}}, "agent.n_step: expected an integer, got 2.5"),
        ({"agent": {"gamma": True}}, "agent.gamma: expected a number, got True"),
        ({"sim": {"prb_budget": False}}, "sim.prb_budget: expected an integer, got False"),
        ({"kpi": {"reward_gap_bound_mbps": None}},
         "kpi.reward_gap_bound_mbps: expected a number, got None"),
        ({"profiles": [{"rsrp_dbm": True, "demand_mean": 5.0, "demand_std": 1.0}]},
         r"profiles\[0\].rsrp_dbm: expected a number, got True"),
        # a path that is not a string: open() would take an integer as a file descriptor
        ({"preload_path": 5}, "preload_path: expected a string or null, got 5"),
        ({"profiles_file": 5}, "profiles_file: expected a string, got 5"),
        ({"sim": {"rf_jitter_std_db": 2}}, None),  # an integer for a float field
        ({"kpi": {"reward_throughput_bound_mbps": 40}}, None),
        # a validator's message names the key as a word: not episodes, a part of its name
        ({"baseline_episodes": 0}, "baseline_episodes: baseline_episodes must be >= 1"),
        # the run's seed is the agent's: the agent section has none of its own
        ({"agent": {"seed": -1}}, "agent.seed: unknown key"),
        # episode_seed keeps 64 bits: 2**70 + 5 would replay seed 5, -1 seed 2**64 - 1
        ({"seed": 2 ** 70 + 5}, rf"seed: seed must lie in \[0, 2\*\*64\), got {2 ** 70 + 5}"),
        ({"seed": -1}, r"seed: seed must lie in \[0, 2\*\*64\), got -1"),
        # JSON files may hold NaN and the infinities; no float field takes them
        ({"profiles": [{"rsrp_dbm": -100, "demand_mean": math.nan, "demand_std": 1}]},
         r"profiles\[0\].demand_mean: expected a finite number, got nan"),
        ({"agent": {"learning_rate": math.inf}},
         "agent.learning_rate: expected a finite number, got inf"),
        ({"sim": {"rf_jitter_std_db": -math.inf}},
         "sim.rf_jitter_std_db: expected a finite number, got -inf"),
        ({"kpi": {"reward_gap_bound_mbps": math.nan}},
         "kpi.reward_gap_bound_mbps: expected a finite number, got nan"),
        ({"kpi": {"reward_throughput_bound_mbps": 10 ** 400}},
         "kpi.reward_throughput_bound_mbps: expected a finite number, got 10{400}"),
    ], ids=["bool_top_level", "float_for_int", "string_for_int", "float_for_nested_int",
            "bool_for_float", "bool_for_nested_int", "null_for_float", "bool_in_profile",
            "int_for_preload_path", "int_for_profiles_file", "int_for_float",
            "int_for_kpi_float", "key_named_by_whole_word", "negative_agent_seed",
            "seed_past_64_bits", "negative_seed", "nan_in_profile", "inf_for_agent_float",
            "minus_inf_for_sim_float", "nan_for_kpi_float", "int_past_float_range"])
    def test_number_fields_checked(self, tmp_path, capsys, data, error):
        cfg_path = write_config(tmp_path, {**SMALL, **data})
        code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if error is None:
            assert code == 0
            (section, values), = data.items()
            cfg = load_config_file(cfg_path)
            assert all(getattr(getattr(cfg, section), k) == v for k, v in values.items())
        else:
            assert code == 1
            assert re.fullmatch(f"error: {error}\n", err)

    # a file that does not decode as UTF-8, and an integer literal of more than
    # 4,300 digits, which json refuses, raise a plain ValueError
    @pytest.mark.parametrize("in_profiles_file, text, error", [
        (False, b'{"seed": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 "),
        (True, b'[{"rsrp_dbm": 1' + b"0" * 5000 + b', "demand_mean": 1, "demand_std": 1}]',
         "Exceeds the limit (4300 "),
        (False, b'{"episodes": 2}\xff', ""),
    ], ids=["oversized_integer", "oversized_integer_in_profiles_file", "not_utf8"])
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, in_profiles_file, text,
                                               error):
        path = tmp_path / "data.json"
        path.write_bytes(text)
        cfg_path = str(path)
        if in_profiles_file:
            cfg_path = write_config(tmp_path, {**SMALL, "profiles_file": cfg_path})
        code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {error}")

    # what the CLI refuses first, the validators refuse too, for callers that build configs
    @pytest.mark.parametrize("make, message", [
        (lambda: AgentConfig(learning_rate=math.nan), "learning_rate must be >= 0"),
        (lambda: SimConfig(rf_jitter_std_db=math.nan), "rf_jitter_std_db must be >= 0"),
        (lambda: KpiConfig(reward_throughput_bound_mbps=math.nan),
         "reward_throughput_bound_mbps must be positive"),
        (lambda: KpiConfig(reward_gap_bound_mbps=math.nan), "reward_gap_bound_mbps must be"),
        (lambda: UeProfile(-100.0, math.nan, 1.0), "demand_mean must be >= 0, got nan"),
        (lambda: UeProfile(-100.0, 1.0, math.nan), "demand_std must be >= 0, got nan"),
    ], ids=["learning_rate", "rf_jitter_std_db", "reward_throughput_bound",
            "reward_gap_bound", "demand_mean", "demand_std"])
    def test_validators_refuse_nan(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestCliCommands:
    def test_baseline_writes_csv_and_names_best(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "best constant action:" in out
        lines = (tmp_path / "out" / "baseline.csv").read_text().splitlines()
        assert lines[0] == "action,mean_reward,stderr,episodes"
        assert len(lines) == 6

    def test_baseline_best_is_max_ci_on_throughput(self, tmp_path):
        cfg_path = write_config(tmp_path, {"baseline_episodes": 6})
        code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 0
        first_row = (tmp_path / "out" / "baseline.csv").read_text().splitlines()[1]
        assert first_row.startswith("MAXIMUM_C_OVER_I,")

    def test_eval_reports_and_modifies_nothing(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg_path, "--out", str(run_dir)])
        snapshot = {p: (run_dir / p).read_bytes()
                    for p in ("curve.csv", "final/checkpoint.npz")}
        code = main(["eval", "--config", cfg_path, "--checkpoint", str(run_dir / "final"),
                     "--episodes", "2", "--out", str(tmp_path / "report")])
        assert code == 0
        report = json.loads((tmp_path / "report" / "eval.json").read_text())
        assert "mean_reward" in report
        for p, content in snapshot.items():
            assert (run_dir / p).read_bytes() == content

    def test_eval_report_names_checkpoint_relative_to_it(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        checkpoint = str(tmp_path / "run" / "final")  # absolute
        main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
        capsys.readouterr()
        report_dir = tmp_path / "reports" / "eval"
        assert main(["eval", "--config", cfg_path, "--checkpoint", checkpoint,
                     "--episodes", "1", "--out", str(report_dir)]) == 0
        out = capsys.readouterr().out
        assert json.loads("{" + out.rsplit("{", 1)[1])["checkpoint"] == checkpoint
        written = json.loads((report_dir / "eval.json").read_text())["checkpoint"]
        assert written == os.path.join("..", "..", "run", "final")
        assert os.path.samefile(report_dir / written, checkpoint)

    def test_eval_refuses_no_episodes_before_loading(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        code = main(["eval", "--config", cfg_path, "--checkpoint", str(tmp_path / "missing"),
                     "--episodes", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --episodes must be >= 1, got 0\n"

    def test_first_episode_runs_the_episodes_from_it(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        cfg = load_config_file(cfg_path)
        main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
        final = tmp_path / "run" / "final"
        csvs, reports = [], []
        for first in ([], ["--first-episode", "0"], ["--first-episode", "5"]):
            out = tmp_path / f"out{len(csvs)}"
            assert main(["baseline", "--config", cfg_path, "--out", str(out)] + first) == 0
            csvs.append((out / "baseline.csv").read_bytes())
            assert main(["eval", "--config", cfg_path, "--checkpoint", str(final),
                         "--episodes", "2", "--out", str(out)] + first) == 0
            reports.append(json.loads((out / "eval.json").read_text()))
        # the default is episode 0, and its report names no first episode
        assert csvs[0] == csvs[1] and csvs[0] != csvs[2]
        assert reports[0] == reports[1] and "first_episode" not in reports[0]
        expected = tmp_path / "expected.csv"
        harness.write_baseline_csv(expected, harness.run_baseline_suite(cfg, first_episode=5))
        assert csvs[2] == expected.read_bytes()
        mean, stderr = harness.evaluate_checkpoint(cfg, final, 2, first_episode=5)
        assert [reports[2][key] for key in ("episodes", "first_episode", "mean_reward",
                                            "stderr")] == [2, 5, mean, stderr]

    @pytest.mark.parametrize("command", ["baseline", "eval"])
    def test_a_negative_first_episode_is_refused_before_any_work(self, tmp_path, capsys,
                                                                  command):
        out = tmp_path / "out"
        argv = [command, "--config", str(tmp_path / "missing.json"), "--out", str(out),
                "--first-episode", "-3"]
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "missing")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: --first-episode must be >= 0, got -3\n")
        assert not out.exists()

    def test_eval_deterministic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg_path, "--out", str(run_dir)])
        means = []
        for _ in range(2):
            main(["eval", "--config", cfg_path, "--checkpoint", str(run_dir / "final"),
                  "--episodes", "2"])
            out = capsys.readouterr().out
            means.append(json.loads("{" + out.rsplit("{", 1)[1])["mean_reward"])
        assert means[0] == means[1]

    def test_train_preloads_an_earlier_runs_final_checkpoint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "earlier")]) == 0
        final = tmp_path / "earlier" / "final"
        preloaded = write_config(tmp_path, {**SMALL, "preload_path": str(final)}, "pre.json")
        assert main(["train", "--config", preloaded, "--out", str(tmp_path / "run")]) == 0
        cfg = load_config_file(cfg_path)
        earlier = list(load_checkpoint(final, cfg)[0].buffer)
        ring = list(load_checkpoint(tmp_path / "run" / "final", cfg)[0].buffer)
        assert len(ring) == 2 * len(earlier)
        for e, r in zip(earlier, ring):  # the earlier run's ids shifted to end at -1
            assert (r.state.tobytes(), r.next_state.tobytes(), r.action, r.reward.hex(),
                    r.episode_id) == (e.state.tobytes(), e.next_state.tobytes(), e.action,
                                      e.reward.hex(), e.episode_id - SMALL["episodes"])
        # the checkpoint file in place of its directory fails as --resume of the file does
        npz = str(final / "checkpoint.npz")
        capsys.readouterr()
        code = main(["train", "--config", write_config(tmp_path, {**SMALL, "preload_path": npz}),
                     "--out", str(tmp_path / "file")])
        err = capsys.readouterr().err
        assert code == 2 and "Not a directory" in err and npz in err

    def test_fit_traffic(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        rows = ["rsrp_dbm,rrc_volume_mb"]
        rng = np.random.default_rng(0)
        for rsrp, vol in ((-120, 100), (-110, 400), (-100, 900), (-90, 2000)):
            rows += [f"{rng.normal(rsrp, 1):.3f},{rng.normal(vol, 10):.3f}" for _ in range(30)]
        records.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "profiles.json"
        code = main(["fit-traffic", "--records", str(records), "--k", "4",
                     "--out", str(out_path)])
        assert code == 0
        profiles = json.loads(out_path.read_text())
        assert len(profiles) == 4
        assert profiles[0]["rsrp_dbm"] < profiles[-1]["rsrp_dbm"]

    def test_fit_traffic_refuses_no_clusters_before_reading(self, tmp_path, capsys):
        code = main(["fit-traffic", "--records", str(tmp_path / "missing.csv"), "--k", "0",
                     "--out", str(tmp_path / "profiles.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: --k must be >= 1, got 0\n"

    def test_fit_traffic_refuses_a_negative_seed_before_reading(self, tmp_path, capsys):
        code = main(["fit-traffic", "--records", str(tmp_path / "missing.csv"), "--seed", "-1",
                     "--out", str(tmp_path / "profiles.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_train_runs_of_one_seed_write_the_same_bytes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        trees = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["train", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert sorted(trees[0]) == ["checkpoints/ep_0002/checkpoint.npz", "curve.csv",
                                    "final/checkpoint.npz"]
        assert trees[0] == trees[1]

    def test_fit_traffic_profiles_usable_in_config(self, tmp_path):
        profiles = [{"rsrp_dbm": -110.0, "demand_mean": 500.0, "demand_std": 100.0},
                    {"rsrp_dbm": -95.0, "demand_mean": 1500.0, "demand_std": 300.0}]
        pf = tmp_path / "profiles.json"
        pf.write_text(json.dumps(profiles))
        cfg = build_config({"profiles_file": str(pf)})
        assert len(cfg.ue_profiles) == 2

    def test_validation_error_exit_code_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"agent": {"gamma": 2.0}})
        code = main(["baseline", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "agent.gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("command, work", [
        (["baseline"], "run_baseline_suite"),
        (["eval", "--checkpoint", "ck", "--episodes", "1"], "evaluate_checkpoint"),
    ], ids=["baseline", "eval"])
    def test_out_that_is_a_file_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        command, work):
        import ranopt.harness as hn

        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(hn, work, refuse)
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "outfile"
        out.write_text("not a directory")
        code = main([command[0], "--config", cfg_path, "--out", str(out), *command[1:]])
        assert code == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert out.read_text() == "not a directory"

    def test_runtime_error_exit_code_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        code = main(["eval", "--config", cfg_path, "--checkpoint",
                     str(tmp_path / "missing"), "--episodes", "1"])
        assert code == 2

    def test_resume_refuses_a_curve_row_without_an_episode_number(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        curve = out / "curve.csv"
        curve.write_text(curve.read_text() + "x garbage\n")  # after the header and 2 rows
        files = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        capsys.readouterr()
        code = main(["train", "--config", cfg_path, "--out", str(out),
                     "--resume", str(out / "checkpoints" / "ep_0002")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {curve} line 4: 'x garbage' does not start with an episode number\n")
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files

    def test_echo_refeed_reproduces_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")])
        echo = capsys.readouterr().out
        resolved = json.loads(echo[:echo.index("\n{") + 1] if False else echo[:echo.rindex("}") + 1])
        cfg2 = write_config(tmp_path, resolved, name="resolved.json")
        main(["train", "--config", cfg2, "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a" / "curve.csv").read_bytes() == (tmp_path / "b" / "curve.csv").read_bytes()

    def test_empty_config_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config_file(path)
        assert cfg.episodes == 300
