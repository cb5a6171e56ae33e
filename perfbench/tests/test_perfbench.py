"""Tests of the benchmark's own code: span arithmetic, patching, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from ranopt import agent, harness, qnet, sim  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_toy_call_tree(self):
        # a(0..10) calls b(1..4), which calls c(2..3); then a calls d(5..9)
        tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
        c = tracer.wrap(lambda: None, "c")
        b = tracer.wrap(lambda: c(), "b")
        d = tracer.wrap(lambda: None, "d")
        a = tracer.wrap(lambda: (b(), d()), "a")
        a()
        stats = tracer.by_name()
        assert {name: s[1] for name, s in stats.items()} == {"a": 3, "b": 2, "c": 1, "d": 4}
        assert list(stats["a"][0]) == [10]
        assert tracer.top_level_seconds() == 10
        assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=_fake_clock([0, 2, 3, 7]))

        def fail():
            raise KeyError("x")

        inner = tracer.wrap(fail, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        with pytest.raises(KeyError):
            outer()
        assert {name: s[1] for name, s in tracer.by_name().items()} == {"outer": 6, "inner": 1}

    def test_names_from_arguments_and_hooks(self):
        tracer = Tracer()
        seen = []
        f = tracer.wrap(lambda x: x * 2, "f", name_from_args=lambda a, k: f"f.{a[0]}",
                        hook=lambda t, a, k, r: seen.append(r))
        assert f(3) == 6 and f(4) == 8
        assert [s[0] for s in tracer.spans] == ["f.3", "f.4"]
        assert seen == [6, 8]


class TestPatching:
    def _originals(self, targets):
        return [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a))
                for o, a, _, _ in targets]

    def test_every_original_is_restored(self):
        targets = run.trace_targets()
        before = self._originals(targets)
        with Tracer().patched(targets):
            assert harness.step is not sim.step
        assert self._originals(targets) == before

    def test_restored_after_an_error(self):
        targets = run.trace_targets()
        before = self._originals(targets)
        with pytest.raises(RuntimeError):
            with Tracer().patched(targets):
                raise RuntimeError("boom")
        assert self._originals(targets) == before

    def test_every_layer_span_has_a_target(self):
        spans = {t[2] for t in run.trace_targets()} | {
            f"sim.schedule_prbs.{o}" for o in run.OPTIONS}
        needed = {m.rsplit(".", 1)[0] for m in run.PER_LAYER
                  if m not in run._GAUGES and m not in run._TRACE_FRACTIONS}
        assert needed <= spans

    def test_traced_episode_matches_untraced(self):
        cfg = harness.ExperimentConfig()
        option = sim.SchedulerOption.PROPORTIONAL_FAIR_LOW
        plain = harness.run_episode(cfg, 0, constant_action=option)
        tracer = Tracer()
        with tracer.patched(run.trace_targets()):
            traced = harness.run_episode(cfg, 0, constant_action=option)
        assert traced == plain
        metrics = run.layer_metrics(tracer, 1, dict.fromkeys(run._TRACE_FRACTIONS, 0.0))
        ticks = cfg.steps_demand + cfg.steps_rest
        assert metrics["sim.step.calls"]["value"] == ticks
        assert metrics["sim.schedule_prbs.PROPORTIONAL_FAIR_LOW.calls"]["value"] == ticks
        assert metrics["kpi.reward.calls"]["value"] == cfg.steps_demand
        assert metrics["agent.act.calls"]["value"] == 0
        assert 0.0 < metrics["sim.prb_utilization"]["value"] <= 1.0

    def test_agent_methods_stay_methods(self):
        tracer = Tracer()
        ag = agent.DoubleQAgent(agent.AgentConfig())
        with tracer.patched([t for t in run.trace_targets() if t[0] in (agent.DoubleQAgent, qnet)]):
            ag.act(np.zeros(qnet.STATE_DIM), greedy=True)
        assert [s[0] for s in tracer.spans] == ["agent.act", "qnet.forward"]


class TestMetricNames:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_are_well_formed(self):
        names = list(run.END_TO_END) + run.PER_LAYER + list(run.WORKLOADS)
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
        for name in run.PER_LAYER:
            assert UNIT.fullmatch(run.metric_unit(name)), name

    def test_benchmark_json_matches_the_code(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
            (name, run.metric_unit(name)) for name in run.PER_LAYER]
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_reference_covers_every_seed(self):
        reference = json.loads(run.REFERENCE_PATH.read_text())
        for workload in run.WORKLOADS:
            assert sorted(map(int, reference[workload])) == list(range(run.REFERENCE_SEEDS))
