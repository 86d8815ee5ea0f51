"""Tests of the benchmark itself, at small instance sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracing
from harness import Bench
from workloads import WORKLOADS

sm = run.import_sapmatch()

SMALL = {
    "random-overloaded": {"n": 128, "draws": 2, "minmax_n": 32, "semi_n": 16},
    "star-chain": {"depth": 12, "minmax_depth": 5, "semi_depth": 4},
    "load-balance": {"load": 8, "unit_load": 8, "semi_n": 16, "draws": 2},
}
SEEDS = (1, 2)


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_bench(workload: str, seed: int, trace: bool) -> Bench:
    bench = Bench(sm, workload, seed, trace, sizes=SMALL[workload])
    bench.set_up()
    bench.measure(seconds=1e-3)
    return bench


def test_declarations_agree():
    declared = spec()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(tracing.PER_LAYER)
    rationale = json.loads((run.HERE / "rationale.json").read_text(encoding="utf-8"))
    assert list(rationale["workloads"]) == list(WORKLOADS)
    names = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    covered = set()
    for layer in rationale["layers"].values():
        assert set(layer["metrics"]) <= per_layer
        covered.update(layer["metrics"])
        for move in layer["moves"]:
            assert move["metric"] in names and move["workload"] in WORKLOADS
    assert covered == per_layer


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_passes_on_two_seeds_with_the_same_metric_names(workload):
    declared = {m["name"] for m in spec()["end_to_end"]}
    for seed in SEEDS:
        bench = small_bench(workload, seed, trace=False)
        assert bench.failed == 0 and not bench.problems
        assert bench.attempted > 0
        metrics = bench.end_to_end()
        assert set(metrics) == declared
        assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_trace_is_faithful(workload):
    """Tracing changes no run log, and every count repeats across runs and tracers."""
    counts = [name for name, unit, _ in tracing.ROUND_METRICS if unit == "count"]
    for seed in SEEDS:
        plain = small_bench(workload, seed, trace=False)
        traced = [small_bench(workload, seed, trace=True) for _ in range(2)]
        for bench in traced:
            assert bench.failed == 0 and not bench.problems
            assert bench.ref_logs == plain.ref_logs
            assert not bench.tracer.missing
        first, second = (bench.per_layer() for bench in traced)
        assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
        assert set(first) == {name for name, _, _ in tracing.PER_LAYER}


def test_gate_counts_a_wrong_answer_as_failed():
    bench = Bench(sm, "load-balance", 1, trace=False, sizes=SMALL["load-balance"])
    bench.set_up()
    bench.expect[0, 0].matched += 1
    bench.run_round(0, traced=False)
    naive = bench.jobs[0]
    assert bench.failed == naive.reps * naive.instances[0].client_count > 0


class HalfSpeed:
    """A reference whose every tick takes twice the nominal chunk time."""

    def tick(self) -> float:
        return 2 * harness.REF_CHUNK_NS


@pytest.mark.parametrize("mode", ["naive", "fast", "minmax"])
def test_times_are_reported_at_reference_speed(mode):
    instance = sm.gen_random(24, 48, 3, 1)
    *_, step_ns, wall_ns, ref_ns, _ = harness._run(sm, mode, instance, None, None, HalfSpeed())
    assert ref_ns == pytest.approx(wall_ns / 2)
    if step_ns is not None:
        assert len(step_ns) == instance.client_count
        assert sum(step_ns) == pytest.approx(ref_ns)


def test_uninstall_restores_every_binding_and_missing_hooks_are_reported(monkeypatch):
    before = (sm.max_flow, sm.balance.max_flow, sm.SapEngine.__dict__["step"])
    extra = tracing.FunctionHook("flownet", "no_such_function")
    monkeypatch.setattr(tracing, "FUNCTION_HOOKS", tracing.FUNCTION_HOOKS + (extra,))
    tracer = tracing.Tracer()
    tracer.install()
    assert sm.balance.max_flow is not before[1]
    tracer.uninstall()
    assert (sm.max_flow, sm.balance.max_flow, sm.SapEngine.__dict__["step"]) == before
    assert tracer.missing == {"flownet.no_such_function"}


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["perfbench/run.py", "--workload", "star-chain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
