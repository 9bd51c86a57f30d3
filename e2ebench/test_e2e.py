"""Smoke-size self-tests of the end-to-end benchmark (2 runs per workload).

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import cProfile
import dataclasses
import json

import pytest

import layers
import run  # puts src/ on sys.path
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], fixed_runs=2, trace_runs=2)


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name):
    workload = smoke(name)
    metrics, attempted, failed, lines = run.end_to_end(workload, 0, 0.0, setup_probes=1, memory_runs=1)
    assert (attempted, failed) == (2, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert any(line.startswith("work_digest") for line in lines)

    metrics, attempted, failed, _lines, document = run.traced(workload, 0, 0.0)
    assert (attempted, failed) == (2, 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in layers.LAYERS)
    unattributed = metrics["unattributed.self_share"]["value"]
    assert unattributed <= 2.0
    assert shares + unattributed == pytest.approx(100.0, abs=0.5)
    assert (metrics["opc.self_share"]["value"] > 0) == (name == "blackout-f1a")
    assert (metrics["chaos.self_share"]["value"] > 0) == (name == "chaos-mix")
    assert len(document["per_run"]) == 2


def test_work_digest_repeats_at_a_seed_and_moves_with_it():
    workload = smoke("chaos-mix")

    def digest(seed):
        _walls, _references, outcomes = run.timed_pass(workload, seed, 0.0)
        return workloads.work_digest(outcomes)

    assert digest(3) == digest(3) != digest(4)


PLANTED = """
import copy

def planted(depth):
    value = {"leaf": [1, {"x": (2.0, "three")}]}
    for _ in range(depth):
        value = {"nested": value, "listed": [value, value]}
    for _ in range(50):
        copy.deepcopy(value)
"""


def test_deepcopy_is_charged_to_the_layer_that_called_it():
    namespace = {}
    exec(compile(PLANTED, str(run.ROOT / "src" / "repro" / "nt" / "planted.py"), "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.runcall(namespace["planted"], 5)
    profiler.create_stats()
    fold = layers.fold(profiler.stats)
    assert fold.self_s["nt"] / fold.total_s > 0.98
    assert fold.self_s.get(layers.UNATTRIBUTED, 0.0) / fold.total_s < 0.02


def test_a_sabotaged_check_fails_the_runs_and_the_exit_code(monkeypatch, capsys):
    workload = smoke("chaos-mix")
    warm_up_seed = workloads.SEED_STRIDE - 1  # the warm-up input of --seed 0

    def sabotaged(finished):
        outcome = workload.check(finished)
        outcome.passed = outcome.passed and finished.scenario.seed == warm_up_seed
        return outcome

    monkeypatch.setitem(workloads.WORKLOADS, workload.name, dataclasses.replace(workload, check=sabotaged))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MEMORY_RUNS", 1)
    code = run.main(["--workload", workload.name, "--seed", "0", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)
    assert any(line.startswith("fail_ratio") and line.split()[1] == "1" for line in out)
