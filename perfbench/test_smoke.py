"""Smoke test of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.prepare()
from spans import MODULES  # noqa: E402
from workloads import WORKLOADS, FitRecord  # noqa: E402

TINY_N = {"knn-n4000": 200, "kls-n4000": 200, "sweep-l30": 120}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(WORKLOADS[name], n=TINY_N[name])


def values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_spec_lists_what_the_benchmark_emits():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result, record = run.benchmark(tiny(name), seed=3, seconds=0, trace=False)
    assert result["correct"], record["problems"]
    # the warm-up pass and the fewest timed passes
    assert result["attempted"] == (1 + run.MIN_PASSES) * WORKLOADS[name].fits
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(value > 0 for value in values(result).values())
    assert set(record["samples"]) == set(run.END_TO_END) | set(run.REPORTED_ONLY)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_cover_the_traced_wall_and_counts_repeat(name):
    units = run.per_layer_units()
    results = [run.benchmark(tiny(name), seed=3, seconds=0, trace=True)[0] for _ in range(2)]
    for result in results:
        assert result["correct"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        metrics = values(result)
        covered = sum(metrics[f"{module}.self_s"] for module in MODULES)
        assert covered == pytest.approx(metrics["trace.wall_s"], rel=0.05)
        assert metrics["kernel.kkt_solve.calls"] > 0
    counts = [metric for metric, unit in units.items() if unit == "count"]
    first, second = (values(result) for result in results)
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_output_checks_reject_a_broken_fit():
    candidates = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    good_c = np.array([[0.5, 0.5, 1.0], [1.0, 0.4, 0.6]])
    fit = FitRecord(0.1, candidates, 1, np.array([0, 1]), np.array([2]), good_c)
    assert fit.problems() == []
    assert replace(fit, train_predictions=np.array([2, 1])).problems()
    assert replace(fit, c=good_c - np.array([[0.0, 0.0, 0.5], [0, 0, 0]])).problems()
    assert replace(fit, c=good_c * 0.9).problems()
    assert replace(fit, test_predictions=np.array([3])).problems()


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-n4000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
