"""Tests of the benchmark itself, at smoke size.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import failures
from spans import self_times
from workload import ROOT, WORKLOADS, plan

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_every_check(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    assert "FAILED" not in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name in ("setup_s", "solve_s", "query_p50_s", "query_p95_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0
        assert result["metrics"]["answered_frac"]["value"] == 1.0


def test_serve_trace_attributes_the_engine_path():
    done = run_benchmark("serve-n4", trace=1)
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["engine.models_built"] == 2
    assert metrics["engine.prepares_per_query"] == 1.0
    assert metrics["foxglynn.calls"] >= len(plan("serve-n4", "smoke", 7))
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.1


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("direct-n64", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_plan_is_a_function_of_the_seed():
    assert plan("serve-n4", "full", 3) == plan("serve-n4", "full", 3)
    assert plan("serve-n4", "full", 3) != plan("serve-n4", "full", 4)
    for workload in ("direct-n64", "compositional-n3"):
        assert plan(workload, "full", 3) == plan(workload, "full", 4)


def test_serve_plan_mix():
    queries = plan("serve-n4", "full", 11)
    assert len(queries) == 200
    kinds = [(q["family"], q["objective"]) for q in queries]
    assert kinds.count(("ftwc", "max")) == kinds.count(("ftwc", "min")) == 80
    assert kinds.count(("ftwc-ctmc", "max")) == 40
    assert all(1.0 <= q["t"] <= 500.0 for q in queries)


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def _answer(value, bound=1e-6):
    return {"value": value, "bound": bound, "healthy": True, "error": None}


def test_checks_flag_wrong_values_and_broken_ordering():
    queries = [
        {"family": "ftwc", "n": 4, "t": 5.0, "objective": "max"},
        {"family": "ftwc", "n": 4, "t": 5.0, "objective": "min"},
        {"family": "ftwc-ctmc", "n": 4, "t": 5.0, "objective": "max"},
    ]
    refs = [{"value": value, "bound": 0.0} for value in (0.5, 0.6, 0.7)]
    inverted = {"queries": queries, "answers": [_answer(0.5), _answer(0.6), _answer(0.7)]}
    # Pmin above Pmax: the ordering check fails even though each value
    # matches its reference.
    assert set(failures(inverted, refs, [])) == {0}
    refs[1]["value"] = 0.4
    fixed = {"queries": queries, "answers": [_answer(0.5), _answer(0.4), _answer(0.7)]}
    assert failures(fixed, refs, []) == {}
    off = {"queries": queries, "answers": [_answer(0.5), _answer(0.41), _answer(0.7)]}
    assert set(failures(off, refs, [])) == {1}
    assert set(failures(fixed, refs, ["wrong state count"])) == {0, 1, 2}
