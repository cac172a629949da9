"""Smoke tests of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` stays ``tests``); run explicitly::

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aggregate
import compare
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, stdout=subprocess.PIPE, text=True
    )


def document(tmp_path: Path, *args: str) -> dict:
    path = tmp_path / "result.json"
    done = run_benchmark(*args, "--json", str(path))
    assert done.returncode == 0, done.stdout
    result = json.loads(path.read_text())
    result["last_line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return result


def test_manifest_matches_spec_and_contract_limits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["run_seconds"] == spec.RUN_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in manifest["workloads"]] == list(spec.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == spec.PER_LAYER
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = list(spec.WORKLOADS) + [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m[1]) for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    bounds = {m[0]: m[3] for m in spec.END_TO_END}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert set(spec.STRICT_CHECKED) < set(spec.WORKLOADS)
    assert all(any(m[0].startswith(prefix) for prefix in spec.MOVES) for m in spec.PER_LAYER)


def test_quick_run_reports_every_end_to_end_metric_on_every_workload(tmp_path):
    result = document(tmp_path, "--quick")
    assert set(result["runs"]) == set(spec.WORKLOADS)
    for name, run in result["runs"].items():
        assert list(run["metrics"]) == [m[0] for m in spec.END_TO_END], name
        assert all(metric["value"] > 0 for metric in run["metrics"].values()), name
        assert run["operations"]["failed"] == 0, run["operations"]["failures"]
        assert run["operations"]["attempted"] >= 1
    assert {"host_cpus", "affinity", "python", "numpy", "platform", "load_1min", "load_1min_end"} <= set(
        result["host"]
    )
    assert result["last_line"]["correct"] is True and result["last_line"]["failed"] == 0


def test_single_workload_prints_the_contract_line(tmp_path):
    result = document(tmp_path, "--workload", "app_traffic", "--seed", "3", "--quick", "--trace", "0")
    line = result["last_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m[0] for m in spec.END_TO_END}
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_two_quick_traced_runs_repeat_digests_and_call_counts(tmp_path):
    first = document(tmp_path, "--quick", "--trace")
    second = document(tmp_path, "--quick", "--trace", "1")
    for name in spec.WORKLOADS:
        a, b = first["runs"][name], second["runs"][name]
        assert set(a["metrics"]) == {m[0] for m in spec.PER_LAYER}, name
        assert a["digests"] == b["digests"], name
        for metric, value in a["metrics"].items():
            if spec.is_exact(metric):
                assert value["value"] == b["metrics"][metric]["value"], (name, metric)
        assert a["metrics"]["trace.overhead_x"]["value"] > 1.0
        idle = [layer for layer in ("sim.shard",) if name != "saturated_vector"]
        idle += ["sim.vector"] if name in ("paper_repro", "app_traffic", "saturated_default") else []
        for layer in idle:
            assert a["metrics"][f"{layer}.calls"]["value"] == 0, (name, layer)


def test_exits_nonzero_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(
        "--workload", "app_traffic", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")


def metric(value: float, passes: list) -> dict:
    q1, _, q3 = aggregate.quartiles(passes)
    return {"value": value, "better": "lower", "bound": 0.25, "q1": q1, "q3": q3, "passes": passes}


@pytest.mark.parametrize(
    "b, expected",
    [
        (metric(10.0, [10.2, 10.4, 10.6, 10.8, 11.0]), "same"),
        (metric(15.0, [15.3, 15.6, 15.9, 16.2, 16.5]), "worse"),
        (metric(5.0, [5.1, 5.2, 5.3, 5.4, 5.5]), "better"),
        (metric(15.0, [15.0, 16.0, 20.0, 24.0, 30.0]), "unresolved"),  # spread wider than the bound
        (metric(5.0, [5.0, 6.0, 7.0, 8.0, 9.0]), "better"),  # wide, but every pass beats every pass of A
        (metric(15.0, [15.3]), "unresolved"),  # one pass says nothing about the spread
    ],
)
def test_compare_judges_by_value_bound_and_per_pass_spread(b, expected):
    a = metric(10.0, [10.2, 10.4, 10.6, 10.8, 11.0])
    assert compare.verdict(a, b) == expected


def test_per_pass_estimates_are_independent_of_each_other():
    def one_pass(window_s: float, total_s: float) -> dict:
        return {
            "phases": {"circuit": {"kind": "circuit", "rated": True, "cycles": 200, "words": 0,
                                   "seconds": {"window0": [window_s, window_s * 2]}}},
            "setup_s": 0.5, "setup_steps": [], "total_s": total_s, "rss_self_kib": 1024, "rss_children_kib": 0,
        }

    metrics = aggregate.end_to_end([one_pass(0.010, 1.0), one_pass(0.020, 1.1), one_pass(0.040, 1.3)])
    rate = metrics["sim_cycles_per_s"]
    assert rate["passes"] == [200 / 0.020, 200 / 0.040, 200 / 0.080]  # each pass at its own floor
    assert rate["value"] == 200 / 0.020  # the run at the floor over all passes
    assert rate["q1"] < rate["q3"]
