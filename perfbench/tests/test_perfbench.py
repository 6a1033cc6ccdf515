"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# source_tables is run by hand only (see run.py), but it is tested all the same
WORKLOADS = ["mc_grid", "source_tables", "cli_short"]

sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Tracer  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--small"], capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _units(metrics: dict) -> dict:
    return {name: value["unit"] for name, value in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_runs_report_every_metric_and_one_digest(workload):
    report, result = _lines(_run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = report["metrics"]
    for name in ("setup_s", "wall_s", "peak_rss_mb", "error_rate"):
        assert {"value", "unit", "samples"} <= set(named[name])
    assert named["error_rate"]["value"] == result["failed"] / result["attempted"]
    environment = report["environment"]
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha",
            "seed"} <= set(environment)

    traced_report, traced = _lines(_run(workload, trace=1))
    assert traced["correct"]
    assert _units(traced["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["per_layer"]}
    assert traced_report["traced_digest"] == traced_report["digest"] \
        == report["digest"]
    assert 0 < traced_report["self_s_total"] \
        <= traced_report["traced_wall_s_total"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mc_grid", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans[:] = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("mc.simulate_series", 1.0, 7.0, 0, 0),
        ("mc.sample_occupancy", 2.0, 5.0, 1, 0),
        ("sources.source_pmf", 8.0, 9.0, 0, 0),
    ]
    assert tracer.self_times() == [3.0, 3.0, 3.0, 1.0]
