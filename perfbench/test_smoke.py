"""Smoke tests of the benchmark itself, on tiny runs.

    python3 -m pytest perfbench/test_smoke.py -q

They check the output contract (every metric of ``BENCHMARK.json`` with its
unit and a finite value), that runs are deterministic in their seed, that the
traced spans nest so that self times add up to each operation's wall time,
and that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_runs: dict = {}


def run(workload: str, seed: int, trace: int, root: Path = HERE.parent):
    """(details, result) of a tiny run; identical runs are made once."""
    key = (workload, seed, trace, root)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=170, check=True)
        lines = done.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-2]), json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_has_its_unit_and_a_finite_value(workload, trace, kind):
    details, result = run(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["machine"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs_and_counts(workload):
    first, first_result = run(workload, 3, 1)
    _runs.pop((workload, 3, 1, HERE.parent))
    second, second_result = run(workload, 3, 1)
    assert first["output_digest"] == second["output_digest"]
    assert first["passes"] == second["passes"] == first["planned_passes"]
    assert (first_result["attempted"], first_result["failed"]) == (
        second_result["attempted"], second_result["failed"])
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith("calls_per_op")}
        for r in (first_result, second_result)
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_different_inputs(workload):
    assert run(workload, 3, 0)[0]["input_digest"] != run(workload, 4, 0)[0]["input_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_operation_wall_time(workload):
    details, result = run(workload, 3, 1)
    assert details["nesting_residual_ns"] == 0
    assert details["self_time_sum_s"] == pytest.approx(details["traced_wall_s"], rel=1e-9)
    assert 0.0 < details["layer_self_share"] <= 1.0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0


def test_layers_that_a_workload_skips_take_no_time():
    survey = run("survey", 3, 1)[1]["metrics"]
    shots = run("shots", 3, 1)[1]["metrics"]
    for name in ("shotsim.sample_joint", "shotsim.joint_outcome_probabilities"):
        assert survey[f"{name}.self_us_per_op"]["value"] == 0.0
    for name in ("linalg.hermitian_eigenvalues", "linalg.symmetric3_singular_values"):
        assert shots[f"{name}.self_us_per_op"]["value"] == 0.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
