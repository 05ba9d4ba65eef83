"""Tests of the benchmark harness itself, on the tiny smoke size of every workload.

    python -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
BENCH = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, run_py=RUN, check=True):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=check,
    )


def result(out):
    return json.loads(out.stdout.splitlines()[-1])


def digest(out):
    return next(line for line in out.stdout.splitlines() if line.startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    res = result(run(workload, trace))
    assert res["correct"] and res["attempted"] == 3 and res["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_results_bit_identical(workload):
    assert digest(run(workload, 0)) == digest(run(workload, 1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_op_time(workload):
    metrics = {k: v["value"] for k, v in result(run(workload, 1))["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    total = layers + metrics["trace.unattributed_ms"]
    assert total == pytest.approx(metrics["trace.op_ms"], rel=1e-9)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(RUN.parent.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run(WORKLOADS[0], 0, tmp_path / RUN.parent.name / RUN.name, check=False)
    assert out.returncode != 0
    assert not out.stdout.strip()
