"""``bench_record.py`` on ``--smoke`` runs of this checkout's benchmark."""

import json

import pytest

import bench_record


def _run(digest, **metrics):
    return {"machine": "machine nproc=1", "digest": digest, "failed": 0, "metrics": metrics}


def test_summarise_takes_the_median_and_interquartile_range():
    runs = [_run("d", ops_per_s=v) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    cell = bench_record.summarise(runs)
    assert cell["digest"] == "d" and cell["runs"] == 5
    assert cell["ops_per_s"] == {"median": 3.0, "iqr": 2.0}
    assert bench_record.summarise(runs[:1])["ops_per_s"] == {"median": 4.0, "iqr": 0.0}
    with pytest.raises(SystemExit, match="digests"):
        bench_record.summarise([_run("d", ops_per_s=1.0), _run("e", ops_per_s=1.0)])


def test_two_records_from_alternating_smoke_runs(tmp_path):
    # The same checkout filed under two numbers: both records hold the
    # machine line, the SIMD dispatch and every end-to-end metric, and
    # their digests agree.
    root = bench_record.ROOT
    argv = ["--smoke", "--runs", "2", "--seeds", "0", "--workloads", "opt-uniform", "--out", str(tmp_path)]
    assert bench_record.main(argv + [f"{root}=1", f"{root}=2"]) == 0
    bench = json.loads((root / "BENCHMARK.json").read_text())
    records = [json.loads((tmp_path / f"BENCH_{k}.json").read_text()) for k in (1, 2)]
    for rec in records:
        assert rec["machine"].startswith("machine nproc=") and rec["smoke"]
        assert set(rec["simd"]["runs"]) <= set(rec["simd"]["dispatch"])
        assert "NPY_DISABLE_CPU_FEATURES" in rec["simd"]
        cell = rec["workloads"]["opt-uniform"]["0"]
        assert cell["runs"] == 2 and cell["failed"] == 0 and len(cell["digest"]) == 64
        for metric in bench["end_to_end"]:
            assert cell[metric["name"]]["median"] > 0 and cell[metric["name"]]["iqr"] >= 0
    assert records[0]["workloads"]["opt-uniform"]["0"]["digest"] == records[1]["workloads"]["opt-uniform"]["0"]["digest"]
