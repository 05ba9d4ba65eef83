"""Record the benchmark's end-to-end metrics of one or two checkouts.

    python tests/bench_record.py --runs 5 PARENT_CHECKOUT=N CHECKOUT=M

Each argument is a checkout and the number its record is filed under.
The script runs each checkout's ``benchmarks/run.py`` on every workload
of its ``BENCHMARK.json``, on seeds 0 and 1, ``--runs`` times each; with
two checkouts it alternates between them run by run, each first in turn,
so that a drift of the machine falls on both alike.  For each checkout it
writes ``BENCH_<number>.json`` into ``--out`` (by default the root of this
repository), holding:

- the ``machine`` line that ``run.py`` prints;
- numpy's SIMD dispatch (baseline, dispatched targets and those this CPU
  runs) and ``NPY_DISABLE_CPU_FEATURES``;
- per workload and seed, the median and interquartile range of each
  end-to-end metric over the runs, and the workload's digest, which every
  run must print alike.

``--smoke`` passes ``--smoke`` to ``run.py``, three tiny ops per run, for
testing the script itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)


def simd() -> dict:
    """numpy's SIMD dispatch in this interpreter, which runs ``run.py``."""
    from numpy._core import _multiarray_umath as umath

    found = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "baseline": list(umath.__cpu_baseline__),
        "dispatch": list(umath.__cpu_dispatch__),
        "runs": [name for name in umath.__cpu_dispatch__ if found.get(name)],
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
    }


def parse(stdout: str) -> dict:
    """The machine line, digest and end-to-end metric values of one
    ``run.py`` output."""
    lines = stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"machine": machine, "digest": digest, "failed": result["failed"], "metrics": metrics}


def summarise(runs: list[dict]) -> dict:
    """Median and interquartile range of each metric over ``runs`` (parsed
    outputs of one workload and seed), with their common digest."""
    digests = {run["digest"] for run in runs}
    if len(digests) != 1:
        raise SystemExit(f"error: runs of one workload and seed print digests {sorted(digests)}")
    out = {"runs": len(runs), "digest": digests.pop(), "failed": max(run["failed"] for run in runs)}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1}
    return out


def run_once(tree: Path, workload: str, seed: int, smoke: bool) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + ["--smoke"] * smoke, cwd=tree, capture_output=True, text=True, check=True)
    return parse(proc.stdout)


def record(trees: list[tuple[Path, str]], runs: int, seeds, workloads, smoke: bool) -> dict:
    """Each checkout's record, by number, from runs that alternate between
    the checkouts."""
    names = workloads or [w["name"] for w in json.loads((trees[0][0] / "BENCHMARK.json").read_text())["workloads"]]
    found = {number: {} for _, number in trees}
    for name in names:
        for seed in seeds:
            for r in range(runs):
                for tree, number in trees if r % 2 == 0 else trees[::-1]:
                    found[number].setdefault((name, seed), []).append(run_once(tree, name, seed, smoke))
    out = {}
    for number, cells in found.items():
        workloads_out = {}
        for (name, seed), parsed in cells.items():
            workloads_out.setdefault(name, {})[str(seed)] = summarise(parsed)
        machine = next(iter(cells.values()))[0]["machine"]
        out[number] = {"machine": machine, "simd": simd(), "smoke": smoke, "workloads": workloads_out}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", help="PATH=NUMBER: a checkout and its record's number")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    p.add_argument("--workloads", nargs="+", help="a subset of the workloads")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    trees = []
    for arg in args.trees:
        path, _, number = arg.rpartition("=")
        trees.append((Path(path).resolve(), number))
    for number, rec in record(trees, args.runs, args.seeds, args.workloads, args.smoke).items():
        (args.out / f"BENCH_{number}.json").write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
