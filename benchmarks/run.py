"""bidmc benchmark: one seeded closed-loop workload per run.

    python3 benchmarks/run.py --workload opt-uniform --seed 0 --seconds 20 --trace 0

One client in one process runs a fixed list of seeded ops through the
public ``bidmc`` API of the checkout's ``src`` tree, with BLAS pinned to one
thread.  The list has ``seconds * rate`` ops (see ``workloads.py``), and at
least MIN_OPS, so the timed phase lasts about ``--seconds`` at the commit
that defined the benchmark (longer for polar-chain, whose ops take about a
second) and every commit runs the same instances.  After the timed phase
each result is checked against the independent oracles.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs the same list with span tracing (see ``spans.py``) and
prints the per-layer metrics, per op.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An op that raises, or whose check fails or raises, counts as failed and is
never retried;
``correct`` is false only when an op returned a result that a check
rejected.  ``--smoke`` runs three tiny ops, for the benchmark's own tests.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The default seed; claims are checked again on CLAIM_SEED, which no change
# should be tuned on.
DEFAULT_SEED = 0
CLAIM_SEED = 1
SETUP_REPS = 3
# A floor on the op list, so that failed_frac and p90 rest on enough ops
# where one op takes about a second (polar-chain).
MIN_OPS = 40
SMOKE_OPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="three tiny ops of the workload")
    return p.parse_args(argv)


def import_library():
    """Import bidmc from the checkout's src tree, never from elsewhere."""
    if not (SRC / "bidmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no bidmc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bidmc

    if Path(bidmc.__file__).resolve().parent != (SRC / "bidmc").resolve():
        raise SystemExit(f"error: imported bidmc from {bidmc.__file__}, not {SRC}")


def blas_threads() -> str:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def machine_record() -> str:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"machine nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={blas_threads()}"
    )


def run_ops(wl, inputs, speed, tracer=None):
    """Run each op once.

    Returns per-op wall seconds, the same at reference speed (see
    ``speed.py``), records (None where the op raised) and error lines.
    """
    starts, seconds, records, errors = [], [], [], []
    for i, inp in enumerate(inputs):
        speed.sample_if_due()
        if tracer is not None:
            tracer.begin_op()
        start = perf_counter()
        starts.append(start)
        try:
            result = wl.op(inp)
        except Exception as exc:  # a failing op is counted, never retried
            result = None
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        seconds.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        records.append(None if result is None else wl.summarise(inp, result))
    scaled = [s * speed.scale(t) for s, t in zip(seconds, starts)]
    return seconds, scaled, records, errors


def check_all(wl, inputs, records, errors):
    """Failed conditions per op index, for ops that returned a result.

    A check that raises cannot verify its op: the op counts as failed, its
    error joins ``errors`` and its record is dropped.
    """
    bad = {}
    for i, (inp, rec) in enumerate(zip(inputs, records)):
        if rec is None:
            continue
        try:
            conds = wl.check(inp, rec)
        except Exception as exc:
            errors.append(f"op {i}: check raised {type(exc).__name__}: {exc}")
            records[i] = None
            continue
        if conds:
            bad[i] = conds
    return bad


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(seconds, records, bad, setup_s, peak_rss_mb):
    done = [i for i, rec in enumerate(records) if rec is not None]
    if not done:
        raise SystemExit("error: no op completed")
    lat_ms = [seconds[i] * 1e3 for i in done]
    ok = len(done) - len(bad)
    return {
        "ops_per_s": ok / sum(seconds),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": percentile(lat_ms, 90),
        "completed_frac": ok / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, tracer, traced_s, untraced_s, records, scale):
    from spans import LAYERS, OP, TARGETS
    from workloads import RECORD_METRICS

    ops = len(records)
    counts = tracer.counts
    ref_ms = scale * 1e3 / ops

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    m = dict.fromkeys(RECORD_METRICS, 0.0)
    for layer, fname, *_ in TARGETS:
        name = f"{layer}.{fname}"
        m[f"{name}.self_ms"] = tracer.self_s[name] * ref_ms
        m[f"{name}.calls"] = tracer.calls[name] / ops
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = sum(
            v for k, v in tracer.self_s.items() if k.split(".")[0] == layer
        ) * ref_ms
    m["trace.op_ms"] = tracer.op_s * ref_ms
    m["trace.unattributed_ms"] = tracer.self_s[OP] * ref_ms
    k = len(untraced_s)
    m["trace.overhead_frac"] = sum(traced_s[:k]) / sum(untraced_s) - 1.0
    m["search.dp.evaluations"] = counts["search.dp.evaluations"] / ops
    m["search.dp.pruned_frac"] = ratio("search.dp.pruned_states", "search.dp.stage_states")
    m["refine.refine_cuts.moved_frac"] = ratio("refine.refine_cuts.moved", "refine.refine_cuts.plans")
    m["polar.arikan_plus.out_particles"] = counts["polar.arikan_plus.out_particles"] / ops
    m["channel.canonicalize.in_pairs"] = counts["channel.canonicalize.in_pairs"] / ops
    m["polar.exact_branch_frac"] = ratio("polar.exact_branches", "polar.branches")
    m.update(wl.record_metrics([rec for rec in records if rec is not None]))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = perf_counter()
    import_library()
    import_s = perf_counter() - start
    from speed import REF_KERNEL_S, SpeedLog, kernel_seconds
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    count = SMOKE_OPS if args.smoke else max(MIN_OPS, math.ceil(args.seconds * wl.rate))
    setup_reps, kernel_s = [], []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        inputs = [wl.make(args.seed, i, args.smoke) for i in range(count)]
        try:
            wl.op(wl.make(args.seed, 0, True))
        except Exception as exc:  # warm-up only loads code paths; ops count failures
            print(f"warm-up op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        setup_reps.append(perf_counter() - start)
        kernel_s.append(kernel_seconds())
    # Seconds at the reference speed, like the op times.
    setup_s = (import_s + statistics.median(setup_reps)) * REF_KERNEL_S / statistics.median(kernel_s)

    speed = SpeedLog()
    untraced_s = []
    if args.trace:
        from spans import Tracer

        # The overhead compares the first quarter of the list run both ways.
        _, untraced_s, _, _ = run_ops(wl, inputs[: max(1, count // 4)], speed)
        tracer = Tracer()
        tracer.install()
        try:
            seconds, scaled, records, errors = run_ops(wl, inputs, speed, tracer)
        finally:
            tracer.remove()
    else:
        seconds, scaled, records, errors = run_ops(wl, inputs, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = check_all(wl, inputs, records, errors)
    digest = hashlib.sha256("\n".join(
        rec["digest"] if rec is not None else "raised" for rec in records
    ).encode()).hexdigest()

    if args.trace:
        values = per_layer(wl, tracer, scaled, untraced_s, records, speed.run_scale())
        wanted = bench["per_layer"]
    else:
        values = end_to_end(scaled, records, bad, setup_s, peak_rss_mb)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = len(errors) + len(bad)
    print(machine_record())
    print(
        f"workload {wl.name} seed {args.seed} (claims: also seed {CLAIM_SEED}) "
        f"ops {count} trace {args.trace} timed_s {sum(seconds):.3f} "
        f"reference-speed scale {speed.run_scale():.4f}"
    )
    if not args.trace:
        wall = end_to_end(seconds, records, bad, setup_s, peak_rss_mb)
        print("wall-clock " + " ".join(f"{k} {wall[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")))
    for line in errors:
        print(f"raised {line}")
    for i, conds in sorted(bad.items()):
        print(f"check failed op {i}: {'; '.join(conds)}")
    print(f"failed_frac {failed / count:.6g} frac")
    print(f"digest {wl.name} sha256 {digest}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not bad, "attempted": count, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
