"""Span tracing of the calls into each bidmc layer, from outside the library.

The tracer replaces each traced public function, in every ``bidmc`` module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent).  Internal calls resolve names through their module's globals,
so a call from ``bidmc.search`` into ``split_threshold`` is caught by the
wrapper bound in ``bidmc.search``.  ``remove`` puts the originals back.

Spans of one op are kept in memory and folded into per-name totals when the
op ends: a span's self time is its duration minus the durations of its
direct children, which (calls being synchronous) never overlap.  Counters
are updated by per-function hooks that look at a call's arguments and
result after it returns.

A traced function that the library no longer has is skipped and reports
zero calls, so the trace survives refactors that delete a layer.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

OP = "op"


def _count_dp(counts, args, result):
    table = result[1]
    counts["search.dp.evaluations"] += getattr(table, "evaluations", 0)
    counts["search.dp.pruned_states"] += getattr(table, "pruned_states", 0)
    # Pruning can only drop states of the stages between the first and last.
    counts["search.dp.stage_states"] += sum(len(p) for p in getattr(table, "pruned", [])[1:-1])


def _count_refine(counts, args, result):
    counts["refine.refine_cuts.plans"] += 1
    counts["refine.refine_cuts.moved"] += tuple(result.cuts) != tuple(args[0].cuts)


def _count_plus(counts, args, result):
    counts["polar.arikan_plus.out_particles"] += result.size


def _count_construct(counts, args, result):
    branches = [rec for alpha, rec in result.records.items() if alpha]
    counts["polar.branches"] += len(branches)
    counts["polar.exact_branches"] += sum(rec.exact_reference for rec in branches)


def _count_pairs(counts, args, result):
    # Every caller inside an op passes a list; the one caller that passes a
    # generator (ensembles.random_channel) runs in set-up, untraced.
    counts["channel.canonicalize.in_pairs"] += len(args[0])


# (layer, function, result hook).  The layers are the
# modules of src/bidmc; io and cli are thin wrappers and are not traced.
TARGETS = (
    ("search", "c_optimal_degradation", _count_dp),
    ("search", "iota_band", None),
    ("search", "tv_greedy_plan", None),
    ("smawk", "smawk_row_maxima", None),
    ("refine", "split_threshold", None),
    ("refine", "refine_cuts", _count_refine),
    ("refine", "to_pstar_plan", None),
    ("refine", "realize_pplus", None),
    ("refine", "realize_pstar", None),
    ("blackwell", "find_degradation_witness", None),
    ("blackwell", "is_p_degradation", None),
    ("blackwell", "risk_dominates", None),
    ("simplex", "feasible_point", None),
    ("polar", "arikan_plus", _count_plus),
    ("polar", "arikan_minus", None),
    ("polar", "construct", _count_construct),
    ("channel", "canonicalize", _count_pairs),
    ("channel", "capacity", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """Installs span-recording wrappers and accumulates per-name totals."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.current = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_s = 0.0
        self._op_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items()) if key.split(".")[0] == "bidmc"]
        for layer, fname, after in TARGETS:
            home = sys.modules.get(f"bidmc.{layer}")
            orig = getattr(home, fname, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{layer}.{fname}", orig, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn, after):
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current < 0:  # outside an op: summaries and checks
                return fn(*args, **kwargs)
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                self.current = parent
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def begin_op(self) -> None:
        self.spans.append(None)
        self.current = len(self.spans) - 1
        self._op_start = perf_counter()

    def end_op(self) -> None:
        """Close the op's root span and fold its spans into the totals."""
        end = perf_counter()
        self.spans[self.current] = (OP, self._op_start, end, -1)
        self.current = -1
        child_s = [0.0] * len(self.spans)
        for name, start, stop, parent in self.spans:
            if parent >= 0:
                child_s[parent] += stop - start
        for (name, start, stop, _), inner in zip(self.spans, child_s):
            self.self_s[name] += stop - start - inner
            self.calls[name] += 1
        self.spans.clear()
        self.op_s += end - self._op_start
