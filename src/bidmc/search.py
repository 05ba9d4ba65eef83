"""Search for capacity-optimal contiguous-group degradations.

The capacity-optimal 2n-output degradation of Q = sum_i q_i B(sigma_i) is a
cut plan, so the search space is the cut vectors 1 < k_1 < ... < k_{n-1} <=
m.  Three searchers are provided:

- ``enumerate_c_degradations``: exactly the cut plans passing every
  threshold-window test (the C-degradations), by a level-at-once walk over
  cut prefixes in bounded chunks, one vectorized window test per chunk;
- ``brute_force_c_optimal``: direct maximization over all cut vectors,
  whose capacities are summed along the levels of the same walk without
  tests, each vector's groups left to right as the DP sums its stages;
  guarded by a combinatorial bound (the independent oracle);
- ``c_optimal_degradations``: dynamic program over partial degradations
  of a stack of channels that share n, one numpy kernel per stage over
  staircase (instance, row, column) blocks of the lower triangle: a gather
  from the capacity band (entries above the diagonal read the -inf
  sentinel that ends its buffer), an add of the previous values (dead ones
  as -inf) and a row argmax.  The gather offsets, live states and band
  mask depend only on the channels' sizes and n, so they are built once
  per shape and cached, read-only.  It optionally prunes entries whose
  committed cut surely fails a threshold-window test (every optimal
  traceback passes them, so the pruning is sound).  Ragged sizes are
  padded with dead states, and every entry is computed by the same float
  expression as alone, so each channel's result equals its single call,
  ``c_optimal_degradation`` (the stack of one), bit for bit.  The pruned
  DP's plans come from the unpruned kernel where none of their cuts surely
  fails its window test; only the other channels run the pruned DP.
  ``dp_tables`` runs the DP it names over every channel and returns each
  plan with its capacity and counters.

The DP state value S_j(i) is the maximum partial capacity over degradations
of the first i particles into j groups:

    S_j(i) = max_{j-1 <= a < i} S_{j-1}(a) + iota(a + 1, i)

with iota(s, e) the capacity contribution mass * (1 - h(mean)) of collapsing
particles s..e into one.  Group masses and means come from one primitive,
``refine._segment_table``: forward sums of nonnegative terms from each
group's first particle, so the band, the DP's pruning means, enumeration,
``PPlusPlan.group_stats`` and the window tests all see the same means, and
none cancels.  The capacity term is ``channel._capacity_term``, accurate
for means within round-off of 1/2.  Stage j's values form a matrix over
(row a = end state, column b = previous state) whose feasible lower
triangle is totally monotone.  The DP takes each row's leftmost maximum
over that triangle directly; the tests check it against SMAWK.  The greedy
merge baseline ``tv_greedy_plan``, after Tal & Vardy, is included for the
capacity-loss comparisons.
"""

from __future__ import annotations

import heapq
import math
import mmap
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import Channel, _capacity_term, _rows, _Stack, _stack
from .refine import (
    PPlusPlan,
    _ended,
    _segment_table,
    _segment_terms,
    _surely_fails,
    _window,
)

__all__ = [
    "BRUTE_FORCE_GUARD",
    "DpTable",
    "enumerate_c_degradations",
    "brute_force_c_optimal",
    "c_optimal_degradation",
    "c_optimal_degradations",
    "dp_tables",
    "tv_greedy_plan",
]

BRUTE_FORCE_GUARD = 10**6

# Rows per staircase block of the stage kernel, which bounds its
# temporaries to about _STAGE_BLOCK x m entries per instance.  A single
# block per stage would compute the whole square, and fewer rows pay more
# fixed cost per block: on a 2-core Xeon VM, single m = 128 DP runs took
# 7-12% less time with pruning (4-5% without) at 64 rows than at 32, and
# stacks of 8 the same.
_STAGE_BLOCK = 64

# Table entries (states x particles) per stack of c_optimal_degradations;
# larger stacks run in chunks.  At 2^17 (1 MiB per table) the tables the
# stage kernel gathers from stay in cache: on a 2-core Xeon VM, criterion
# 05's stacks at m = 128, n = 10 took 0.94-1.26 ms per instance at 2^16
# and 2^17 against 1.19-1.53 ms at 2^18 (m = 32 and 64 alike), and
# m = 16 the same at all three.
_BATCH_ENTRIES = 1 << 17


def _inside(m, max_len: int) -> np.ndarray:
    """Which entries [d, i] of (max_len, width) segment tables hold a group
    inside its channel, i + d < m; over a stack of sizes ``m`` (B,), the
    (B, max_len, width) mask, with width the largest size."""
    return np.arange(np.max(m)) < np.asarray(m)[..., None, None] - np.arange(max_len)[:, None]


def _band(mass: np.ndarray, mean: np.ndarray, xbar: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Capacity terms of the segment tables' groups, NaN outside ``inside``
    (past the channel's end; see ``_inside``).

    Entry [d, i] is iota of particles i..i+d (0-indexed), as in the tables:
    ``_capacity_term`` writes 1 - h(mean) into the band where ``inside``
    holds, and one in-place product scales the whole band by the mass.
    The band is a view of a flat buffer, its ``base``, whose one further
    entry is -inf: the sentinel that the stage kernel reads at offset -1.
    """
    band = _ended(mass.shape, -np.inf)
    band.fill(np.nan)
    return np.multiply(_capacity_term(mean, xbar, band, inside), mass, out=band)


class DpTable(NamedTuple):
    """A DP run's capacity, the entries it computed (``evaluations``) and
    the states it dropped (``pruned_states``), as ``dp_tables`` returns them."""

    capacity: float
    evaluations: int
    pruned_states: int


def enumerate_c_degradations(q: Channel, n: int) -> list[PPlusPlan]:
    """All cut plans passing every threshold-window test, in cut order: the
    cut vectors that is_c_degradation keeps, from the level-at-once walk
    ``_walk``, which tests each cut once both its groups are known."""
    m = q.size
    if not (2 <= n < m):
        raise ValueError(f"need 2 <= n < m, got n={n}, m={m}")
    cuts, parents = _walk(m, n, q)
    return [PPlusPlan(q, tuple(c)) for c in _trace(cuts, parents, np.arange(cuts[-1].size)).tolist()]


def _walk(m: int, n: int, q: Channel | None = None) -> tuple[list, list]:
    """The cut vectors for (m, n) as levels of prefixes, the last level in
    ``itertools.combinations`` order over 2..m (so the brute-force
    tie-break is theirs), with ``q`` only those whose every cut passes its
    window test.

    Level j holds each prefix of j cuts as its last cut, ``cuts[j]`` (the
    first particle of group j + 1; ``cuts[0]`` is the root, 1), and the
    level-(j - 1) prefix it extends, ``parents[j - 1]``.  It is built in
    chunks of at most _BATCH_ENTRIES candidates, each prefix in turn with
    every admissible end of group j in rising order.  With ``q``, a
    candidate fails with ``refine._window`` of group j's first cut or, at
    the last level, of the last cut, on ``is_c_degradation``'s means.
    """
    if q is not None:
        s = q.sigmas
        _, means, _ = _segment_table(q.weights, s, m - n + 1)
    cuts, parents = [np.ones(1, dtype=np.int64)], []  # the root: group 1 starts at 1
    for j in range(1, n):
        cut = cuts[-1]
        fan = m - n + j + 1 - cut  # group j starts at `cut` and ends by m - n + j
        edge = np.concatenate(([0], np.cumsum(fan)))  # each prefix's first candidate
        shift = cut - edge[:-1]
        if q is not None and j > 1:
            lo = cuts[-2][parents[-1]]  # each prefix's group j - 1, particles lo..cut - 1
            prev = means.take((cut - 1 - lo) * m + lo - 1)
        found = [(cut[:0], cut[:0])]  # so that an empty level concatenates
        p0 = 0
        while p0 < cut.size:
            p1 = max(p0 + 1, int(np.searchsorted(edge, edge[p0] + _BATCH_ENTRIES, "right")) - 1)
            parent = np.repeat(np.arange(p0, p1), fan[p0:p1])
            end = np.arange(edge[p0], edge[p1]) + shift[parent]  # group j's last particle
            keep = slice(None)
            if q is not None:
                start = cut[parent]
                eps = means.take((end - start) * m + start - 1)
                keep = np.ones(end.size, dtype=bool)
                if j > 1:
                    keep = ~np.logical_or(*_window(prev[parent], eps, s[start - 2], s[start - 1]))
                if j == n - 1:
                    # The last group, particles end + 1..m, fixes the last cut's test.
                    last = means.take((m - 1 - end) * m + end)
                    keep &= ~np.logical_or(*_window(eps, last, s[end - 1], s[end]))
            found.append((parent[keep], end[keep] + 1))
            p0 = p1
        for level, part in zip((parents, cuts), zip(*found)):
            level.append(np.concatenate(part))
    return cuts, parents


def _trace(cuts: list, parents: list, rows) -> np.ndarray:
    """The cut vectors (one row each) of last-level prefixes ``rows`` of the
    ``_walk`` levels ``cuts`` and ``parents``."""
    out = np.empty((len(rows), len(parents)), dtype=np.int64)
    for j in range(len(parents), 0, -1):
        out[:, j - 1] = cuts[j][rows]
        rows = parents[j - 1][rows]
    return out


def brute_force_c_optimal(q: Channel, n: int) -> tuple[PPlusPlan, float]:
    """Capacity-maximizing cut plan by direct enumeration (the oracle).

    Each prefix of the ``_walk`` levels adds its last group's iota to its
    parent's sum, so each vector's groups are summed left to right, as the
    DP sums its stages.  Ties break to the lexicographically smallest cut
    vector.  Guarded by BRUTE_FORCE_GUARD on the number of cut vectors.
    """
    m = q.size
    if not (2 <= n <= m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    if math.comb(m - 1, n - 1) > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"{math.comb(m - 1, n - 1)} cut vectors exceed the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    cuts, parents = _walk(m, n)
    band = _band(*_segment_table(q.weights, q.sigmas, m - n + 1), _inside(m, m - n + 1))
    caps = np.zeros(1)
    for j in range(1, n):
        start = cuts[j - 1][parents[j - 1]]  # group j, particles start..cut - 1
        caps = caps[parents[j - 1]] + band[cuts[j] - 1 - start, start - 1]
    caps += band[m - cuts[-1], cuts[-1] - 1]  # the last group, cut..m
    best = int(np.argmax(caps))
    return PPlusPlan(q, tuple(_trace(cuts, parents, [best])[0].tolist())), float(caps[best])


def _stage_layout(rows: np.ndarray, row_at: np.ndarray, width: int) -> tuple:
    """Where the stage kernel reads rows ``rows`` (B, R) from: -1 marks a
    padding row, and row a of instance k starts at flat index row_at[k, r]
    of the (B, size, width) tables.

    Returns one (B, block rows, columns) offset grid per staircase block of
    _STAGE_BLOCK rows, each with the flat start of its rows.  Grid
    entry [k, r, c] is row_at[k, r] + c (1 - width), the flat index of
    table entry [k, a - c, c], for c <= a, and -1 above the diagonal and on
    padding rows.  A block's columns run up to its largest row, so the
    blocks cover the lower triangle.  No entry depends on the stage.
    """
    blocks = []
    for r0 in range(0, rows.shape[1], _STAGE_BLOCK):
        a = rows[:, r0 : r0 + _STAGE_BLOCK, None]
        cols = np.arange(a.max() + 1)
        grid = np.where(cols <= a, row_at[:, r0 : r0 + _STAGE_BLOCK, None] + cols * (1 - width), -1)
        blocks.append((grid, np.arange(0, grid.size, cols.size).reshape(a.shape[:2])))
    return tuple(blocks)


class _Layout(NamedTuple):
    """What a DP run over channels of given sizes reads that depends on
    those sizes and n alone (see ``_dp_layout``)."""

    live: np.ndarray  # (B, size): row a is a state of instance k
    row_at: np.ndarray  # (B, size): flat index of table entry [k, a, 0]
    stages: tuple  # the _stage_layout of the stages before the last
    last: tuple  # the _stage_layout of the last stage's one row per instance
    inside: np.ndarray  # (B, size, width): the band's groups, from _inside


@lru_cache(maxsize=8)
def _layout_slot(m: tuple[int, ...], n: int) -> list:
    """[the ``_Layout`` of a DP run over channels of sizes ``m``, the calls
    of ``_dp_layout`` that read it], its arrays read-only as built."""
    sizes = np.array(m) - n + 1
    width = max(m)
    size = width - n + 1
    inst = np.arange(len(m))[:, None]
    offsets = np.arange(size)
    live = offsets < sizes[:, None]
    rows = np.where(live, offsets, -1)  # a padding row is -1
    row_at = (inst * size + rows) * width
    last = (sizes - 1)[:, None]
    stages = _stage_layout(rows, row_at, width), _stage_layout(last, (inst * size + last) * width, width)
    layout = _Layout(live, row_at, *stages, _inside(m, size))
    for a in _leaves(layout):
        a.flags.writeable = False
    return [layout, 0]


def _dp_layout(m: tuple[int, ...], n: int) -> _Layout:
    """The ``_Layout`` of a DP run over channels of sizes ``m``, built once
    per (m, n) into read-only arrays, and moved into a memory map of its
    own (``_frozen``) when its shape is asked for again.

    Building it took about 7% of a single m = 128 run, and callers repeat
    their shapes: the benchmark's opt-uniform op cycles through 7 keys,
    and each of criterion 05's cells runs full stacks of one shape.  But
    most of ``construct``'s stacked shapes come once (119 of 200 calls
    over the 40 seed-0 polar-chain bases), and copying a layout into a
    fresh map was about three quarters of a miss's cost (39 of 52 ms
    under cProfile), so only a shape that repeats pays for the map.
    """
    slot = _layout_slot(m, n)
    slot[1] += 1
    if slot[1] == 2:
        slot[0] = _frozen(slot[0])
    return slot[0]


def _leaves(x: tuple):
    """The arrays of a ``_Layout``, depth first."""
    for y in x:
        yield from _leaves(y) if isinstance(y, tuple) else (y,)


def _frozen(layout: _Layout) -> _Layout:
    """``layout`` with each array copied, read-only, into one anonymous
    memory map of its own: the one use of ``mmap``.

    The map keeps the cache out of the malloc heap.  There, the cached
    arrays fill the free space that each run's temporaries reuse, so each
    run grows the heap and hands it back: on the benchmark's opt-uniform
    op (m = 128, glibc, a 2-core Xeon VM) that cost about 200 page faults
    per op, and the op ran about 20% slower than with no cache at all.  A
    layout pays for the map's fresh pages, about 0.1 ms at m = 128, only
    once its shape repeats (see ``_dp_layout``).
    """
    arrays = list(_leaves(layout))
    ends = np.cumsum([-(-a.nbytes // 64) * 64 for a in arrays])  # cache-line aligned
    buf = mmap.mmap(-1, int(ends[-1]))
    copies = []
    for a, start in zip(arrays, [0, *ends[:-1].tolist()]):
        copy = np.frombuffer(buf, a.dtype, a.size, start).reshape(a.shape)
        copy[...] = a
        copy.flags.writeable = False
        copies.append(copy)
    copies = iter(copies)

    def rebuild(x):
        parts = [rebuild(y) if isinstance(y, tuple) else next(copies) for y in x]
        return x._make(parts) if isinstance(x, _Layout) else tuple(parts)

    return rebuild(layout)


def _stage_maxima(
    stage: int,
    blocks: tuple,
    s_prev: np.ndarray,
    eps_prev: np.ndarray,
    band: np.ndarray,
    means: np.ndarray,
    s: np.ndarray,
    pruning: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leftmost row maxima of one DP stage over a stack of instances.

    Instance k's entry (a, b) is s_prev[k, b] + iota(stage + b, stage + a):
    row a covers particles up to stage + a, and the new group starts after
    the state at column b.  It is a candidate when b <= a, column b is
    alive (s_prev not NaN) and, with ``pruning``, the cut it commits does
    not surely fail its window (``refine._surely_fails``).  ``band`` and
    ``means`` are the flat buffers of the (B, size, width) tables, each
    ending in one sentinel, -inf and NaN (see ``refine._ended``), and the
    new group of entry (a, b) is at flat index grid + stage - 1 of
    ``blocks`` (see ``_stage_layout``), so a -1 offset reads the sentinel.
    Each row block then takes three passes: one gather from the band, one
    add of the previous values (a dead column's NaN as -inf) and one
    argmax, whose value is read back.  An entry is finite exactly when it
    is a candidate; with ``pruning`` the failures are set to -inf before
    the argmax.  Each candidate is the same float sum as in the stage run
    alone, and the columns run in the same order, so each instance's
    maxima, leftmost columns and counts are those of its stage alone.
    Returns the maxima (NaN for a row without candidates), their columns
    (-1 there) and, with ``pruning``, each instance's number of candidates
    (0 without; see ``_unpruned_evaluations``).
    """
    prev = np.where(np.isnan(s_prev), -np.inf, s_prev)[:, None]
    gather = band[stage - 1 :]
    shape = (len(s_prev), sum(grid.shape[1] for grid, _ in blocks))
    best = np.empty(shape)
    dec = np.empty(shape, dtype=np.int64)
    count = 0
    r0 = 0
    for grid, starts in blocks:
        cols = grid.shape[-1]
        r1 = r0 + grid.shape[1]
        blk = gather[grid]  # not take, which copies a read-only index array
        blk += prev[..., :cols]
        if pruning:
            s_lo = s[:, None, stage - 2 : stage - 2 + cols]  # beside the new group's first particle
            s_hi = s[:, None, stage - 1 : stage - 1 + cols]
            eps = means[stage - 1 :][grid]
            blk[_surely_fails(eps_prev[:, None, :cols], eps, s_lo, s_hi)] = -np.inf
            count += np.isfinite(blk).sum(axis=(1, 2))
        dec[:, r0:r1] = at = blk.argmax(axis=2)
        best[:, r0:r1] = blk.ravel().take(starts + at)
        r0 = r1
    found = best > -np.inf
    best[~found] = np.nan
    dec[~found] = -1
    return best, dec, count


def c_optimal_degradation(q: Channel, n: int, pruning: bool = True) -> tuple[PPlusPlan, float]:
    """Capacity-optimal cut plan via the dynamic program, with its capacity.

    Every stage, the one-row last stage included, takes the leftmost row
    maxima of its matrix over the alive columns of the lower triangle (see
    ``_stage_maxima``).  With ``pruning``, an entry is computed only when
    the cut it would commit (between the previous state's decision-implied
    last group and the new group) does not surely fail the threshold-window
    test, and a state with no such entry is dropped from later stages.
    Every state on an optimal traceback passes its window tests, because
    optimal partial solutions are C-degradations of their sub-channels; the
    pruned run therefore reaches the same final capacity.  ``pruning=False``
    is the soundness baseline.  With ``pruning``, the plan and capacity are
    the pruned run's, taken from the unpruned run where it certifies them (see
    ``_optimal_cuts``); ``dp_tables`` gives the counters.  This
    is the batch of one of ``c_optimal_degradations``.
    """
    return c_optimal_degradations([q], n, pruning)[0]


def c_optimal_degradations(
    qs: list[Channel], n: int, pruning: bool = True
) -> list[tuple[PPlusPlan, float]]:
    """``c_optimal_degradation`` of each channel, in one DP over the stack.

    The channels, each with more than n particles, run stage by stage
    together; each plan and capacity equals the channel's single call bit
    for bit.  Raises the single call's ValueError for a channel with m <= n
    and its RuntimeError when any channel has no feasible traceback state.
    The stack of ``_optimal_cuts``.
    """
    qs = list(qs)
    cuts, caps = _optimal_cuts(_stack(qs), n, pruning)
    return [(PPlusPlan(q, tuple(c)), cap) for q, c, cap in zip(qs, cuts.tolist(), caps.tolist())]


def _optimal_cuts(stack: _Stack, n: int, pruning: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The cuts (B, n - 1) and capacities (B,) of ``c_optimal_degradations``
    over the members of a stack, in chunks (see ``_chunks``).

    With ``pruning``, the plans come from the unpruned DP, certified by the
    window tests of their own cuts.  A pruned state's value maximizes over a
    subset of the unpruned candidates, and float addition is monotone, so it
    never exceeds the unpruned value.  Along an unpruned traceback whose
    every cut passes its window, each winner therefore stays a candidate of
    the pruned run (its previous state has the same decision, so the same
    last group), keeps its value and stays leftmost: the pruned run has the
    same plan and capacity.  Only the few channels whose traceback fails run
    the pruned DP.
    """
    cuts = np.empty((len(stack.sizes), max(n - 1, 0)), dtype=np.int64)
    caps = np.empty(len(stack.sizes))
    for rows, part in _chunks(stack, n):
        c, cap, _, means = _dp_run(part, n, False)
        if pruning:
            failed = (~_certified(part, c, means)).nonzero()[0]
            if failed.size:
                c[failed], cap[failed] = _dp_run(_rows(part, failed), n, True)[:2]
        cuts[rows], caps[rows] = c, cap
    return cuts, caps


def dp_tables(qs: list[Channel], n: int, pruning: bool = True) -> list[tuple[PPlusPlan, DpTable]]:
    """Each channel's plan with its ``DpTable`` (capacity and counters), by
    the DP with or without ``pruning`` over stacks of the channels.

    Plans and capacities equal ``c_optimal_degradations``'s.  ``evaluations``
    counts the entries computed, the unpruned DP's in closed form
    (``_unpruned_evaluations``), so the pruned count never exceeds the
    unpruned one, and each table equals the channel's single call bit for
    bit.
    """
    qs = list(qs)
    out = []
    for rows, part in _chunks(_stack(qs), n):
        cuts, caps, (*_, evaluations, pruned_states), _ = _dp_run(part, n, pruning)
        found = zip(qs[rows], cuts.tolist(), caps.tolist(), evaluations.tolist(), pruned_states.tolist())
        out.extend((PPlusPlan(q, tuple(c)), DpTable(*table)) for q, c, *table in found)
    return out


def _chunks(stack: _Stack, n: int) -> list[tuple[slice, _Stack]]:
    """The members of a stack in chunks of at most _BATCH_ENTRIES table
    entries, each chunk's rows with its stack; every member is checked to
    have more than n particles first."""
    m = stack.sizes.tolist()
    for size in m:
        if not 2 <= n < size:
            raise ValueError(f"need 2 <= n < m, got n={n}, m={size}")
    top = max(m, default=0)
    chunk = max(1, _BATCH_ENTRIES // max((top - n + 1) * top, 1))
    return [(slice(k, k + chunk), _rows(stack, slice(k, k + chunk))) for k in range(0, len(m), chunk)]


def _certified(stack: _Stack, cuts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Whether no cut of each traceback surely fails its window test.

    ``cuts`` (B, n - 1) index the stack's crossovers and the (B, size,
    width) group means, as ``_dp_run`` returns them.  Each cut's test reads
    its two groups' table means, as the pruned kernel does for that entry,
    and the kernel's ``refine._surely_fails``, so both decide alike.
    """
    s = stack.sigmas
    k = np.arange(len(s))[:, None]
    lo = cuts - 1  # 0-indexed first particle of each group after the first
    starts = np.hstack((np.zeros_like(k), lo))
    stops = np.hstack((lo, stack.sizes[:, None]))
    eps = means[k, stops - starts - 1, starts]
    return ~_surely_fails(eps[:, :-1], eps[:, 1:], s[k, lo - 1], s[k, lo]).any(axis=1)


def _unpruned_evaluations(m, n: int):
    """The entries the unpruned DP computes for channels of m particles,
    which drops no state: column 0 is a candidate of every live row, so
    every live state stays alive and each lower-triangle entry is a
    candidate.  That is s(s + 1)/2 entries in each of the n - 2 stages
    between the first and the last and s in the last stage's one row, s =
    m - n + 1."""
    s = m - n + 1
    return (n - 2) * s * (s + 1) // 2 + s


def _dp_run(stack: _Stack, n: int, pruning: bool) -> tuple:
    """The DP over one stack, padded to its largest channel with dead states.

    What depends only on the sizes and n, the live states, the band mask
    and the kernel's gather offsets (``_stage_layout``) for the stages
    before the last and for the last stage's one row per instance, comes
    from ``_dp_layout``, built once per shape.  The kernel reads the band
    and, with ``pruning``, the means through their flat buffers, which end
    in the -inf and NaN sentinels.  Returns each channel's cuts (B, n - 1)
    and capacity (B,); the stage arrays (values, decisions, pruned flags),
    each (B, size) before the last stage and (B, 1) at it, with the (B,)
    counters (counted by the pruned kernel, in closed form without
    ``pruning``); and the (B, size, width) group means the run read.
    """
    w, s, m = stack
    width = w.shape[1]
    sizes = m - n + 1
    size = width - n + 1
    layout = _dp_layout(tuple(m.tolist()), n)
    mass, means, xbar = _segment_table(w, s, size)
    band = _band(mass, means, xbar, layout.inside)
    inst = np.arange(len(m))

    s_prev = np.where(layout.live, band[:, :, 0], np.nan)
    values = [s_prev]
    decisions = [np.full(s_prev.shape, -1, dtype=np.int64)]
    pruned = [np.zeros(s_prev.shape, dtype=bool)]
    evaluations = np.zeros(len(m), dtype=np.int64)
    # Mean crossover of each state's last group, per its stored decision
    # (read by the window tests only).
    eps_prev = means[:, :, 0]
    for stage in range(2, n + 1):
        s_prev, dec, count = _stage_maxima(
            stage,
            layout.last if stage == n else layout.stages,
            s_prev,
            eps_prev,
            band.base,
            means.base if pruning else None,
            s,
            pruning,
        )
        dead = dec < 0
        evaluations += count
        values.append(s_prev)
        decisions.append(dec)
        pruned.append(dead)
        if pruning and stage < n:
            b = np.maximum(dec, 0)  # a dead state reads any group, then NaN
            eps_prev = np.where(dead, np.nan, means.take(layout.row_at + (stage - 1) + b * (1 - width)))
    if dead.any():
        raise RuntimeError("no feasible traceback state")
    if pruning:
        # Padding rows are dead in each of the n - 2 stages between the
        # first and the last.
        pruned_states = np.hstack(pruned[1:]).sum(axis=1) - (n - 2) * (size - sizes)
    else:
        evaluations, pruned_states = _unpruned_evaluations(m, n), np.zeros_like(m)

    row = np.zeros(len(m), dtype=np.int64)
    cuts = np.empty((len(m), n - 1), dtype=np.int64)
    for stage in range(n, 1, -1):
        row = decisions[stage - 1][inst, row]
        cuts[:, stage - 2] = stage + row  # group `stage` starts after state (stage - 1, row)
    stages = (values, decisions, pruned, evaluations, pruned_states)
    return cuts, s_prev[:, 0], stages, means


def tv_greedy_plan(q: Channel, n: int) -> PPlusPlan:
    """Greedy least-capacity-loss adjacent merging, as a cut plan.

    Repeatedly merges the adjacent group pair whose collapse to the joint
    mean loses the least capacity until n groups remain; on tied losses the
    leftmost pair merges.  The pair losses sit in a heap keyed by (loss,
    left edge), so each merge re-scores only the two pairs that touch the
    merged group: O(m log m) heap steps.  Every iota of a group of up to
    L = min(m - n + 1, _BATCH_ENTRIES // m) particles (the DP's table
    depth, capped by its chunk size; at least 2) is read from one bounded
    ``_segment_table``; only a longer group has its terms built and summed
    forward on its own, as the table would sum it.
    """
    m = q.size
    if not (2 <= n <= m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    depth = max(2, min(m - n + 1, _BATCH_ENTRIES // m))
    band = _band(*_segment_table(q.weights, q.sigmas, depth), _inside(m, depth))
    gain, pair = band[:2].tolist()  # each particle, each adjacent pair

    def iota(a: int, c: int) -> float:
        # Particles a..c-1 (0-indexed).  Past the table, the same forward
        # sums from particle a and the same capacity term give the entry
        # a deeper table would hold.
        if c - a <= depth:
            return band.item(c - a - 1, a)
        mass, moment, bias = np.cumsum(_segment_terms(q.weights[a:c], q.sigmas[a:c]), axis=1)[:, -1]
        return float(mass * _capacity_term(moment / mass, bias / mass))

    # Group edges as a linked list: the live group starting at edge e is
    # [e, nxt[e]), prv[e] is its left neighbour's edge, and gain[e] its
    # iota.  A removed edge gets nxt = -1.
    nxt = list(range(1, m + 2))
    prv = list(range(-1, m))
    # A pair's loss is iota(a, b) + iota(b, c) - iota(a, c) in that order,
    # from iotas equal to a full table's entries, so every loss, and hence
    # every merge, matches a full re-scoring scan bit for bit.
    heap = [(gain[a] + gain[a + 1] - pair[a], a, a + 1, a + 2) for a in range(m - 1)]
    heapq.heapify(heap)
    for _ in range(m - n):
        while True:
            _, a, b, c = heapq.heappop(heap)
            if nxt[a] == b and nxt[b] == c:
                break  # both groups still live and adjacent; else stale
        nxt[a] = c
        nxt[b] = -1
        prv[c] = a
        gain[a] = iota(a, c)
        if a > 0:
            p = prv[a]
            heapq.heappush(heap, (gain[p] + gain[a] - iota(p, c), p, a, c))
        if c < m:
            d = nxt[c]
            heapq.heappush(heap, (gain[a] + gain[c] - iota(a, d), a, c, d))
    # The live edges after the first start the groups after the first.
    return PPlusPlan(q, tuple(e + 1 for e in range(1, m) if nxt[e] >= 0))
