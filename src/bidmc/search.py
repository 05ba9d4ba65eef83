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
  staircase (instance, row, column) blocks of the lower triangle: an add
  of the previous values (dead ones as -inf) to a strided view of the
  capacity band, whose fixed steps along rows and columns read each stage
  entry with no index array (entries above the diagonal read the -inf rows
  that pad the band's buffer), and a row argmax.  It optionally prunes
  entries whose committed cut surely fails a threshold-window test (every
  optimal traceback passes them, so the pruning is sound).  Ragged sizes are
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
particles s..e into one.  Group masses, means and iotas come from one
table, ``_segments``: forward sums of nonnegative terms from each group's
first particle, so the band, the DP's pruning means, enumeration, the
greedy merge, ``PPlusPlan.group_stats`` and the window tests all see the
same means, and none cancels.  The capacity term is
``channel._capacity_term``, accurate for means within round-off of 1/2.
Stage j's values form a matrix over (row a = end state, column b =
previous state) whose feasible lower triangle is totally monotone.  The DP
takes each row's leftmost maximum over that triangle directly; the tests
check it against SMAWK.  The greedy merge baseline ``tv_greedy_plan``,
after Tal & Vardy, is included for the capacity-loss comparisons.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .channel import Channel, _capacity_term, _rows, _Stack, _stack
from .refine import PPlusPlan, _surely_fails, _window

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
# stage kernel reads stay in cache: on a 2-core Xeon VM, criterion
# 05's stacks at m = 128, n = 10 took 0.94-1.26 ms per instance at 2^16
# and 2^17 against 1.19-1.53 ms at 2^18 (m = 32 and 64 alike), and
# m = 16 the same at all three.
_BATCH_ENTRIES = 1 << 17


@lru_cache(maxsize=16)
def _inside(m, max_len: int) -> np.ndarray:
    """Which entries [d, i] of (max_len, width) segment tables hold a group
    inside its channel, i + d < m; over a stack of sizes ``m`` (a tuple of
    B, hashable for the cache), the (B, max_len, width) mask, with width
    the largest size.

    Cached, read-only.  On a 2-core Xeon VM, over the 580 opt-uniform
    benchmark inputs (m = 128, n = 4..10) in a loop, building the mask in
    each DP run cost about 21 us alone, and its allocations pushed glibc's
    heap past its trim threshold: 248 minor page faults per
    ``c_optimal_degradation`` against 0 cached, and 1.09-1.13 ms per call
    against 0.70-0.87 ms.  The 16 entries hold the 7 shapes that the DP and
    the greedy share on the arikan-baselines inputs.
    """
    mask = np.arange(np.max(m)) < np.asarray(m)[..., None, None] - np.arange(max_len)[:, None]
    mask.flags.writeable = False
    return mask


class _Segments(NamedTuple):
    """The contiguous groups of a stack's members, as ``_segments`` builds
    them: entry [k, d, i] of each (B, depth, width) table is member k's
    group of particles i..i+d (0-indexed)."""

    mass: np.ndarray
    means: np.ndarray
    band: np.ndarray


def _segment_terms(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows q, q sigma and q (1 - 2 sigma): the summands of group statistics.

    Over a stack of channels, shape (..., m), the rows stack on axis -2.
    """
    return np.stack((q, q * s, q * (1.0 - 2.0 * s)), axis=-2)


def _padded(shape: tuple, pad: int, fill: float) -> np.ndarray:
    """An uninitialized float array of ``shape`` (..., rows, columns),
    viewing a buffer (its ``base``) with ``pad`` further leading rows of
    ``fill``, which the DP's strided reads above the diagonal reach (see
    ``_diagonals``)."""
    buf = np.empty(shape[:-2] + (pad + shape[-2], shape[-1]))
    buf[..., :pad, :] = fill
    return buf[..., pad:, :]


def _segments(stack: _Stack, depth: int, pad: int, mean_pad: int) -> _Segments:
    """Mass, mean crossover and capacity term iota of the groups of up to
    ``depth`` particles of each member of a stack: the one table that every
    searcher reads.

    Each statistic is a forward sum, from the group's first particle, of
    the nonnegative terms q, q sigma and q (1 - 2 sigma), so no mass or
    moment cancels and a mean stays within round-off of its group's
    crossovers.  A singleton takes its sigma and 1 - 2 sigma exactly.  The
    stack's zero padding changes no sum, so every group inside a member
    reads exactly the single channel's entry; where i + d reaches past the
    member's end the sums stop at its last particle, groups starting in the
    padding have mass 0 and NaN means, and the band is NaN outside
    ``_inside``.  The band holds mass * (1 - h(mean)) from
    ``_capacity_term`` of the mean and of x = 1 - 2 sigma summed alike;
    the x table is divided in place and never leaves, which keeps the DP's
    peak memory, and so its heap's page faults, down.

    The band is a ``_padded`` view whose buffer starts with ``pad`` rows of
    -inf, and the means one with ``mean_pad`` rows of NaN, which the DP's
    strided views read above the diagonal.
    """
    q, s, m = stack
    width = q.shape[-1]
    terms = np.zeros(q.shape[:-1] + (3, width + depth - 1))
    terms[..., :width] = _segment_terms(q, s)
    # windows[..., k, d, i] = terms[..., k, i + d], a view (cheaper to build
    # than sliding_window_view's, which matters at small m).
    windows = as_strided(
        terms, terms.shape[:-1] + (depth, width), terms.strides + terms.strides[-1:], writeable=False
    )
    sums = np.cumsum(windows, axis=-2)
    mass, moment, bias = (sums[..., k, :, :] for k in range(3))
    means = _padded(mass.shape, mean_pad, np.nan)
    with np.errstate(invalid="ignore"):
        np.divide(moment, mass, out=means)
        xbar = np.divide(bias, mass, out=bias)
    means[..., 0, :] = s
    xbar[..., 0, :] = 1.0 - 2.0 * s
    band = _padded(mass.shape, pad, -np.inf)
    band.fill(np.nan)
    _capacity_term(means, xbar, band, _inside(tuple(m.tolist()), depth))
    return _Segments(mass, means, np.multiply(band, mass, out=band))


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
        means = _segments(_stack([q]), m - n + 1, 0, 0).means[0]
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
    band = _segments(_stack([q]), m - n + 1, 0, 0).band[0]
    caps = np.zeros(1)
    for j in range(1, n):
        start = cuts[j - 1][parents[j - 1]]  # group j, particles start..cut - 1
        caps = caps[parents[j - 1]] + band[cuts[j] - 1 - start, start - 1]
    caps += band[m - cuts[-1], cuts[-1] - 1]  # the last group, cut..m
    best = int(np.argmax(caps))
    return PPlusPlan(q, tuple(_trace(cuts, parents, [best])[0].tolist())), float(caps[best])


def _diagonals(table: np.ndarray, stage: int, a0: int, rows: int, cols: int) -> np.ndarray:
    """The entries (a, b) of rows a0..a0 + rows - 1 and columns b < cols of
    one DP stage over a stack, as a (B, rows, cols) view of the (B, size,
    width) table ``table``: entry [k, a - b, stage - 1 + b], the group of
    particles stage + b..stage + a (1-indexed).

    Along a the view steps one table row, and along b one row back and one
    column on, so no index is stored.  ``table`` is a ``_padded`` view,
    and an entry above the diagonal, b > a, reads a row of its buffer's
    padding; numpy checks the view's extent against that buffer.
    """
    buf = table.base
    row, item = table.strides[1:]
    start = (buf.shape[1] - table.shape[1] + a0) * row + (stage - 1) * item
    return np.ndarray((len(table), rows, cols), table.dtype, buf, start, (buf.strides[0], row, item - row))


def _stage_maxima(
    stage: int,
    live: np.ndarray,
    s_prev: np.ndarray,
    eps_prev: np.ndarray,
    band: np.ndarray,
    means: np.ndarray,
    s: np.ndarray,
    pruning: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leftmost row maxima of one DP stage over a stack of instances, for
    the last R rows a0..size - 1 of the (B, size, width) band, with
    ``live`` (B, R) the rows that are instance k's own.

    Instance k's entry (a, b) is s_prev[k, b] + iota(stage + b, stage + a):
    row a covers particles up to stage + a, and the new group starts after
    the state at column b.  It is a candidate when b <= a, column b is
    alive (s_prev not NaN) and, with ``pruning``, the cut it commits does
    not surely fail its window (``refine._surely_fails``).  Each staircase
    block of _STAGE_BLOCK rows, with columns up to its last row, takes
    two passes: one add of the previous values (a dead column's NaN as
    -inf) to the band's strided view (``_diagonals``), whose entries above
    the diagonal read the band's -inf padding, and one argmax, whose value
    is read back.  On its own rows an entry is finite exactly when it is a
    candidate; with ``pruning`` the failures are set to -inf before the
    argmax, reading ``means`` through the same view.  Rows that are not
    the instance's own read groups past its end and are neither counted
    nor kept.  Each candidate is the same float sum as in the stage run
    alone, and the columns run in the same order, so each instance's
    maxima, leftmost columns and counts are those of its stage alone.
    Returns the maxima (NaN for a row without candidates, or not the
    instance's own), their columns (-1 there) and, with ``pruning``, each
    instance's number of candidates (0 without; see
    ``_unpruned_evaluations``).
    """
    prev = np.where(np.isnan(s_prev), -np.inf, s_prev)[:, None]
    a0 = band.shape[1] - live.shape[1]
    best = np.empty(live.shape)
    dec = np.empty(live.shape, dtype=np.int64)
    count = 0
    for r0 in range(0, live.shape[1], _STAGE_BLOCK):
        r1 = min(r0 + _STAGE_BLOCK, live.shape[1])
        cols = a0 + r1
        blk = _diagonals(band, stage, a0 + r0, r1 - r0, cols) + prev[..., :cols]
        if pruning:
            s_lo = s[:, None, stage - 2 : stage - 2 + cols]  # beside the new group's first particle
            s_hi = s[:, None, stage - 1 : stage - 1 + cols]
            eps = _diagonals(means, stage, a0 + r0, r1 - r0, cols)
            blk[_surely_fails(eps_prev[:, None, :cols], eps, s_lo, s_hi)] = -np.inf
            count += np.where(live[:, r0:r1], np.isfinite(blk).sum(axis=2), 0).sum(axis=1)
        dec[:, r0:r1] = at = blk.argmax(axis=2)
        best[:, r0:r1] = blk.ravel().take(np.arange(0, blk.size, cols).reshape(at.shape) + at)
    found = live & (best > -np.inf)
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


def _optimal_cuts(stack: _Stack, n: int, pruning: bool) -> tuple[np.ndarray, np.ndarray]:
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
        c, cap, _, seg = _dp_run(part, n, False)
        if pruning:
            failed = (~_certified(part, c, seg)).nonzero()[0]
            if failed.size:
                c[failed], cap[failed] = _dp_run(_rows(part, failed), n, True)[:2]
        cuts[rows], caps[rows] = c, cap
    return cuts, caps


def dp_tables(qs: list[Channel], n: int, pruning: bool) -> list[tuple[PPlusPlan, DpTable]]:
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


def _certified(stack: _Stack, cuts: np.ndarray, seg: _Segments) -> np.ndarray:
    """Whether no cut of each traceback surely fails its window test.

    ``cuts`` (B, n - 1) index the stack's crossovers and the group means of
    the segments ``seg``, as ``_dp_run`` returns them.  Each cut's test reads
    its two groups' table means, as the pruned kernel does for that entry,
    and the kernel's ``refine._surely_fails``, so both decide alike.
    """
    s = stack.sigmas
    k = np.arange(len(s))[:, None]
    lo = cuts - 1  # 0-indexed first particle of each group after the first
    starts = np.hstack((np.zeros_like(k), lo))
    stops = np.hstack((lo, stack.sizes[:, None]))
    eps = seg.means[k, stops - starts - 1, starts]
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

    The band starts with min(_STAGE_BLOCK, size) - 1 padding rows of -inf,
    and with ``pruning`` the means with as many of NaN, which the kernel's
    strided views read above the diagonal (see ``_diagonals``); the
    unpruned kernel reads no means.  The stages before the last run over
    every row, each instance's own rows live; the last runs over rows
    min(sizes) - 1 onwards, and each instance keeps its row sizes[k] - 1.
    Returns each channel's cuts (B, n - 1) and capacity (B,); the stage
    arrays (values, decisions; a pruned state is one whose decision is
    negative), each (B, size) before the last stage and (B, 1) at it, with
    the (B,) counters (counted as the stages run with ``pruning``, in
    closed form without it); and the segments (``_segments``) the run
    read.
    """
    w, s, m = stack
    sizes = m - n + 1
    size = w.shape[1] - n + 1
    pad = min(_STAGE_BLOCK, size) - 1
    seg = _segments(stack, size, pad, pad if pruning else 0)
    _, means, band = seg
    inst = np.arange(len(m))
    offsets = np.arange(size)
    live = offsets < sizes[:, None]
    last = offsets[sizes.min() - 1 :] == sizes[:, None] - 1  # each instance's last row

    s_prev = np.where(live, band[:, :, 0], np.nan)
    values = [s_prev]
    decisions = [np.full(s_prev.shape, -1, dtype=np.int64)]
    evaluations, pruned_states = np.zeros((2, len(m)), dtype=np.int64)
    # Mean crossover of each state's last group, per its stored decision
    # (read by the window tests only).
    eps_prev = means[:, :, 0]
    for stage in range(2, n + 1):
        own = last if stage == n else live
        s_prev, dec, count = _stage_maxima(stage, own, s_prev, eps_prev, band, means, s, pruning)
        if stage == n:
            s_prev, dec = s_prev[own][:, None], dec[own][:, None]
        dead = dec < 0
        evaluations += count
        pruned_states += dead.sum(axis=1)
        values.append(s_prev)
        decisions.append(dec)
        if pruning and stage < n:
            b = np.maximum(dec, 0)  # a dead state reads any group, then NaN
            eps_prev = np.where(dead, np.nan, means[inst[:, None], offsets - b, stage - 1 + b])
    if dead.any():
        raise RuntimeError("no feasible traceback state")
    if pruning:
        # Padding rows are dead in each of the n - 2 stages between the
        # first and the last.
        pruned_states -= (n - 2) * (size - sizes)
    else:
        evaluations, pruned_states = _unpruned_evaluations(m, n), np.zeros_like(m)

    row = np.zeros(len(m), dtype=np.int64)
    cuts = np.empty((len(m), n - 1), dtype=np.int64)
    for stage in range(n, 1, -1):
        row = decisions[stage - 1][inst, row]
        cuts[:, stage - 2] = stage + row  # group `stage` starts after state (stage - 1, row)
    stages = (values, decisions, evaluations, pruned_states)
    return cuts, s_prev[:, 0], stages, seg


def tv_greedy_plan(q: Channel, n: int) -> PPlusPlan:
    """Greedy least-capacity-loss adjacent merging, as a cut plan.

    Repeatedly merges the adjacent group pair whose collapse to the joint
    mean loses the least capacity until n groups remain; on tied losses the
    leftmost pair merges.  The pair losses sit in a heap keyed by (loss,
    left edge), so each merge re-scores only the two pairs that touch the
    merged group: O(m log m) heap steps.  Every iota of a group of up to
    L = min(m - n + 1, _BATCH_ENTRIES // m) particles (the DP's table
    depth, capped by its chunk size; at least 2) is read from one bounded
    ``_segments`` band; only a longer group has its terms built and summed
    forward on its own, as the table would sum it.
    """
    m = q.size
    if not (2 <= n <= m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    depth = max(2, min(m - n + 1, _BATCH_ENTRIES // m))
    band = _segments(_stack([q]), depth, 0, 0).band[0]
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
