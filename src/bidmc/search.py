"""Search for capacity-optimal contiguous-group degradations.

The capacity-optimal 2n-output degradation of Q = sum_i q_i B(sigma_i) is a
cut plan, so the search space is the cut vectors 1 < k_1 < ... < k_{n-1} <=
m.  Three searchers are provided:

- ``enumerate_c_degradations``: depth-first enumeration of exactly the cut
  plans passing every threshold-window test (the C-degradations), with
  incremental means and early window cut-off;
- ``brute_force_c_optimal``: direct maximization over all cut vectors,
  guarded by a combinatorial bound (the independent oracle);
- ``c_optimal_degradation``: dynamic program over partial degradations,
  one masked numpy kernel per stage, optionally pruning entries whose
  committed cut surely fails a threshold-window test (every optimal
  traceback passes them, so the pruning is sound).

The DP state value S_j(i) is the maximum partial capacity over degradations
of the first i particles into j groups:

    S_j(i) = max_{j-1 <= a < i} S_{j-1}(a) + iota(a + 1, i)

with iota(s, e) the capacity contribution mass * (1 - h(mean)) of collapsing
particles s..e into one.  Stage j's values form a matrix over (row a = end
state, column b = previous state) whose feasible lower triangle is totally
monotone.  The DP takes each row's leftmost maximum over that triangle
directly; ``StageMatrix`` exposes the same matrix, with a dominated sentinel
in the upper triangle, to SMAWK (``smawk.py``), which the tests keep as an
independent reference.  The greedy merge baseline ``tv_greedy_plan`` (and
``tv_greedy_degrade``), after Tal & Vardy, is included for the capacity-loss
comparisons; it keeps the adjacent pair losses in a heap with lazy
invalidation, so each merge re-scores only the merged group's two pairs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Channel, binary_entropy
from .refine import PHI_STRICT_TOL, PPlusPlan, _group_stat, _threshold, realize_pplus

__all__ = [
    "BRUTE_FORCE_GUARD",
    "DpTable",
    "StageMatrix",
    "iota_band",
    "enumerate_c_degradations",
    "brute_force_c_optimal",
    "c_optimal_degradation",
    "tv_greedy_plan",
    "tv_greedy_degrade",
]

BRUTE_FORCE_GUARD = 10**6

_SENTINEL_DEAD = -1e9


# Rows per block of the stage kernel and offsets per block of ``iota_band``,
# which bounds their temporaries to about _STAGE_BLOCK x m entries.
_STAGE_BLOCK = 32


def iota_band(q: Channel, max_len: int) -> np.ndarray:
    """Partial-capacity table: band[d, s] for particles s..s+d (1-indexed s).

    band[d, s] = mass * (1 - h(mean)) of the group of d+1 particles starting
    at s; entries outside 1 <= s <= m - d are NaN.  Built from prefix sums
    of q and q * sigma, in blocks of _STAGE_BLOCK offsets.
    """
    m = q.size
    w = q.weights
    s = q.sigmas
    cq = np.concatenate([[0.0], np.cumsum(w)])
    cqs = np.concatenate([[0.0], np.cumsum(w * s)])
    band = np.full((max_len, m + 1), np.nan)
    band[0, 1 : m + 1] = w * (1.0 - binary_entropy(s))
    for d0 in range(1, max_len, _STAGE_BLOCK):
        d, start = np.broadcast_arrays(
            np.arange(d0, min(d0 + _STAGE_BLOCK, max_len))[:, None],
            np.arange(1, m - d0 + 1)[None, :],
        )
        keep = start + d <= m
        d, start = d[keep], start[keep]
        mass = cq[start + d] - cq[start - 1]
        mean = (cqs[start + d] - cqs[start - 1]) / mass
        band[d, start] = mass * (1.0 - binary_entropy(mean))
    return band


@dataclass
class DpTable:
    """Per-stage maxima, decision pointers and pruning bookkeeping.

    ``values[j]`` holds S_{j+1} over band offsets (i = j + 1 + offset for
    stages before the last, a single entry for the last); NaN marks states
    never computed.  ``decisions[j]`` holds the chosen previous band offset,
    -1 where unavailable.  ``pruned[j]`` flags skipped states.
    """

    values: list[np.ndarray]
    decisions: list[np.ndarray]
    pruned: list[np.ndarray]
    evaluations: int = 0
    pruned_states: int = 0
    capacity: float = math.nan


class StageMatrix:
    """Implicit totally monotone DP stage matrix.

    Row a corresponds to covering particles up to j + a with j groups,
    column b to the previous state at particle j - 1 + b.  The feasible
    lower triangle (b <= a) is S_prev[b] + iota(j + b, j + a); the upper
    triangle holds the dominated sentinel 1 - 2(b - a).  Lower-triangle
    evaluations are memoized and counted.
    """

    def __init__(self, stage: int, s_prev: np.ndarray, band: np.ndarray, size: int):
        self.stage = stage
        self.s_prev = s_prev
        self.band = band
        self.nrows = size
        self.ncols = size
        self._memo: dict[tuple[int, int], float] = {}
        self.evaluations = 0

    def value(self, a: int, b: int) -> float:
        if b > a:
            return 1.0 - 2.0 * (b - a)
        key = (a, b)
        v = self._memo.get(key)
        if v is None:
            prev = self.s_prev[b]
            if np.isnan(prev):
                v = _SENTINEL_DEAD + b - a
            else:
                v = float(prev) + float(self.band[a - b, self.stage + b])
                self.evaluations += 1
            self._memo[key] = v
        return v


def enumerate_c_degradations(q: Channel, n: int) -> list[PPlusPlan]:
    """All cut plans passing every threshold-window test, in cut order.

    Output equals filtering every cut vector through is_c_degradation; the
    depth-first search merely skips cut extensions once the running window
    threshold has passed the upper sigma (the threshold is increasing in
    the right group's mean).
    """
    m = q.size
    if not (2 <= n < m):
        raise ValueError(f"need 2 <= n < m, got n={n}, m={m}")
    w = q.weights
    s = q.sigmas
    out: list[PPlusPlan] = []
    cuts: list[int] = []

    def rec(j: int, start: int, eps_prev: float) -> None:
        sig_lo, sig_hi = s[start - 2], s[start - 1]
        if j == n:
            _, eps = _group_stat(w, s, start - 1, m)
            t = _threshold(eps_prev, eps)
            if not (t - sig_lo <= PHI_STRICT_TOL or sig_hi - t <= PHI_STRICT_TOL):
                out.append(PPlusPlan(q, tuple(cuts)))
            return
        for k in range(start + 1, m - n + j + 2):
            _, eps = _group_stat(w, s, start - 1, k - 1)
            if j > 1:
                t = _threshold(eps_prev, eps)
                # Once the threshold reaches the upper sigma, no larger
                # right group passes.
                if sig_hi - t <= PHI_STRICT_TOL:
                    break
                if t - sig_lo <= PHI_STRICT_TOL:
                    continue
            cuts.append(k)
            rec(j + 1, k, eps)
            cuts.pop()

    rec(1, 1, 0.0)
    return out


@lru_cache(maxsize=8)
def _cut_vectors(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All cut vectors for (m, n) plus their group start/end index arrays."""
    count = math.comb(m - 1, n - 1)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(2, m + 1), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    starts = np.hstack([np.ones((count, 1), dtype=np.int64), combos])
    ends = np.hstack([combos - 1, np.full((count, 1), m, dtype=np.int64)])
    return combos, starts, ends


def brute_force_c_optimal(q: Channel, n: int) -> tuple[PPlusPlan, float]:
    """Capacity-maximizing cut plan by direct enumeration (the oracle).

    Ties break to the lexicographically smallest cut vector.  Guarded by
    BRUTE_FORCE_GUARD on the number of cut vectors.
    """
    m = q.size
    if n == m:
        return PPlusPlan(q, tuple(range(2, m + 1))), float(np.dot(q.weights, 1.0 - binary_entropy(q.sigmas)))
    if not (2 <= n < m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    if math.comb(m - 1, n - 1) > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"{math.comb(m - 1, n - 1)} cut vectors exceed the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    band = iota_band(q, m - n + 1)
    combos, starts, ends = _cut_vectors(m, n)
    caps = band[(ends - starts), starts].sum(axis=1)
    best = int(np.argmax(caps))
    return PPlusPlan(q, tuple(int(k) for k in combos[best])), float(caps[best])


def _stage_maxima(
    stage: int,
    rows: np.ndarray,
    s_prev: np.ndarray,
    eps_prev: np.ndarray,
    band: np.ndarray,
    prefix: tuple[np.ndarray, np.ndarray],
    s: np.ndarray,
    pruning: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Leftmost row maxima of one DP stage over its candidate entries.

    Entry (a, b) is s_prev[b] + iota(stage + b, stage + a): row a covers
    particles up to stage + a, and the new group starts after the state at
    column b.  It is a candidate when b <= a, column b is alive (s_prev not
    NaN) and, with ``pruning``, the cut it commits does not surely fail its
    window (a margin below -PHI_STRICT_TOL).  Only candidates are computed,
    and a NaN candidate is never selected.  Returns the maxima (NaN for a
    row without candidates), their columns (-1 there) and the number of
    candidates.
    """
    cq, cqs = prefix
    cols = np.flatnonzero(~np.isnan(s_prev))
    best = np.full(rows.size, np.nan)
    dec = np.full(rows.size, -1, dtype=np.int64)
    count = 0
    for r0 in range(0, rows.size, _STAGE_BLOCK):
        a = rows[r0 : r0 + _STAGE_BLOCK]
        b = cols[: np.searchsorted(cols, a[-1], side="right")]
        mask = b[None, :] <= a[:, None]
        if pruning:
            hi = (stage + a)[:, None]
            lo = stage + b - 1  # prefix index before the new group
            with np.errstate(divide="ignore", invalid="ignore"):  # b > a
                eps = (cqs[hi] - cqs[lo]) / (cq[hi] - cq[lo])
            t = _threshold(eps_prev[b], eps)
            # Sure failures only: a near-tie or prefix-sum round-off must not prune the optimal path.
            mask &= ~((t - s[lo - 1] < -PHI_STRICT_TOL) | (s[lo] - t < -PHI_STRICT_TOL))
        ri, ci = np.nonzero(mask)
        count += ri.size
        bc = b[ci]
        vals = s_prev[bc] + band[a[ri] - bc, stage + bc]
        vals[np.isnan(vals)] = -np.inf
        blk = np.full(mask.shape, -np.inf)
        blk[ri, ci] = vals
        arg = blk.argmax(axis=1)
        top = blk[np.arange(a.size), arg]
        live = np.flatnonzero(top > -np.inf)
        best[r0 + live] = top[live]
        dec[r0 + live] = b[arg[live]]
    return best, dec, count


def c_optimal_degradation(
    q: Channel, n: int, pruning: bool = True
) -> tuple[PPlusPlan, DpTable]:
    """Capacity-optimal cut plan via the dynamic program.

    Every stage, the one-row last stage included, takes the leftmost row
    maxima of its matrix over the alive columns of the lower triangle (see
    ``_stage_maxima``).  With ``pruning``, an entry is computed only when
    the cut it would commit (between the previous state's decision-implied
    last group and the new group) does not surely fail the threshold-window
    test, and a state with no such entry is dropped from later stages.
    Every state on an optimal traceback passes its window tests, because
    optimal partial solutions are C-degradations of their sub-channels; the
    pruned run therefore reaches the same final capacity.  ``evaluations`` counts the
    entries computed, so the pruned count never exceeds the unpruned one.
    ``pruning=False`` is the soundness baseline.
    """
    m = q.size
    if not (2 <= n < m):
        raise ValueError(f"need 2 <= n < m, got n={n}, m={m}")
    w = q.weights
    s = q.sigmas
    size = m - n + 1
    band = iota_band(q, size)
    cq = np.concatenate([[0.0], np.cumsum(w)])
    cqs = np.concatenate([[0.0], np.cumsum(w * s)])
    offsets = np.arange(size)

    s_prev = band[offsets, 1]
    table = DpTable(
        values=[s_prev],
        decisions=[np.full(size, -1, dtype=np.int64)],
        pruned=[np.zeros(size, dtype=bool)],
    )
    # Mean crossover of each state's last group, per its stored decision.
    eps_prev = (cqs[1 : size + 1] - cqs[0]) / (cq[1 : size + 1] - cq[0])
    for stage in range(2, n + 1):
        rows = offsets if stage < n else offsets[-1:]
        s_prev, dec, count = _stage_maxima(
            stage, rows, s_prev, eps_prev, band, (cq, cqs), s, pruning
        )
        dead = dec < 0
        table.evaluations += count
        table.pruned_states += int(dead.sum())
        table.values.append(s_prev)
        table.decisions.append(dec)
        table.pruned.append(dead)
        hi, lo = stage + rows, stage + dec - 1
        eps_prev = np.where(dead, np.nan, (cqs[hi] - cqs[lo]) / (cq[hi] - cq[lo]))
    if dead[0]:
        raise RuntimeError("no feasible traceback state")
    table.capacity = float(s_prev[0])

    cuts = []
    row = 0
    for stage in range(n, 1, -1):
        row = int(table.decisions[stage - 1][row])
        cuts.append(stage + row)  # group `stage` starts after state (stage - 1, row)
    cuts.reverse()
    return PPlusPlan(q, tuple(cuts)), table


def tv_greedy_plan(q: Channel, n: int) -> PPlusPlan:
    """Greedy least-capacity-loss adjacent merging, as a cut plan.

    Repeatedly merges the adjacent group pair whose collapse to the joint
    mean loses the least capacity until n groups remain; on tied losses the
    leftmost pair merges.  The pair losses sit in a heap keyed by (loss,
    left edge), so each merge re-scores only the two pairs that touch the
    merged group: O(m log m) time and O(m) scalar entropy evaluations.
    """
    m = q.size
    if not (2 <= n <= m):
        raise ValueError(f"need 2 <= n <= m, got n={n}, m={m}")
    w = q.weights
    s = q.sigmas
    cq = np.concatenate([[0.0], np.cumsum(w)])
    cqs = np.concatenate([[0.0], np.cumsum(w * s)])

    def iota(a: int, b: int) -> float:  # particles a..b-1, 0-indexed half-open
        mass = float(cq[b] - cq[a])
        mean = float(cqs[b] - cqs[a]) / mass
        return mass * (1.0 - float(binary_entropy(mean)))

    # Group edges as a linked list: the live group starting at edge e is
    # [e, nxt[e]), prv[e] is its left neighbour's edge, and gain[e] its
    # iota.  A removed edge gets nxt = -1.
    nxt = list(range(1, m + 2))
    prv = list(range(-1, m))
    gain = [iota(e, e + 1) for e in range(m)]
    # A pair's loss is iota(a, b) + iota(b, c) - iota(a, c) in that order,
    # from cached iotas equal to recomputed ones, so every loss, and hence
    # every merge, matches a full re-scoring scan bit for bit.
    heap = [(gain[a] + gain[a + 1] - iota(a, a + 2), a, a + 1, a + 2) for a in range(m - 1)]
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
    cuts = []
    e = nxt[0]
    while e < m:
        cuts.append(e + 1)
        e = nxt[e]
    return PPlusPlan(q, tuple(cuts))


def tv_greedy_degrade(q: Channel, n: int) -> Channel:
    """Channel produced by the greedy merge baseline (n = m is identity)."""
    if n == q.size:
        return q
    return realize_pplus(tv_greedy_plan(q, n))
