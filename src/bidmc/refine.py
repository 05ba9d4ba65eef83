"""Segment-structured minimum-error degradations and their refinement.

Every minimum-error (P-) degradation of Q = sum_i q_i B(sigma_i) is itself a
degradation of one built from consecutive *segments* of Q: particle j of the
degraded channel is compounded (mass-weighted-mean collapsed) from a run of
Q's particles, where adjacent runs share at most one boundary particle.
Such a plan is described by splitting patterns (i_2..i_n; s_2..s_n): segment
j starts with mass s_j of particle i_j, takes particles strictly between i_j
and i_{j+1} whole, and ends with mass q_{i_{j+1}} - s_{j+1} of particle
i_{j+1}.  We call these segment plans (P*-degradations).  When every split
is 0 or the full particle weight, segments are contiguous whole-particle
groups described by a cut vector k_1 < ... < k_{n-1} (P+-degradations, cut
plans).

Capacity refinement revolves around the threshold crossover

    split_threshold(e1, e2) = ln((1-e1)/(1-e2)) / ln((1-e1)e2 / ((1-e2)e1))

which always lies strictly between e1 and e2.  Moving boundary mass between
adjacent segments with means e1 < e2 raises capacity exactly when the mass
sits on the wrong side of the threshold, so a capacity-optimal degradation
must be a cut plan whose every cut k_j satisfies the strict window

    sigma_{k_j - 1} < split_threshold(eps_j, eps_{j+1}) < sigma_{k_j}.

Cut plans passing every window test are the C-degradations: the candidate
set that provably contains every capacity-optimal degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blackwell import OneMatrix, find_degradation_witness
from .channel import Channel, canonicalize

__all__ = [
    "PHI_STRICT_TOL",
    "InvalidPlanError",
    "DegradationOrderError",
    "PStarPlan",
    "PPlusPlan",
    "realize_pstar",
    "realize_pplus",
    "pplus_as_pstar",
    "plan_witness",
    "improving_moves",
    "to_pstar_plan",
    "split_threshold",
    "refine_cuts",
    "is_c_degradation",
]

# Window tests treat a threshold within this distance of a boundary sigma as
# failing: exact equality is a local capacity minimum, so the conservative
# verdict is "not a C-degradation".  The DP's pruning takes the other side
# and drops only thresholds beyond a boundary by more than this.
PHI_STRICT_TOL = 1e-12

_MASS_TOL = 1e-15


class InvalidPlanError(ValueError):
    """Raised for structurally invalid segment or cut plans."""


class DegradationOrderError(ValueError):
    """Raised when a required degradation relation does not hold."""


def _threshold(eps_l, eps_r) -> np.ndarray:
    """split_threshold elementwise over broadcast arrays, NaN outside its domain.

    This is the one place the threshold is computed.  Window tests compare
    the margins t - sigma_lo and sigma_hi - t with PHI_STRICT_TOL; a NaN
    margin compares false, so it never fails, moves or prunes a cut.
    Out-of-domain means are boundary cuts (left mean 0 or right mean 1/2),
    whose structure is forced in any valid plan, or means out of order,
    which only round-off produces.
    """
    eps_l = np.asarray(eps_l, dtype=np.float64)
    eps_r = np.asarray(eps_r, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = eps_r - eps_l
        num = np.log1p(d / (1.0 - eps_r))
        t = num / (num + np.log1p(d / eps_l))
    return np.where((0.0 < eps_l) & (eps_l < eps_r) & (eps_r < 0.5), t, np.nan)


def split_threshold(eps1: float, eps2: float) -> float:
    """Threshold crossover separating "join left group" from "join right".

    Defined for 0 < eps1 < eps2 < 1/2 and always strictly inside
    (eps1, eps2).  Strictly increasing in both arguments.
    """
    if not (0.0 < eps1 < eps2 < 0.5):
        raise ValueError(f"split_threshold needs 0 < eps1 < eps2 < 1/2, got ({eps1}, {eps2})")
    return float(_threshold(eps1, eps2))


def _segment_terms(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows q, q sigma and q (1 - 2 sigma): the summands of group statistics."""
    return np.stack((q, q * s, q * (1.0 - 2.0 * s)))


def _segment_table(
    q: np.ndarray, s: np.ndarray, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass, mean crossover and mean bias x = 1 - 2 sigma of contiguous groups.

    Entry [d, i] of each (max_len, m) table is the group of particles
    i..i+d (0-indexed); where i + d >= m it sums only the particles up to
    m.  Each statistic is a forward sum, from the group's first particle,
    of the nonnegative terms q, q sigma and q (1 - 2 sigma), so no mass or
    moment cancels and a mean stays within round-off of its group's
    crossovers.  A singleton takes its sigma and 1 - 2 sigma exactly.
    """
    m = q.size
    terms = np.zeros((3, m + max_len - 1))
    terms[:, :m] = _segment_terms(q, s)
    mass, moment, bias = np.cumsum(sliding_window_view(terms, m, axis=1), axis=1)
    mean = moment / mass
    xbar = bias / mass
    mean[0] = s
    xbar[0] = 1.0 - 2.0 * s
    return mass, mean, xbar


def _group_stat(q: np.ndarray, s: np.ndarray, a: int, b: int) -> tuple[float, float]:
    """Mass and mean crossover of particles a..b-1 (0-indexed, half-open).

    The scalar read of ``_segment_table``'s sums, so group statistics, the
    DP and enumeration see the same means and window verdicts bit for bit.
    """
    if b - a == 1:
        return float(q[a]), float(s[a])
    mass = float(np.cumsum(q[a:b])[-1])
    return mass, float(np.cumsum(q[a:b] * s[a:b])[-1]) / mass


def _rows_stats(rows: list[tuple[int, float]], sigmas: np.ndarray) -> tuple[float, float]:
    """Mass and mean of a list of (1-indexed particle, mass) contributions.

    A single-particle run takes the particle's crossover exactly, avoiding
    the round-off of (q * sigma) / q.
    """
    if not rows:
        return 0.0, 0.0
    if len(rows) == 1:
        return rows[0][1], float(sigmas[rows[0][0] - 1])
    w = sum(wt for _, wt in rows)
    mom = sum(wt * sigmas[i - 1] for i, wt in rows)
    return w, mom / w


@dataclass(frozen=True)
class PPlusPlan:
    """Contiguous-group degradation plan: cut vector over a source channel.

    Group j covers particles k_{j-1} <= i < k_j of the source (1-indexed,
    k_0 = 1, k_n = m + 1); each group is collapsed to its mass-weighted
    mean crossover.
    """

    source: Channel
    cuts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(int(k) for k in self.cuts))
        m = self.source.size
        prev = 1
        for k in self.cuts:
            if not (prev < k <= m):
                raise InvalidPlanError(f"cut {k} outside ({prev}, {m}]")
            prev = k

    @property
    def n_groups(self) -> int:
        return len(self.cuts) + 1

    def bounds(self) -> list[tuple[int, int]]:
        """Half-open particle ranges [start, stop) of each group, 1-indexed."""
        edges = (1,) + self.cuts + (self.source.size + 1,)
        return list(zip(edges[:-1], edges[1:]))

    def group_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Masses and mean crossovers of the groups."""
        q = self.source.weights
        s = self.source.sigmas
        masses, means = zip(*(_group_stat(q, s, a - 1, b - 1) for a, b in self.bounds()))
        return np.array(masses), np.array(means)

    def to_json_dict(self) -> dict:
        return {"cuts": list(self.cuts)}


@dataclass(frozen=True)
class PStarPlan:
    """Segment plan over a source channel.

    ``indices`` are i_2 < ... < i_n and ``splits`` the masses s_j taken from
    particle i_j by segment j (0 <= s_j <= q_{i_j}).  Patterns with a full
    split are rewritten to the equivalent (i_j - 1, 0) form when legal, so
    each plan has one canonical encoding.  Segments must be nonempty with
    strictly increasing means, and a segment whose support is a single
    particle must own that particle fully.
    """

    source: Channel
    indices: tuple[int, ...]
    splits: tuple[float, ...]

    def __post_init__(self):
        idx = [int(i) for i in self.indices]
        spl = [float(s) for s in self.splits]
        if len(idx) != len(spl):
            raise InvalidPlanError("indices and splits must have equal length")
        m = self.source.size
        q = self.source.weights
        for l in range(len(idx)):
            prev = idx[l - 1] if l > 0 else 0
            if spl[l] >= q[idx[l] - 1] - _MASS_TOL and idx[l] - 1 > prev:
                idx[l] -= 1
                spl[l] = 0.0
        object.__setattr__(self, "indices", tuple(idx))
        object.__setattr__(self, "splits", tuple(spl))

        prev = 0
        for l, i in enumerate(self.indices):
            if not (prev < i <= m):
                raise InvalidPlanError(f"index {i} outside ({prev}, {m}]")
            if not (-_MASS_TOL <= self.splits[l] <= q[i - 1] + _MASS_TOL):
                raise InvalidPlanError(f"split {self.splits[l]} outside [0, q_{i}]")
            prev = i
        segs = self._segment_rows()
        stats = [_rows_stats(rows, self.source.sigmas) for rows in segs]
        if any(not rows for rows in segs) or any(w <= _MASS_TOL for w, _ in stats):
            raise InvalidPlanError("empty segment")
        means = [mu for _, mu in stats]
        if any(b - a <= 0.0 for a, b in zip(means, means[1:])):
            raise InvalidPlanError("segment means must be strictly increasing")
        for rows in segs:
            if len(rows) == 1:
                i, wt = rows[0]
                if wt < q[i - 1] - 1e-12:
                    raise InvalidPlanError(
                        "single-particle segment must own the particle fully"
                    )

    @property
    def n_segments(self) -> int:
        return len(self.indices) + 1

    def _segment_rows(self) -> list[list[tuple[int, float]]]:
        """Per segment: (particle index, mass taken) with positive masses."""
        q = self.source.weights
        m = self.source.size
        idx = (0,) + self.indices + (m + 1,)
        spl = (0.0,) + self.splits + (0.0,)
        out = []
        for j in range(len(idx) - 1):
            lo, hi = idx[j], idx[j + 1]
            rows: list[tuple[int, float]] = []
            if lo >= 1 and spl[j] > _MASS_TOL:
                rows.append((lo, spl[j]))
            for i in range(lo + 1, hi):
                rows.append((i, float(q[i - 1])))
            if hi <= m:
                tail = float(q[hi - 1]) - spl[j + 1]
                if tail > _MASS_TOL:
                    rows.append((hi, tail))
            out.append(rows)
        return out

    def segment_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Masses and mean crossovers of the segments."""
        stats = [_rows_stats(rows, self.source.sigmas) for rows in self._segment_rows()]
        return np.array([w for w, _ in stats]), np.array([mu for _, mu in stats])

    def to_json_dict(self) -> dict:
        return {"indices": list(self.indices), "splits": list(self.splits)}


def realize_pstar(plan: PStarPlan) -> Channel:
    """Channel realized by a segment plan: one mean particle per segment."""
    masses, means = plan.segment_stats()
    return canonicalize(np.column_stack((means, masses)))


def realize_pplus(plan: PPlusPlan) -> Channel:
    """Channel realized by a cut plan: contiguous-group means."""
    masses, means = plan.group_stats()
    return canonicalize(np.column_stack((means, masses)))


def pplus_as_pstar(plan: PPlusPlan) -> PStarPlan:
    """Encode a cut plan in segment-plan form (all splits zero)."""
    return PStarPlan(plan.source, tuple(k - 1 for k in plan.cuts), (0.0,) * len(plan.cuts))


def plan_witness(plan: PStarPlan | PPlusPlan) -> OneMatrix:
    """Equality witness induced directly by a plan's segment structure."""
    if isinstance(plan, PPlusPlan):
        plan = pplus_as_pstar(plan)
    rows = plan._segment_rows()
    k = np.zeros((plan.source.size, len(rows)))
    for j, seg in enumerate(rows):
        for i, wt in seg:
            k[i - 1, j] += wt
    return OneMatrix(k, plan.source.weights.copy(), k.sum(axis=0))


def _col_means(k: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column masses and means; single-support columns take sigma exactly."""
    mass = k.sum(axis=0)
    means = np.zeros_like(mass)
    for j in range(k.shape[1]):
        sup = np.nonzero(k[:, j] > _MASS_TOL)[0]
        if sup.size == 1:
            means[j] = s[sup[0]]
        elif sup.size > 1:
            means[j] = float(s[sup] @ k[sup, j]) / mass[j]
    return mass, means


def _iter_moves(k: np.ndarray, s: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """Applicable improvement moves in canonical order (see improving_moves)."""
    m, n = k.shape
    _, means = _col_means(k, s)
    for j in range(n - 1):
        for i in range(m):
            if k[i, j] > _MASS_TOL and s[i] >= means[j + 1]:
                knew = k.copy()
                knew[i, j + 1] += knew[i, j]
                knew[i, j] = 0.0
                yield "shift_right", knew
    for j in range(1, n):
        for i in range(m):
            if k[i, j] > _MASS_TOL and s[i] <= means[j - 1]:
                knew = k.copy()
                knew[i, j - 1] += knew[i, j]
                knew[i, j] = 0.0
                yield "shift_left", knew
    for jl in range(n - 1):
        for jr in range(jl + 1, n):
            for a in range(m - 1):
                if k[a, jr] <= _MASS_TOL or s[a] < means[jl]:
                    continue
                for b in range(a + 1, m):
                    if k[b, jl] <= _MASS_TOL or s[b] > means[jr]:
                        continue
                    delta = min(k[a, jr], k[b, jl])
                    knew = k.copy()
                    knew[a, jr] -= delta
                    knew[b, jl] -= delta
                    knew[a, jl] += delta
                    knew[b, jr] += delta
                    yield "uncross", knew


def improving_moves(witness: OneMatrix, q: Channel) -> list[tuple[str, OneMatrix]]:
    """All single improvement moves applicable to an equality witness.

    The witness must satisfy the per-column equality constraints for the
    channel it induces over ``q``, with columns sorted by mean.  Three move
    kinds, each keeping error probability fixed while the induced channel
    upgrades:

    - ``shift_right``: entry k[i, j] > 0 with sigma_i >= mean of column j+1
      moves wholly into column j+1;
    - ``shift_left``: entry k[i, j] > 0 with sigma_i <= mean of column j-1
      moves wholly into column j-1;
    - ``uncross``: entries k[a, jr] > 0, k[b, jl] > 0 (jl < jr, a < b) with
      mean_jl <= sigma_a < sigma_b <= mean_jr swap delta = min of the two.

    An empty list means the witness is already interval-structured.
    """
    out = []
    for kind, knew in _iter_moves(witness.entries, q.sigmas):
        out.append((kind, OneMatrix(knew, witness.row_pattern.copy(), knew.sum(axis=0))))
    return out


def _normalize_columns(k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Drop empty columns, merge equal-mean columns, sort columns by mean."""
    mass, means = _col_means(k, s)
    keep = mass > _MASS_TOL
    k = k[:, keep]
    means = means[keep]
    order = np.argsort(means, kind="stable")
    k = k[:, order]
    means = means[order]
    cols: list[np.ndarray] = []
    col_means: list[float] = []
    for j in range(k.shape[1]):
        if cols and abs(means[j] - col_means[-1]) <= 1e-12:
            cols[-1] = cols[-1] + k[:, j]
            merged = cols[-1]
            sup = np.nonzero(merged > _MASS_TOL)[0]
            col_means[-1] = (
                float(s[sup[0]])
                if sup.size == 1
                else float(s[sup] @ merged[sup]) / float(merged.sum())
            )
        else:
            cols.append(k[:, j].copy())
            col_means.append(float(means[j]))
    return np.column_stack(cols)


def _extract_segments(k: np.ndarray, s: np.ndarray) -> list[list[tuple[int, float]]]:
    """Read (particle, mass) segments off an interval-structured matrix."""
    m, n = k.shape
    segs = []
    for j in range(n):
        rows = [(i + 1, float(k[i, j])) for i in range(m) if k[i, j] > _MASS_TOL]
        segs.append(rows)
    for j in range(n - 1):
        if segs[j + 1][0][0] < segs[j][-1][0]:
            raise RuntimeError("witness fixpoint is not interval-structured")
    return segs


def _plan_from_segments(source: Channel, segs: list[list[tuple[int, float]]]) -> PStarPlan:
    q = source.weights
    indices = []
    splits = []
    for j in range(1, len(segs)):
        i_first, w_first = segs[j][0]
        prev_last = segs[j - 1][-1][0]
        if prev_last == i_first:
            indices.append(i_first)
            splits.append(w_first)
        else:
            indices.append(i_first)
            splits.append(float(q[i_first - 1]))
    return PStarPlan(source, tuple(indices), tuple(splits))


def to_pstar_plan(w: Channel, q: Channel, n: int | None = None) -> PStarPlan:
    """Canonicalize any degradation W <= Q into a segment plan.

    Returns a plan whose realization W1 satisfies W <= W1 with W1 a
    minimum-error degradation of Q: starting from a degradation witness,
    the per-column means replace W's crossovers (an upgrade), and
    improvement moves run to their deterministic fixpoint, which is
    interval-structured and therefore a segment plan.

    ``n`` sets the number of segments (default: W's particle count, capped
    at Q's size); segments beyond the fixpoint's natural count are produced
    by mass-balanced splitting, which only refines the realization further.

    Raises DegradationOrderError when W is not a degradation of Q.
    """
    witness = find_degradation_witness(w, q)
    if witness is None:
        raise DegradationOrderError("W is not a degradation of Q")
    if n is None:
        n = w.size
    n = min(max(int(n), 1), q.size)

    s = q.sigmas
    k = _normalize_columns(witness.entries, s)
    guard = 0
    while True:
        step = next(_iter_moves(k, s), None)
        if step is None:
            break
        k = _normalize_columns(step[1], s)
        guard += 1
        if guard > 400 * q.size * max(k.shape[1], 1):
            raise RuntimeError("improvement moves did not reach a fixpoint")
    segs = _extract_segments(k, s)

    qw = q.weights

    def legal_half(rows: list[tuple[int, float]]) -> bool:
        # A sub-segment may not be a lone partial particle.
        return len(rows) > 1 or rows[0][1] >= qw[rows[0][0] - 1] - 1e-12

    while len(segs) < n:
        best = None
        for j, rows in enumerate(segs):
            if len(rows) < 2:
                continue
            total = sum(wt for _, wt in rows)
            acc = 0.0
            for cutpos in range(1, len(rows)):
                acc += rows[cutpos - 1][1]
                if not (legal_half(rows[:cutpos]) and legal_half(rows[cutpos:])):
                    continue
                score = (total, -abs(acc - total / 2.0))
                if best is None or score > best[0]:
                    best = (score, j, cutpos)
        if best is None:
            break
        _, j, cutpos = best
        segs[j : j + 1] = [segs[j][:cutpos], segs[j][cutpos:]]
    return _plan_from_segments(q, segs)


def is_c_degradation(plan: PPlusPlan) -> bool:
    """True iff every cut passes the strict threshold-window test.

    This is the necessary condition every capacity-optimal degradation
    satisfies; plans failing it are strictly improvable by refine_cuts.
    """
    s = plan.source.sigmas
    _, means = plan.group_stats()
    k = np.asarray(plan.cuts, dtype=np.int64)
    t = _threshold(means[:-1], means[1:])
    return not bool(((t - s[k - 2] <= PHI_STRICT_TOL) | (s[k - 1] - t <= PHI_STRICT_TOL)).any())


def refine_cuts(plan: PPlusPlan) -> PPlusPlan:
    """Move cut boundaries until every threshold window is satisfied.

    A cut k_j moves right when the threshold is at or above sigma_{k_j} and
    left when at or below sigma_{k_j - 1} (never emptying a group); the
    first cut that can move does, right before left.  Each move strictly
    increases capacity, so the loop terminates.
    """
    s = plan.source.sigmas
    cuts = list(plan.cuts)
    seen = {tuple(cuts)}
    for _ in range(100000):
        cur = PPlusPlan(plan.source, tuple(cuts))
        _, means = cur.group_stats()
        k = np.asarray(cuts, dtype=np.int64)
        edges = np.concatenate([[1], k, [plan.source.size + 1]])
        t = _threshold(means[:-1], means[1:])
        right = (s[k - 1] - t <= PHI_STRICT_TOL) & (k + 1 < edges[2:])
        left = (t - s[k - 2] <= PHI_STRICT_TOL) & (k - 1 > edges[:-2])
        move = np.flatnonzero(right | left)
        if move.size == 0:
            return cur
        j = int(move[0])
        cuts[j] += 1 if right[j] else -1
        key = tuple(cuts)
        if key in seen:
            # Floating-point dust oscillation at a window boundary; the
            # competing plans differ in capacity far below any tolerance.
            return cur
        seen.add(key)
    raise RuntimeError("cut refinement did not terminate")
