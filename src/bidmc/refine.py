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
plans).  ``to_pstar_plan`` reads a segment plan dominating any degradation
W <= Q off Q's quantile line: the segments are Q's mass between W's
cumulative weights.

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
from itertools import groupby
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blackwell import OneMatrix, find_degradation_witness
from .channel import Channel, _canonicalize_stack, canonicalize

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
    """Rows q, q sigma and q (1 - 2 sigma): the summands of group statistics.

    Over a stack of channels, shape (..., m), the rows stack on axis -2.
    """
    return np.stack((q, q * s, q * (1.0 - 2.0 * s)), axis=-2)


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

    A stack of channels, q and s of shape (B, m) zero-padded past each
    channel's own size, gives (B, max_len, m) tables.  Adding a zero term
    changes no sum, so every group inside a channel reads exactly the
    single channel's entry; groups starting in the padding have mass 0 and
    NaN means.
    """
    m = q.shape[-1]
    terms = np.zeros(q.shape[:-1] + (3, m + max_len - 1))
    terms[..., :m] = _segment_terms(q, s)
    # windows[..., k, d, i] = terms[..., k, i + d], a view (cheaper to build
    # than sliding_window_view's, which matters at small m).
    windows = as_strided(
        terms, terms.shape[:-1] + (max_len, m), terms.strides + terms.strides[-1:], writeable=False
    )
    sums = np.cumsum(windows, axis=-2)
    mass, moment, bias = (sums[..., k, :, :] for k in range(3))
    with np.errstate(invalid="ignore"):
        mean = moment / mass
        xbar = bias / mass
    mean[..., 0, :] = s
    xbar[..., 0, :] = 1.0 - 2.0 * s
    return mass, mean, xbar


def _group_stats(
    q: np.ndarray, s: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masses and mean crossovers of the groups of particles starts[g]..stops[g]-1.

    Each group's q and q sigma are laid out as a row zero-padded to the
    longest group and summed forward, from the group's first particle, in
    one cumsum: adding zeros changes no sum, so every entry equals
    ``_segment_table``'s entry for the group bit for bit, and group
    statistics, the DP and enumeration see the same means and window
    verdicts.  A singleton takes its sigma exactly.
    """
    length = stops - starts
    offset = np.arange(length.max())
    terms = np.array((q, q * s)).take(starts[:, None] + offset, axis=1, mode="clip")
    mass, moment = np.where(offset < length[:, None], terms, 0.0).cumsum(axis=2)[..., -1]
    return mass, np.where(length == 1, s[starts], moment / mass)


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

    def bounds(self) -> list[tuple[int, int]]:
        """Half-open particle ranges [start, stop) of each group, 1-indexed."""
        edges = (1,) + self.cuts + (self.source.size + 1,)
        return list(zip(edges[:-1], edges[1:]))

    def group_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Masses and mean crossovers of the groups."""
        starts, stops = np.array(self.bounds()).T - 1
        return _group_stats(self.source.weights, self.source.sigmas, starts, stops)

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
    """Channel realized by a cut plan: contiguous-group means.

    The stack of one of ``_realize_pplus_stack``.
    """
    return _realize_pplus_stack([plan])[0]


def _realize_pplus_stack(plans: Sequence[PPlusPlan]) -> list[Channel]:
    """``realize_pplus`` of each plan, in one pass and bit for bit.

    The plans' sources are concatenated, every group of every plan goes
    through one ``_group_stats`` call, and one ``_canonicalize_stack`` call
    reduces every plan's (mean, mass) pairs.
    """
    if not plans:
        return []
    q = np.concatenate([p.source.weights for p in plans])
    s = np.concatenate([p.source.sigmas for p in plans])
    bounds, base = [], 0
    for p in plans:
        bounds += [(base + a - 1, base + b - 1) for a, b in p.bounds()]
        base += p.source.size
    starts, stops = np.array(bounds).T
    masses, means = _group_stats(q, s, starts, stops)
    return _canonicalize_stack(np.array((means, masses)).T, [len(p.cuts) + 1 for p in plans])


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


def _quantile_segments(q: Channel, weights: np.ndarray) -> list[list[tuple[int, float]]]:
    """Q's mass cut at the cumulative ``weights``, as (particle, mass) rows.

    Slice j is Q's mass between the quantiles P_{j-1} and P_j, P_j the sum
    of the first j weights, in sigma order.  A slice that lies inside one
    particle, once the shares of particles already taken whole are gone,
    takes that whole particle, and the slices beside it lose their parts.
    """
    qw = q.weights
    edges = np.concatenate(([0.0], np.cumsum(qw)))
    cuts = np.concatenate(([0.0], np.cumsum(weights)[:-1], edges[-1:]))
    take = np.minimum(edges[1:, None], cuts[None, 1:]) - np.maximum(edges[:-1, None], cuts[None, :-1])
    segs = [
        [(int(i) + 1, float(take[i, j])) for i in np.flatnonzero(take[:, j] > _MASS_TOL)]
        for j in range(weights.size)
    ]
    owned: set[int] = set()
    while True:
        kept = ([r for r in rows if r[0] not in owned] for rows in segs)
        lone = {rows[0][0] for rows in kept if len(rows) == 1 and rows[0][1] < qw[rows[0][0] - 1] - 1e-12}
        if not lone:
            break
        owned |= lone
    flat = [(j, i, wt) for j, rows in enumerate(segs) for i, wt in rows]
    return [
        [(key[1], float(qw[key[1] - 1]))] if key[0] else [(i, wt) for _, i, wt in grp]
        for key, grp in groupby(flat, key=lambda r: (True, r[1]) if r[1] in owned else (False, r[0]))
    ]


def _plan_from_segments(source: Channel, segs: list[list[tuple[int, float]]]) -> PStarPlan:
    q = source.weights
    splits = [
        rows[0][1] if prev[-1][0] == rows[0][0] else float(q[rows[0][0] - 1])
        for prev, rows in zip(segs, segs[1:])
    ]
    return PStarPlan(source, tuple(rows[0][0] for rows in segs[1:]), tuple(splits))


def to_pstar_plan(w: Channel, q: Channel, n: int | None = None) -> PStarPlan:
    """Canonicalize any degradation W <= Q into a segment plan.

    Returns a plan whose realization W1 satisfies W <= W1 with W1 a
    minimum-error degradation of Q.  The plan is Q's quantile slices:
    Q's cumulative mass cut at W's cumulative weights P_J, taken in W's
    crossover order, and a slice that lies inside one particle takes that
    whole particle.

    Why W <= W1.  Let mu_j = min(eps_j, tau) be W's water-level means
    (see ``blackwell``): W <= Q gives a coupling whose column j has mass
    p_j and mean mu_j.  Its columns 1..J hold mass P_J of Q, so their
    moment sum_{j<=J} p_j mu_j is at least that of Q's lowest mass P_J,
    which is sum_{j<=J} p_j s_j with s_j the slice means; at J = n both
    are Perr(Q).  mu and s both rise with j and share the weights p, so
    by weighted majorization (mu, p) is below (s, p) in convex order, and
    mu <= eps makes W a degradation of the slices.  Giving a slice the
    whole particle it lies inside moves that particle's part out of a
    neighbouring slice into it: the two means a <= b spread to a' <= a and
    b' >= b at a fixed total moment, both old atoms lie in [a', b'], so the
    old pair is below the new one in convex order and each such shift
    upgrades.  The segments partition Q's mass, so Perr(W1) = Perr(Q).

    ``n`` sets the number of segments (default: W's particle count, capped
    at Q's size); segments beyond the slices' count are produced by
    mass-balanced splitting, which only refines the realization further.

    Raises DegradationOrderError when W is not a degradation of Q.
    """
    if find_degradation_witness(w, q) is None:
        raise DegradationOrderError("W is not a degradation of Q")
    if n is None:
        n = w.size
    n = min(max(int(n), 1), q.size)

    qw = q.weights
    segs = _quantile_segments(q, w.weights)

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
