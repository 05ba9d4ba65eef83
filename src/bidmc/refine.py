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
cumulative weights.  The same slices decide whether W <= Q at all: W's
water-level moments, summed over its first J particles, stay at or above
the first J slices' moments exactly when it is, so a witness is built only
where a margin is within round-off of 0.

Capacity refinement revolves around the threshold crossover

    split_threshold(e1, e2) = ln((1-e1)/(1-e2)) / ln((1-e1)e2 / ((1-e2)e1))

which always lies strictly between e1 and e2.  Moving boundary mass between
adjacent segments with means e1 < e2 raises capacity exactly when the mass
sits on the wrong side of the threshold, so a capacity-optimal degradation
must be a cut plan whose every cut k_j satisfies the strict window

    sigma_{k_j - 1} < split_threshold(eps_j, eps_{j+1}) < sigma_{k_j}.

Cut plans passing every window test are the C-degradations: the candidate
set that provably contains every capacity-optimal degradation.

Segment plans have one array layout: the *entries* of all segments in order,
each a source particle (0-indexed) and the mass taken from it, where a split
particle gives its tail q_i - s_j to one segment and its head s_j to the
next and masses <= _DUST are dropped, plus the bounds: segment j is
entries bounds[j]:bounds[j+1].  ``_group_stats``, the one group-statistics
function of cut and segment plans, reads their masses and means off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .blackwell import _DUST, WITNESS_TOL, OneMatrix, _water_level, find_degradation_witness
from .channel import Channel, _canonicalize_stack, _channels, _Stack, _stack, canonicalize, error_probability

# Window tests (``_window``) treat a threshold within this distance of a
# boundary sigma as failing: exact equality is a local capacity minimum, so
# the conservative verdict is "not a C-degradation".  The DP's pruning and
# certificate (``_surely_fails``) take the other side and drop only
# thresholds beyond a boundary by more than this.
PHI_STRICT_TOL = 1e-12

# A segment entry within this of its particle's weight owns the particle;
# within half the weight for a particle lighter than twice this, so that an
# entry short of half a light particle is a part of it.
_OWN_TOL = 1e-12


class InvalidPlanError(ValueError):
    """Raised for structurally invalid segment or cut plans."""


class DegradationOrderError(ValueError):
    """Raised when a required degradation relation does not hold."""


def _threshold(eps_l, eps_r) -> np.ndarray:
    """split_threshold elementwise over broadcast arrays, NaN outside its domain.

    This is the one place the threshold is computed.  Window tests compare
    the margins t - sigma_lo and sigma_hi - t with PHI_STRICT_TOL; a NaN
    margin compares false, so it never fails, moves or prunes a cut.
    Out-of-domain means are a left group of mean 0, which short of an
    underflowing moment is particle 1 alone at sigma 0, whose cut cannot
    move left; a right group of mean exactly 1/2, where the threshold has
    a finite limit that is not taken, so a cut beside it is never failed
    or moved even where a move would raise capacity (ROADMAP item 7); or
    means out of order, which only round-off produces.  Beside a subnormal
    left mean d / eps_l overflows to inf; there log1p(d / eps_l) is
    log(d) - log(eps_l) to round-off, so that form is taken, and t is
    about 6.6e-4 beside eps_l = 5e-324 and eps_r = 0.375, not 0.  Every
    finite quotient keeps the log1p form.
    """
    eps_l = np.asarray(eps_l, dtype=np.float64)
    eps_r = np.asarray(eps_r, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = eps_r - eps_l
        num = np.log1p(d / (1.0 - eps_r))
        ratio = d / eps_l
        den = np.log1p(ratio)
        over = np.isinf(ratio)
        if over.any():
            den = np.where(over, np.log(d) - np.log(eps_l), den)
        t = num / (num + den)
    return np.where((0.0 < eps_l) & (eps_l < eps_r) & (eps_r < 0.5), t, np.nan)


def _window(eps_l, eps_r, s_lo, s_hi) -> tuple[np.ndarray, np.ndarray]:
    """The strict window test of cuts between crossovers s_lo and s_hi whose
    groups have means eps_l and eps_r: flags of a threshold within
    PHI_STRICT_TOL of or past s_lo (low) and s_hi (high)."""
    t = _threshold(eps_l, eps_r)
    return t - s_lo <= PHI_STRICT_TOL, s_hi - t <= PHI_STRICT_TOL


def _surely_fails(eps_l, eps_r, s_lo, s_hi) -> np.ndarray:
    """The DP's prune and certificate test of the same cuts: a threshold past
    s_lo or s_hi by more than PHI_STRICT_TOL, so a near-tie (which an
    optimal cut can meet) never fails."""
    t = _threshold(eps_l, eps_r)
    return (t - s_lo < -PHI_STRICT_TOL) | (s_hi - t < -PHI_STRICT_TOL)


def split_threshold(eps1: float, eps2: float) -> float:
    """Threshold crossover separating "join left group" from "join right".

    Defined for 0 < eps1 < eps2 < 1/2 and always strictly inside
    (eps1, eps2).  Strictly increasing in both arguments.
    """
    if not (0.0 < eps1 < eps2 < 0.5):
        raise ValueError(f"split_threshold needs 0 < eps1 < eps2 < 1/2, got ({eps1}, {eps2})")
    return float(_threshold(eps1, eps2))


def _forward_sums(terms: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Running sums of ``terms`` over the groups of entries starts[g]..stops[g]-1.

    Entry [..., g, c] sums the group's first c + 1 terms in order, as one
    cumsum over rows zero-padded to the longest group: zeros change no sum.
    """
    length = stops - starts
    offset = np.arange(length.max())
    at = terms.take(starts[:, None] + offset, axis=-1, mode="clip")
    return np.where(offset < length[:, None], at, 0.0).cumsum(axis=-1)


def _group_stats(
    q: np.ndarray, s: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masses and mean crossovers of the groups of particles starts[g]..stops[g]-1.

    q and q sigma are summed by ``_forward_sums``, so every entry equals
    ``search._segments``' entry for the group bit for bit, and group
    statistics, the DP and enumeration see the same means and window
    verdicts.  A singleton takes its sigma exactly.
    """
    mass, moment = _forward_sums(np.array((q, q * s)), starts, stops)[..., -1]
    return mass, np.where(stops - starts == 1, s[starts], moment / mass)


def _integers(values, name: str) -> list[int]:
    """Plan entries as ints: ints, numpy ints and integral floats pass; any
    other value (NaN and +-inf too) raises InvalidPlanError, so a malformed
    entry is never truncated into another plan."""
    out = []
    for v in values:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            raise InvalidPlanError(f"{name} {v} is not an integer")
        out.append(i)
    return out


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
        object.__setattr__(self, "cuts", tuple(_integers(self.cuts, "cut")))
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


@dataclass(frozen=True)
class PStarPlan:
    """Segment plan over a source channel.

    ``indices`` are i_2 < ... < i_n and ``splits`` the masses s_j taken from
    particle i_j by segment j (0 <= s_j <= q_{i_j}).  Patterns with a full
    split are rewritten to the equivalent (i_j - 1, 0) form when legal, so
    each plan has one canonical encoding.  Segments must be nonempty with
    strictly increasing means, and a segment whose support is a single
    particle must own that particle fully.  The segment layout (see the
    module docstring) and the segments' masses and means are built once,
    here, and every reader shares them.
    """

    source: Channel
    indices: tuple[int, ...]
    splits: tuple[float, ...]

    def __post_init__(self):
        idx = _integers(self.indices, "index")
        spl = [float(s) for s in self.splits]
        if len(idx) != len(spl):
            raise InvalidPlanError("indices and splits must have equal length")
        m = self.source.size
        q = self.source.weights.tolist()
        prev = 0
        for l, i in enumerate(idx):
            if not (prev < i <= m):
                raise InvalidPlanError(f"index {i} outside ({prev}, {m}]")
            if not (-_DUST <= spl[l] <= q[i - 1] + _DUST):
                raise InvalidPlanError(f"split {spl[l]} outside [0, q_{i}]")
            if spl[l] >= q[i - 1] - _DUST and i - 1 > prev:
                idx[l], spl[l] = i - 1, 0.0
            prev = idx[l]
        object.__setattr__(self, "indices", tuple(idx))
        object.__setattr__(self, "splits", tuple(spl))

        part, mass, bounds = [], [], [0]
        lo, head = 0, 0.0
        for hi, split in zip(idx + [m + 1], spl + [0.0]):
            if head > _DUST:
                part.append(lo - 1)
                mass.append(head)
            part += range(lo, hi - 1)
            mass += q[lo : hi - 1]
            if hi <= m and q[hi - 1] - split > _DUST:
                part.append(hi - 1)
                mass.append(q[hi - 1] - split)
            if len(part) == bounds[-1]:
                raise InvalidPlanError("empty segment")
            if len(part) - bounds[-1] == 1 and mass[-1] < q[part[-1]] - _OWN_TOL:
                raise InvalidPlanError("single-particle segment must own the particle fully")
            bounds.append(len(part))
            lo, head = hi, split
        part, mass, bounds = np.array(part), np.array(mass), np.array(bounds)
        masses, means = _group_stats(mass, self.source.sigmas[part], bounds[:-1], bounds[1:])
        if masses.min() <= _DUST:
            raise InvalidPlanError("empty segment")
        if np.count_nonzero(means[1:] <= means[:-1]):
            raise InvalidPlanError("segment means must be strictly increasing")
        masses.flags.writeable = means.flags.writeable = False
        object.__setattr__(self, "_layout", (part, mass, bounds))
        object.__setattr__(self, "_stats", (masses, means))

    def segment_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Masses and mean crossovers of the segments (read-only arrays)."""
        return self._stats


def realize_pstar(plan: PStarPlan) -> Channel:
    """Channel realized by a segment plan: one mean particle per segment."""
    masses, means = plan.segment_stats()
    return canonicalize(np.column_stack((means, masses)))


def realize_pplus(plan: PPlusPlan) -> Channel:
    """Channel realized by a cut plan: contiguous-group means.

    The stack of one of ``_realize``.
    """
    return _channels(_realize(_stack([plan.source]), np.array([plan.cuts], dtype=np.int64)))[0]


def _realize(stack: _Stack, cuts: np.ndarray) -> _Stack:
    """``realize_pplus`` of each member of a stack by its row of ``cuts``
    (B, g - 1), in one pass and bit for bit.

    Every group of every member goes through one ``_group_stats`` call over
    the flattened stack, and one ``_canonicalize_stack`` call reduces every
    member's (mean, mass) pairs.
    """
    w, s, sizes = stack
    edges = np.zeros((len(sizes), cuts.shape[1] + 2), dtype=np.int64)
    edges[:, 1:-1] = cuts - 1
    edges[:, -1] = sizes
    edges += np.arange(len(sizes))[:, None] * w.shape[1]
    masses, means = _group_stats(w.ravel(), s.ravel(), edges[:, :-1].ravel(), edges[:, 1:].ravel())
    return _canonicalize_stack(np.array((means, masses)).T, [cuts.shape[1] + 1] * len(sizes))


def plan_witness(plan: PStarPlan | PPlusPlan) -> OneMatrix:
    """Equality witness induced directly by a plan's segment structure.

    A cut plan routes each particle whole to its group: q_i at (i, group
    of i).
    """
    if isinstance(plan, PPlusPlan):
        m = plan.source.size
        part, mass = np.arange(m), plan.source.weights
        bounds = np.array((1,) + plan.cuts + (m + 1,)) - 1
    else:
        part, mass, bounds = plan._layout
    k = np.zeros((plan.source.size, bounds.size - 1))
    k[part, np.repeat(np.arange(bounds.size - 1), np.diff(bounds))] = mass
    return OneMatrix(k, plan.source.weights.copy(), k.sum(axis=0))


def _degraded(w: Channel, q: Channel, take: np.ndarray) -> bool:
    """W <= Q, decided from the raw quantile slices ``take`` of
    ``to_pstar_plan`` (entry [i, j] is particle i's part of slice j where
    positive), with ``find_degradation_witness`` only near a tie.

    With mu W's water-level means (``blackwell._water_level``), P_J =
    p_1 + ... + p_J and G_Q(u) the moment of Q's lowest mass u, which the
    first J slices hold at u = P_J, the margins are

        D_J = sum_{j<=J} p_j mu_j - G_Q(P_J),    J < n.

    Necessity: W <= Q makes D_J >= 0, by ``to_pstar_plan``'s "Why W <= W1".
    Sufficiency: mu and the slice means both rise with j and share the
    weights p, so both integrated quantile curves are linear between the
    P_J, and D >= 0 with equal totals (D_n = 0) puts (mu, p) below the
    slices in convex order; mu <= eps then gives W <= W_mu <= W_slices <= Q.
    Rejection: past the water level mu_j = tau and G_Q is convex, so D is
    concave there with D_n = 0, and the least D_J falls at a J with
    mu_j = eps_j for every j <= J.  The witness's coupling puts mass P_J of
    Q in its first J columns, with moment at least G_Q(P_J), so its
    ``excess`` is at least -D_J, and a margin below -WITNESS_TOL means no
    witness.

    Round-off.  A running sum of k terms whose partial sums are at most 1
    is off by at most k u, u = 2^-53 (about 1.1e-16), and _DUST = 1e-15 is
    about 9 u.  The margins take running sums of m + n terms (the slice
    moments, their sum over slices and W's moments), and the coupling
    leaves unspent at most m remainders of at most _DUST each, of crossover
    at most 1/2.  So no margin is off by more than (m + n) _DUST, either
    way; within that of a tie, and when the water level is W's own
    crossovers because Perr(W) < Perr(Q) (D_n < 0, so sufficiency fails),
    the witness decides.
    """
    perr_q = error_probability(q)
    mu = _water_level(w, perr_q)
    if mu is None:
        return False
    if error_probability(w) >= perr_q:
        margin = np.cumsum(w.weights * mu)[:-1] - np.cumsum(q.sigmas @ np.maximum(take, 0.0))[:-1]
        least, tol = margin.min(initial=np.inf), (q.size + w.size) * _DUST
        if least > tol:
            return True
        if least < -(WITNESS_TOL + tol):
            return False
    return find_degradation_witness(w, q) is not None


def to_pstar_plan(w: Channel, q: Channel) -> PStarPlan:
    """Canonicalize any degradation W <= Q into a segment plan.

    Returns a plan whose realization W1 satisfies W <= W1 with W1 a
    minimum-error degradation of Q.  The plan is Q's quantile slices:
    Q's cumulative mass cut at W's cumulative weights P_J, taken in W's
    crossover order.  A slice that lies inside one particle takes that
    whole particle, and so does a slice's part of a particle within
    min(_OWN_TOL, q_i / 2) of its weight q_i, whose round-off tails leave
    the slices beside it.

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
    upgrades.  A tail moves at most _OWN_TOL of mass, a change far below
    WITNESS_TOL.  The segments partition Q's mass, so Perr(W1) = Perr(Q).

    The converse decides W <= Q (``_degraded``): the margins
    sum_{j<=J} p_j mu_j - G_Q(P_J) of the slices, G_Q the moment of Q's
    lowest mass, are all nonnegative exactly when W <= Q, and one below
    -WITNESS_TOL bounds the witness coupling's excess above WITNESS_TOL.
    So no witness is built unless a margin is within round-off of a tie.

    The plan has at least min(W's size, Q's size) segments.  When the
    slices give fewer, mass-balanced splitting of the heaviest segment adds
    more, which only refines the realization further; when they give more,
    the plan keeps them all.  A particle of _DUST or less joins a
    neighbouring segment (``PStarPlan`` would reject it alone as empty),
    so where only such a particle could be split off the plan has fewer.

    Raises DegradationOrderError when W is not a degradation of Q, exactly
    when ``find_degradation_witness`` gives None.
    """
    qw = q.weights
    edges = np.concatenate(([0.0], np.cumsum(qw)))
    cuts = np.concatenate(([0.0], np.cumsum(w.weights)[:-1], edges[-1:]))
    take = np.minimum(edges[1:, None], cuts[None, 1:]) - np.maximum(edges[:-1, None], cuts[None, :-1])
    if not _degraded(w, q, take):
        raise DegradationOrderError("W is not a degradation of Q")

    # The slices' entries, in slice order.  owner[i] is the entry that owns
    # particle i (part.size for none): its first entry of at least
    # whole[i], else the one entry left in a slice that is part of it.  An
    # owner takes the particle's whole weight, and its other entries leave
    # their slices; so does an owner of _DUST or less, whose particle
    # PStarPlan then puts in a neighbouring segment.
    whole = qw - np.minimum(_OWN_TOL, qw / 2.0)
    seg, part = np.nonzero(take.T > _DUST)
    mass = take[part, seg]
    entry = np.arange(part.size)
    owner = np.full(q.size, part.size)
    lone = mass >= whole[part]
    while True:
        np.minimum.at(owner, part[lone], entry[lone])
        kept = owner[part] == part.size
        holds = owner[part] == entry
        lone = kept & (np.bincount(seg[kept | holds], minlength=w.size)[seg] == 1)
        if not lone.any():
            break
    mass = np.where(kept, mass, qw[part])
    keep = (kept | holds) & (mass > _DUST)
    seg, part, mass = seg[keep], part[keep], mass[keep]
    bounds = np.append(np.flatnonzero(np.append(True, seg[1:] != seg[:-1])), part.size)

    full = mass >= whole[part]
    while bounds.size <= min(w.size, q.size):
        # acc[j, c - 1] is the mass of segment j's first c entries.
        acc = _forward_sums(mass, bounds[:-1], bounds[1:])
        # Cutting segment j after c entries is legal unless a half would be
        # a lone partial particle.
        length = np.diff(bounds)[:, None]
        c = np.arange(1, acc.shape[1])
        legal = (c < length) & ((c > 1) | full[bounds[:-1], None]) & ((length - c > 1) | full[bounds[1:] - 1, None])
        j, k = np.nonzero(legal)  # cut segment j after k + 1 entries
        if not j.size:
            break
        # The heaviest segment, cut nearest its half mass; the first on ties.
        total = acc[j, -1]
        best = np.lexsort((np.abs(acc[j, k] - total / 2.0), -total))[0]
        bounds = np.insert(bounds, j[best] + 1, bounds[j[best]] + k[best] + 1)
    # Segment j + 1 starts with particle i_{j+1}; it takes s_{j+1} of it when
    # segment j ends with the same particle, and the whole particle if not.
    first = bounds[1:-1]
    splits = np.where(part[first - 1] == part[first], mass[first], qw[part[first]])
    return PStarPlan(q, tuple((part[first] + 1).tolist()), tuple(splits.tolist()))


def is_c_degradation(plan: PPlusPlan) -> bool:
    """True iff every cut passes the strict threshold-window test.

    This is the necessary condition every capacity-optimal degradation
    satisfies; plans failing it are strictly improvable by refine_cuts.
    """
    s = plan.source.sigmas
    _, means = plan.group_stats()
    k = np.asarray(plan.cuts, dtype=np.int64)
    return not np.logical_or(*_window(means[:-1], means[1:], s[k - 2], s[k - 1])).any()


def refine_cuts(plan: PPlusPlan) -> PPlusPlan:
    """Move cut boundaries until every threshold window is satisfied.

    A cut k_j moves right when the threshold is at or above sigma_{k_j} and
    left when at or below sigma_{k_j - 1} (never emptying a group); the
    first cut that can move does, right before left.  In exact arithmetic
    each move strictly increases capacity, so no plan comes back.  In
    floating point a threshold within round-off of a crossover can send a
    cut back and forth; a move to a plan already seen stops the loop at
    the plan before it (the oscillation guard), and a cap on the moves
    raises RuntimeError.

    The group means are computed once.  A move changes only the two groups
    beside its cut, which are summed forward again as ``_group_stats``
    sums them, and only the windows of that cut and its two neighbours are
    tested again, in one ``_window`` call.
    """
    weights, s = plan.source.weights.tolist(), plan.source.sigmas.tolist()
    moments = (plan.source.weights * plan.source.sigmas).tolist()
    edges = [1, *plan.cuts, plan.source.size + 1]

    def mean(g: int) -> float:
        # Group g's forward sums, as _group_stats sums them.
        a, b = edges[g] - 1, edges[g + 1] - 1
        return s[a] if b - a == 1 else reduce(add, moments[a:b]) / reduce(add, weights[a:b])

    eps = [mean(g) for g in range(len(edges) - 1)]
    # step[j] is +1 (right), -1 (left) or 0 for cut j, edges[j + 1]; the
    # windows of cuts lo..hi-1 are tested next.
    step, seen = [0] * len(plan.cuts), {plan.cuts}
    lo, hi = 0, len(step)
    for _ in range(100000):
        k = edges[lo + 1 : hi + 1]
        low, high = _window(eps[lo:hi], eps[lo + 1 : hi + 1], [s[c - 2] for c in k], [s[c - 1] for c in k])
        for j, l, h in zip(range(lo, hi), low.tolist(), high.tolist()):
            before, cut, after = edges[j : j + 3]
            step[j] = 1 if h and cut + 1 < after else -1 if l and cut - 1 > before else 0
        j = next((j for j, d in enumerate(step) if d), None)
        if j is None:
            break
        edges[j + 1] += step[j]
        key = tuple(edges[1:-1])
        if key in seen:
            # Floating-point dust oscillation at a window boundary; the
            # competing plans differ in capacity far below any tolerance.
            edges[j + 1] -= step[j]
            break
        seen.add(key)
        eps[j], eps[j + 1] = mean(j), mean(j + 1)
        lo, hi = max(j - 1, 0), min(j + 2, len(step))
    else:
        raise RuntimeError("cut refinement did not terminate")
    return PPlusPlan(plan.source, tuple(edges[1:-1]))
