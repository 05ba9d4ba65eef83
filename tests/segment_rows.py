"""Segment plans as lists of (particle, mass) rows: the tests' oracle for ``bidmc.refine``.

``bidmc.refine`` holds a segment plan's segments in one array layout and
computes their statistics with ``_group_stats``.  These are the list-based
functions it replaced: the canonical rewrite and the validation of
``PStarPlan``, its per-segment rows, their Python sums, the witness filled
row by row, and ``to_pstar_plan``'s quantile slices, ownership rules,
mass-balanced splitting and encoding over rows.  The ownership rules are
written here from their statement, slice by slice, not from the array
code.  The array code must reproduce all of them bit for bit.

A plan is passed as ``(source, indices, splits)``; ``canonical_plan``
returns the canonical encoding, or raises ``InvalidPlanError`` where
``PStarPlan`` does on in-range input.
"""

from collections import Counter

import numpy as np

from bidmc import Channel, InvalidPlanError, OneMatrix, canonicalize, find_degradation_witness

_MASS_TOL = 1e-15
_OWN_TOL = 1e-12
# How often each rule of ``to_pstar_plan`` changed a plan's rows; see
# ``_quantile_segments`` and ``to_pstar_plan``'s legal_half.
FIRED: Counter = Counter()


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


def canonical_plan(source: Channel, indices, splits) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """``PStarPlan.__post_init__``: the canonical rewrite, then validation."""
    idx = [int(i) for i in indices]
    spl = [float(s) for s in splits]
    if len(idx) != len(spl):
        raise InvalidPlanError("indices and splits must have equal length")
    m = source.size
    q = source.weights
    for l in range(len(idx)):
        prev = idx[l - 1] if l > 0 else 0
        if spl[l] >= q[idx[l] - 1] - _MASS_TOL and idx[l] - 1 > prev:
            idx[l] -= 1
            spl[l] = 0.0
    indices, splits = tuple(idx), tuple(spl)

    prev = 0
    for l, i in enumerate(indices):
        if not (prev < i <= m):
            raise InvalidPlanError(f"index {i} outside ({prev}, {m}]")
        if not (-_MASS_TOL <= splits[l] <= q[i - 1] + _MASS_TOL):
            raise InvalidPlanError(f"split {splits[l]} outside [0, q_{i}]")
        prev = i
    segs = segment_rows(source, indices, splits)
    stats = [_rows_stats(rows, source.sigmas) for rows in segs]
    if any(not rows for rows in segs) or any(w <= _MASS_TOL for w, _ in stats):
        raise InvalidPlanError("empty segment")
    means = [mu for _, mu in stats]
    if any(b - a <= 0.0 for a, b in zip(means, means[1:])):
        raise InvalidPlanError("segment means must be strictly increasing")
    for rows in segs:
        if len(rows) == 1:
            i, wt = rows[0]
            if wt < q[i - 1] - _OWN_TOL:
                raise InvalidPlanError(
                    "single-particle segment must own the particle fully"
                )
    return indices, splits


def segment_rows(source: Channel, indices, splits) -> list[list[tuple[int, float]]]:
    """Per segment: (particle index, mass taken) with positive masses."""
    q = source.weights
    m = source.size
    idx = (0,) + indices + (m + 1,)
    spl = (0.0,) + splits + (0.0,)
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


def segment_stats(source: Channel, indices, splits) -> tuple[np.ndarray, np.ndarray]:
    """Masses and mean crossovers of the segments."""
    stats = [_rows_stats(rows, source.sigmas) for rows in segment_rows(source, indices, splits)]
    return np.array([w for w, _ in stats]), np.array([mu for _, mu in stats])


def realize_pstar(source: Channel, indices, splits) -> Channel:
    """Channel realized by a segment plan: one mean particle per segment."""
    masses, means = segment_stats(source, indices, splits)
    return canonicalize(np.column_stack((means, masses)))


def plan_witness(source: Channel, indices, splits) -> OneMatrix:
    """Equality witness induced directly by a plan's segment structure."""
    rows = segment_rows(source, indices, splits)
    k = np.zeros((source.size, len(rows)))
    for j, seg in enumerate(rows):
        for i, wt in seg:
            k[i - 1, j] += wt
    return OneMatrix(k, source.weights.copy(), k.sum(axis=0))


def _full(mass: float, weight: float) -> bool:
    """True iff ``mass`` is within min(1e-12, weight / 2) of a particle's ``weight``."""
    return mass >= weight - min(_OWN_TOL, weight / 2.0)


def _quantile_segments(q: Channel, weights: np.ndarray) -> list[list[tuple[int, float]]]:
    """Q's mass cut at the cumulative ``weights``, as (particle, mass) rows.

    Slice j is Q's mass between the quantiles P_{j-1} and P_j, P_j the sum
    of the first j weights, in sigma order; its entries are the particles'
    parts above _MASS_TOL.  Then the ownership rules:

    * a full entry, within min(1e-12, q_i / 2) of its particle's weight
      q_i, owns the particle; the first such entry in slice order;
    * a slice left with one entry, a part of a particle that nothing owns,
      owns that particle; repeated until no slice is left so;
    * an owner takes the whole weight q_i and the particle's other entries
      leave their slices; an owner of _MASS_TOL or less leaves too, and
      slices left empty go.

    Each firing is counted in ``FIRED``: "full" where a full entry's
    particle has entries elsewhere, "lone" per lone owner, "drop" per
    owner left out.
    """
    qw = q.weights
    edges = np.concatenate(([0.0], np.cumsum(qw)))
    cuts = np.concatenate(([0.0], np.cumsum(weights)[:-1], edges[-1:]))
    take = np.minimum(edges[1:, None], cuts[None, 1:]) - np.maximum(edges[:-1, None], cuts[None, :-1])
    segs = [
        [(int(i) + 1, float(take[i, j])) for i in np.flatnonzero(take[:, j] > _MASS_TOL)]
        for j in range(weights.size)
    ]
    entries = Counter(i for rows in segs for i, _ in rows)
    # owner[i] is (slice, position) of the entry that owns particle i.
    owner: dict[int, tuple[int, int]] = {}
    for j, rows in enumerate(segs):
        for k, (i, wt) in enumerate(rows):
            if i not in owner and _full(wt, float(qw[i - 1])):
                owner[i] = (j, k)
                FIRED["full"] += entries[i] > 1

    def staying(j: int) -> list[tuple[int, int, float]]:
        # Slice j's entries, less those of a particle another entry owns.
        return [(k, i, wt) for k, (i, wt) in enumerate(segs[j]) if owner.get(i, (j, k)) == (j, k)]

    while True:
        lone: dict[int, tuple[int, int]] = {}
        for j in range(len(segs)):
            rows = staying(j)
            if len(rows) == 1 and rows[0][1] not in owner:
                lone.setdefault(rows[0][1], (j, rows[0][0]))
        if not lone:
            break
        owner.update(lone)
        FIRED["lone"] += len(lone)
    out = []
    for j in range(len(segs)):
        rows = [(i, float(qw[i - 1]) if i in owner else wt) for _, i, wt in staying(j)]
        FIRED["drop"] += sum(wt <= _MASS_TOL for _, wt in rows)
        rows = [(i, wt) for i, wt in rows if wt > _MASS_TOL]
        if rows:
            out.append(rows)
    return out


def _plan_from_segments(source: Channel, segs: list[list[tuple[int, float]]]):
    q = source.weights
    splits = [
        rows[0][1] if prev[-1][0] == rows[0][0] else float(q[rows[0][0] - 1])
        for prev, rows in zip(segs, segs[1:])
    ]
    return canonical_plan(source, tuple(rows[0][0] for rows in segs[1:]), tuple(splits))


def to_pstar_plan(w: Channel, q: Channel):
    """``to_pstar_plan``'s canonical encoding ``(indices, splits)``."""
    if find_degradation_witness(w, q) is None:
        raise ValueError("W is not a degradation of Q")
    n = min(w.size, q.size)

    qw = q.weights
    segs = _quantile_segments(q, w.weights)

    def legal_half(rows: list[tuple[int, float]]) -> bool:
        # A sub-segment may not be a lone partial particle; one counts as
        # partial by the ownership rules' threshold.
        legal = len(rows) > 1 or _full(rows[0][1], float(qw[rows[0][0] - 1]))
        FIRED["legal_half"] += not legal
        return legal

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
