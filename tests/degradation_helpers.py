"""Degradation helpers that only the tests use, kept as they were in
``bidmc.blackwell`` and ``bidmc.refine``: the intermediate channel that
realizes a witness (per-column flips, and the channel they produce), the
minimum-error criterion between two-particle channels, and a cut plan in
segment-plan form.
"""

from dataclasses import dataclass

import numpy as np

from bidmc import Channel, OneMatrix, PPlusPlan, PStarPlan, canonicalize, error_probability
from bidmc.blackwell import WITNESS_TOL


@dataclass(frozen=True)
class IntermediateRealization:
    """Concrete intermediate channel realizing W from Q.

    Q's particle i is split across columns in proportion k[i, j] / q_i; the
    mass landing in column j is passed through an extra BSC(column_flip[j])
    and the column's outputs are merged into one binary pair, which is then
    a BSC with crossover eps_j.
    """

    column_flip: np.ndarray
    witness: OneMatrix


def is_pair_p_degradation(w: Channel, q: Channel, tol: float = WITNESS_TOL) -> bool:
    """Minimum-error criterion between two-particle channels.

    With Q = (1-q)B(s1) + qB(s2) and W = (1-p)B(e1) + pB(e2), W is a
    minimum-error degradation of Q iff s1 <= e1 < mean(Q) < e2 <= s2 and the
    two means agree.
    """
    if w.size != 2 or q.size != 2:
        raise ValueError("pair criterion requires exactly two particles on each side")
    e1, e2 = w.particles[0].sigma, w.particles[1].sigma
    s1, s2 = q.particles[0].sigma, q.particles[1].sigma
    if abs(error_probability(w) - error_probability(q)) > tol:
        return False
    return e1 >= s1 - tol and e2 <= s2 + tol


def realize_intermediate(w: Channel, q: Channel, witness: OneMatrix) -> IntermediateRealization:
    """Per-column flip probabilities turning a witness into a channel.

    Column j's flip solves

        (1 - e_j) sum_i k[i,j] s_i + e_j (p_j - sum_i k[i,j] s_i) = p_j eps_j,

    i.e. e_j = (p_j eps_j - sum_i k[i,j] s_i) / (sum_i k[i,j](1 - 2 s_i)),
    with e_j = 0 when the denominator vanishes.  Requires the witness to
    satisfy the degradation constraint sum_i k[i,j] s_i <= p_j eps_j.
    """
    k = witness.entries
    if k.shape != (q.size, w.size):
        raise ValueError("witness shape does not match the channel pair")
    mom = q.sigmas @ k
    target = w.weights * w.sigmas
    if np.any(mom > target + WITNESS_TOL):
        raise ValueError("witness violates the degradation constraint")
    denom = (1.0 - 2.0 * q.sigmas) @ k
    flips = np.zeros(w.size)
    pos = denom > 1e-300
    flips[pos] = np.clip((target[pos] - mom[pos]) / denom[pos], 0.0, 1.0)
    return IntermediateRealization(flips, witness)


def intermediate_output(q: Channel, real: IntermediateRealization) -> Channel:
    """Channel produced by splitting Q by the witness, flipping, merging."""
    k = real.witness.entries
    cols = k.sum(axis=0)
    used = np.flatnonzero(cols > 0.0)
    means = np.array([q.sigmas @ k[:, j] for j in used]) / cols[used]
    e = real.column_flip[used]
    return canonicalize(np.column_stack((means * (1.0 - e) + (1.0 - means) * e, cols[used])))


def pplus_as_pstar(plan: PPlusPlan) -> PStarPlan:
    """Encode a cut plan in segment-plan form (all splits zero).

    Known limit: ``PStarPlan``'s canonical rewrite leaves particles of
    weight <= ``blackwell._DUST`` (1e-15) out of a segment's end.  A group
    that is one such particle raises ``InvalidPlanError("empty segment")``,
    and one that ends a longer group lands in the next segment, so the
    segments are not the cut plan's groups.  On weights 0.5, 1e-20, 0.5,
    1e-300, cuts (2, 4) raise and cuts (3,) put particle 2 in segment 2.
    ``refine.plan_witness`` routes a cut plan's particles by its groups.
    """
    return PStarPlan(plan.source, tuple(k - 1 for k in plan.cuts), (0.0,) * len(plan.cuts))
