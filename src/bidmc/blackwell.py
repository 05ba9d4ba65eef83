"""Degradation order between BSC mixtures, with explicit witnesses.

W is a degradation of Q (written W <= Q here) when W can be simulated by
post-processing Q's output through an intermediate channel.  For canonical
mixtures W = sum_j p_j B(eps_j) and Q = sum_i q_i B(sigma_i) this holds
exactly when there is a nonnegative m x n matrix k with row sums q, column
sums p, and per-column mean constraint

    sum_i k[i, j] * sigma_i  <=  p_j * eps_j          for every column j.

Such a matrix is the degradation witness ("1-matrix" of pattern (q; p)).
Requiring equality instead characterizes the minimum-error (P-) degradations:
degradations of Q to n particles whose decoding error probability is the
lowest achievable, namely Perr(Q) itself.

An independent second route to the same order is Bayes-risk dominance: W is a
degradation of Q iff the prior-weighted MLD error of W is at least that of Q
at every prior.  Both routes are exposed so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, canonicalize, equivalent, error_probability
from .simplex import feasible_point

__all__ = [
    "WITNESS_TOL",
    "OneMatrix",
    "IntermediateRealization",
    "BayesRiskCurve",
    "find_degradation_witness",
    "is_degradation",
    "is_p_degradation",
    "mean_degradation",
    "is_pair_p_degradation",
    "bayes_risk_curve",
    "risk_dominates",
    "realize_intermediate",
    "intermediate_output",
]

WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class OneMatrix:
    """Nonnegative matrix with prescribed row and column sums.

    ``entries[i, j]`` is the mass of Q's particle i routed to W's particle j;
    ``row_pattern`` are Q's weights, ``col_pattern`` W's weights.
    """

    entries: np.ndarray
    row_pattern: np.ndarray
    col_pattern: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.float64))
        object.__setattr__(self, "row_pattern", np.asarray(self.row_pattern, dtype=np.float64))
        object.__setattr__(self, "col_pattern", np.asarray(self.col_pattern, dtype=np.float64))
        k = self.entries
        if np.any(k < -WITNESS_TOL):
            raise ValueError("witness entries must be nonnegative")
        if not np.allclose(k.sum(axis=1), self.row_pattern, rtol=0.0, atol=WITNESS_TOL):
            raise ValueError("row sums do not match the row pattern")
        if not np.allclose(k.sum(axis=0), self.col_pattern, rtol=0.0, atol=WITNESS_TOL):
            raise ValueError("column sums do not match the column pattern")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def to_json_dict(self) -> dict:
        m, n = self.entries.shape
        return {"rows": m, "cols": n, "k": self.entries.tolist()}


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


def _witness_system(w: Channel, q: Channel, equality: bool):
    """Assemble the LP for a witness of pattern (q.weights; w.weights).

    Variable i * n + j is k[i, j]: rows sum to q, columns to w, and column
    j's moment sum_i k[i, j] sigma_i is bounded by (or, with ``equality``,
    equal to) w's p_j eps_j.
    """
    m, n = q.size, w.size
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([q.weights, w.weights])
    a_mom = np.kron(q.sigmas, np.eye(n))
    b_mom = w.weights * w.sigmas
    if equality:
        return np.vstack([a_eq, a_mom]), np.concatenate([b_eq, b_mom]), None, None
    return a_eq, b_eq, a_mom, b_mom


def _solve_witness(w: Channel, q: Channel, equality: bool) -> OneMatrix | None:
    a_eq, b_eq, a_ub, b_ub = _witness_system(w, q, equality)
    x = feasible_point(a_eq, b_eq, a_ub, b_ub)
    if x is None:
        return None
    k = x.reshape(q.size, w.size)
    return OneMatrix(k, q.weights.copy(), w.weights.copy())


def find_degradation_witness(w: Channel, q: Channel) -> OneMatrix | None:
    """Witness that W is a degradation of Q, or None when no witness exists.

    Feasibility of the witness system is equivalent to the degradation
    order itself, so ``None`` is the normal "not degraded" outcome.
    """
    if equivalent(w, q):
        # Reflexive case: route every particle to itself.
        return OneMatrix(np.diag(q.weights), q.weights.copy(), q.weights.copy())
    return _solve_witness(w, q, equality=False)


def is_degradation(w: Channel, q: Channel) -> bool:
    """True iff W is obtainable from Q by output post-processing."""
    return find_degradation_witness(w, q) is not None


def is_p_degradation(w: Channel, q: Channel) -> tuple[bool, OneMatrix | None]:
    """Test whether W is a minimum-error degradation of Q.

    Equivalent formulations: a witness with per-column equality
    sum_i k[i,j] sigma_i = p_j eps_j exists; or W <= Q and Perr(W) = Perr(Q).
    Returns the equality witness when the answer is yes.
    """
    if abs(error_probability(w) - error_probability(q)) > WITNESS_TOL:
        return False, None
    witness = _solve_witness(w, q, equality=True)
    if witness is None:
        return False, None
    return True, witness


def mean_degradation(q: Channel) -> Channel:
    """The unique minimum-error two-output degradation: B(sum_i q_i sigma_i)."""
    return canonicalize([(error_probability(q), 1.0)])


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


@dataclass(frozen=True)
class BayesRiskCurve:
    """Piecewise-linear MLD error of a mixture as a function of the prior.

    e_W(theta) = sum_i q_i [min(theta(1-s_i), (1-theta)s_i)
                            + min(theta s_i, (1-theta)(1-s_i))],
    concave with breakpoints {0, 1} and {s_i, 1-s_i}.
    """

    sigmas: np.ndarray
    weights: np.ndarray
    breakpoints: np.ndarray

    def __call__(self, theta) -> np.ndarray | float:
        theta = np.asarray(theta, dtype=np.float64)
        t = theta[..., None]
        s = self.sigmas
        e = np.minimum(t * (1.0 - s), (1.0 - t) * s) + np.minimum(
            t * s, (1.0 - t) * (1.0 - s)
        )
        out = e @ self.weights
        return float(out) if out.ndim == 0 else out


def bayes_risk_curve(w: Channel) -> BayesRiskCurve:
    """Bayes risk curve of a canonical channel, with its breakpoint set."""
    pts = {0.0, 1.0}
    for p in w.particles:
        pts.add(p.sigma)
        pts.add(1.0 - p.sigma)
    return BayesRiskCurve(
        w.sigmas.copy(), w.weights.copy(), np.array(sorted(pts), dtype=np.float64)
    )


def risk_dominates(w: Channel, q: Channel, tol: float = WITNESS_TOL) -> bool:
    """True iff e_W >= e_Q at every prior (checked at all breakpoints).

    Both curves are piecewise linear, so dominance on the union of their
    breakpoints is dominance everywhere.  This is the Blackwell-comparison
    route to the degradation order, independent of the witness LP.
    """
    cw = bayes_risk_curve(w)
    cq = bayes_risk_curve(q)
    grid = np.union1d(cw.breakpoints, cq.breakpoints)
    return bool(np.all(cw(grid) >= cq(grid) - tol))


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
