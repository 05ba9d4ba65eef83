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

Witnesses are built, not searched for: a water level lowers W's largest
crossovers until their mean is Perr(Q), and the left-curtain coupling routes
Q's mass to those column means in one sweep.  The construction succeeds
exactly when W <= Q, and it serves the plain and the equality witness alike.

An independent second route to the same order is Bayes-risk dominance: W is a
degradation of Q iff the prior-weighted MLD error of W is at least that of Q
at every prior.  Both routes are exposed so each can check the other; the
construction never consults the curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, canonicalize, error_probability

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
# Remaining masses at or below this are spent, so quantile edges increase.
_DUST = 1e-15


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
        # Written so that a NaN fails: its difference's max is NaN.
        if not np.abs(k.sum(axis=1) - self.row_pattern).max() <= WITNESS_TOL:
            raise ValueError("row sums do not match the row pattern")
        if not np.abs(k.sum(axis=0) - self.col_pattern).max() <= WITNESS_TOL:
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


def _water_level(w: Channel, perr_q: float) -> np.ndarray | None:
    """Column means mu_j = min(eps_j, tau) with sum_j p_j mu_j = Perr(Q).

    For theta <= 1/2 the Bayes risk of a mixture is e_W(theta) =
    sum_j p_j min(theta, eps_j), so W <= Q exactly when (mu, p) is below
    Q's crossover law (sigma, q) in convex order.  If it is, a martingale
    coupling of the two (Strassen) is a witness, since mu <= eps.  If
    W <= Q, then e_W >= e_Q; sum_j p_j min(theta, mu_j) is e_W(theta) for
    theta <= tau and Perr(Q) >= e_Q(theta) above, so (mu, p) and (sigma, q)
    have equal means and ordered risks, which is the convex order.

    The sum rises continuously from 0 to Perr(W) with tau, so tau exists
    iff Perr(W) >= Perr(Q) (None when it falls short by more than
    WITNESS_TOL), and mu = eps when the two agree.  For tau in
    [eps_{k-1}, eps_k) the sum is below_k + tau above_k.
    """
    eps, p = w.sigmas, w.weights
    perr_w = error_probability(w)
    if perr_w < perr_q - WITNESS_TOL:
        return None
    if perr_w <= perr_q:
        return eps
    below = np.concatenate(([0.0], np.cumsum(p * eps)[:-1]))
    above = np.cumsum(p[::-1])[::-1]
    # The last level is Perr(W) up to round-off, so k is clamped to it.
    k = min(int(np.searchsorted(below + eps * above, perr_q, side="right")), eps.size - 1)
    return np.minimum(eps, (perr_q - below[k]) / above[k])


def _left_curtain(q: Channel, w: Channel, mu: np.ndarray) -> np.ndarray | None:
    """Martingale coupling of (mu, p) into (sigma, q), columns in rising mu.

    Column j takes the window of Q's remaining mass, contiguous in sigma
    order, with mass p_j and mean mu_j: the shadow of an atom in the
    left-curtain coupling (Beiglboeck & Juillet, Ann. Probab. 44(1), 2016),
    which exists for every column when (mu, p) is below (sigma, q) in
    convex order.  The window's moment G(u + p_j) - G(u), with G the moment
    of the remaining mass below quantile u, is nondecreasing and piecewise
    linear in the start u, so a search over its breakpoints and one linear
    solve place it.  Where no window has mean mu_j the nearest is taken, and
    the coupling fails (None) once the columns' moments exceed p_j eps_j by
    more than WITNESS_TOL in total.  By Jensen, e_Q(theta) is at most
    sum_j p_j min(theta, m_j) for column means m_j, so a returned witness
    bounds e_W - e_Q below by -WITNESS_TOL, the tolerance of the curves.
    """
    s, p = q.sigmas, w.weights
    rest = q.weights.copy()
    k = np.zeros((q.size, p.size))
    excess = 0.0
    for j in range(p.size):
        live = np.flatnonzero(rest > _DUST)
        edges = np.concatenate(([0.0], np.cumsum(rest[live])))
        moments = np.concatenate(([0.0], np.cumsum(rest[live] * s[live])))
        width = min(p[j], edges[-1])
        starts = np.unique(np.clip(np.concatenate((edges, edges - width)), 0.0, edges[-1] - width))
        f = np.interp(starts + width, edges, moments) - np.interp(starts, edges, moments)
        target = width * mu[j]
        i = min(int(np.searchsorted(f, target)), starts.size - 1)
        u = starts[i]
        if 0 < i and f[i] >= target:
            u = starts[i - 1] + (target - f[i - 1]) * (u - starts[i - 1]) / (f[i] - f[i - 1])
        take = np.maximum(np.minimum(edges[1:], u + width) - np.maximum(edges[:-1], u), 0.0)
        excess += max(s[live] @ take - p[j] * w.sigmas[j], 0.0)
        if excess > WITNESS_TOL:
            return None
        k[live, j] = take
        rest[live] = np.maximum(rest[live] - take, 0.0)
    return k


def find_degradation_witness(w: Channel, q: Channel) -> OneMatrix | None:
    """Witness that W is a degradation of Q, or None when no witness exists.

    The water level picks the column means (``_water_level``) and the
    left-curtain coupling routes Q's mass to them (``_left_curtain``); the
    construction succeeds exactly when W <= Q, so ``None`` is the normal
    "not degraded" outcome.  On W = Q it returns the diagonal.
    """
    mu = _water_level(w, error_probability(q))
    k = None if mu is None else _left_curtain(q, w, mu)
    return None if k is None else OneMatrix(k, q.weights.copy(), w.weights.copy())


def is_degradation(w: Channel, q: Channel) -> bool:
    """True iff W is obtainable from Q by output post-processing."""
    return find_degradation_witness(w, q) is not None


def is_p_degradation(w: Channel, q: Channel) -> tuple[bool, OneMatrix | None]:
    """Test whether W is a minimum-error degradation of Q.

    Equivalent formulations: a witness with per-column equality
    sum_i k[i,j] sigma_i = p_j eps_j exists; or W <= Q and Perr(W) = Perr(Q).
    Returns the equality witness when the answer is yes: with equal error
    probabilities the water level leaves mu = eps, so the construction
    places every column at its own crossover.
    """
    if abs(error_probability(w) - error_probability(q)) > WITNESS_TOL:
        return False, None
    witness = find_degradation_witness(w, q)
    return witness is not None, witness


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
    s = w.sigmas
    pts = np.unique(np.concatenate(([0.0, 1.0], s, 1.0 - s)))
    return BayesRiskCurve(s.copy(), w.weights.copy(), pts)


def risk_dominates(w: Channel, q: Channel, tol: float = WITNESS_TOL) -> bool:
    """True iff e_W >= e_Q at every prior (checked at all breakpoints).

    Both curves are piecewise linear, so dominance on the union of their
    breakpoints is dominance everywhere.  This is the Blackwell-comparison
    route to the degradation order, independent of the constructed witness
    (``find_degradation_witness``).
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
