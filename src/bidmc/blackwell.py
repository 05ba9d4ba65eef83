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
    "BayesRiskCurve",
    "find_degradation_witness",
    "is_p_degradation",
    "mean_degradation",
    "bayes_risk_curve",
    "risk_dominates",
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

    def to_json_dict(self) -> dict:
        m, n = self.entries.shape
        return {"rows": m, "cols": n, "k": self.entries.tolist()}


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
    [eps_{k-1}, eps_k) the sum is below_k + tau above_k, and tau is held
    in that interval against round-off.
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
    tau = (perr_q - below[k]) / above[k]
    # tau lies in [eps_{k-1}, eps_k) by construction, but over a tiny
    # above_k the subtraction's round-off can put it below eps_{k-1}, which
    # would lower a particle below its own crossover.
    if k > 0:
        tau = max(tau, eps[k - 1])
    return np.minimum(eps, tau)


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

    Only the live particles, those with remaining mass above _DUST, take
    part: their indices, masses and crossovers sit compacted in sigma
    order, and a particle leaves them once a column spends it.  The window
    starts are deduplicated (a sort and a mask) before the search, as the
    moment differences at repeated starts may not be monotone, and one
    ``np.interp`` call evaluates G at the window ends and the starts.
    """
    live = np.flatnonzero(q.weights > _DUST)
    rest, s = q.weights[live], q.sigmas[live]
    # The live mass's quantile edges and moments, each led by a zero.
    edges, moments = np.zeros((2, live.size + 1))
    k = np.zeros((q.size, w.size))
    excess = 0.0
    for j, (pj, ej, mj) in enumerate(zip(w.weights.tolist(), w.sigmas.tolist(), mu.tolist())):
        rest.cumsum(out=edges[1:])
        (rest * s).cumsum(out=moments[1:])
        total = float(edges[-1])
        width = min(pj, total)
        starts = np.concatenate((edges, edges - width))
        np.minimum(np.maximum(starts, 0.0, out=starts), total - width, out=starts)
        starts.sort()
        starts = starts[np.append(True, starts[1:] != starts[:-1])]
        n = starts.size
        g = np.interp(np.concatenate((starts + width, starts)), edges, moments)
        f = g[:n] - g[n:]
        target = width * mj
        i = min(int(f.searchsorted(target)), n - 1)
        u = float(starts[i])
        if 0 < i and f[i] >= target:
            u = starts[i - 1] + (target - f[i - 1]) * (u - starts[i - 1]) / (f[i] - f[i - 1])
        take = np.maximum(np.minimum(edges[1:], u + width) - np.maximum(edges[:-1], u), 0.0)
        excess += max(float(s @ take) - pj * ej, 0.0)
        if excess > WITNESS_TOL:
            return None
        k[live, j] = take
        rest = np.maximum(rest - take, 0.0)
        alive = rest > _DUST
        if not alive.all():
            live, rest, s = live[alive], rest[alive], s[alive]
            edges, moments = edges[: live.size + 1], moments[: live.size + 1]
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


def _bayes_risk(theta: np.ndarray, sigmas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """e_W at each prior of ``theta``, for W's crossovers and weights:

        e_W(theta) = sum_i q_i [min(theta(1-s_i), (1-theta)s_i)
                                + min(theta s_i, (1-theta)(1-s_i))],

    one row of terms per prior, summed by one ``@ weights`` product.  The
    one home of the curve, for ``BayesRiskCurve`` and ``risk_dominates``.
    """
    t = theta[..., None]
    r, u = 1.0 - sigmas, 1.0 - t
    e = np.minimum(t * r, u * sigmas) + np.minimum(t * sigmas, u * r)
    return e @ weights


@dataclass(frozen=True)
class BayesRiskCurve:
    """Piecewise-linear MLD error of a mixture as a function of the prior.

    Calling it evaluates e_W (see ``_bayes_risk``), concave with
    breakpoints {0, 1} and {s_i, 1-s_i}; a scalar prior gives a float.
    """

    sigmas: np.ndarray
    weights: np.ndarray
    breakpoints: np.ndarray

    def __call__(self, theta) -> np.ndarray | float:
        out = _bayes_risk(np.asarray(theta, dtype=np.float64), self.sigmas, self.weights)
        return float(out) if out.ndim == 0 else out


def bayes_risk_curve(w: Channel) -> BayesRiskCurve:
    """Bayes risk curve of a canonical channel, with its sorted breakpoint
    set {0, 1} and {s_i, 1 - s_i}, each value once."""
    s = w.sigmas
    pts = np.unique(np.concatenate(([0.0, 1.0], s, 1.0 - s)))
    return BayesRiskCurve(s.copy(), w.weights.copy(), pts)


def _risk_grid(w: Channel, q: Channel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of both curves' breakpoints, from one sort and one dedupe
    of {0, 1} and both channels' {s_i, 1 - s_i}, and e_W and e_Q on it."""
    pts = np.concatenate(([0.0], w.sigmas, q.sigmas))
    grid = np.concatenate((pts, 1.0 - pts))
    grid.sort()
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    return grid, _bayes_risk(grid, w.sigmas, w.weights), _bayes_risk(grid, q.sigmas, q.weights)


def risk_dominates(w: Channel, q: Channel) -> bool:
    """True iff e_W >= e_Q - WITNESS_TOL at every prior (checked at all
    breakpoints).

    Both curves are piecewise linear, so dominance on the union of their
    breakpoints is dominance everywhere.  Both are evaluated on that one
    grid (``_risk_grid``), without building curve objects; the grid and
    the values are bit for bit those of ``bayes_risk_curve``'s curves on
    the union of their breakpoint sets.  This is the Blackwell-comparison
    route to the degradation order, independent of the constructed witness
    (``find_degradation_witness``).
    """
    _, ew, eq = _risk_grid(w, q)
    return bool(np.all(ew >= eq - WITNESS_TOL))
