"""The degradation-witness LP and a dense phase-one simplex to solve it.

The tests' oracle for the witness construction in ``bidmc.blackwell``, which
does not use it.  ``witness_system`` writes the witness of pattern
(q.weights; w.weights) as a linear feasibility system and ``lp_witness``
solves it.

``feasible_point`` solves

    find x >= 0  with  A_eq x = b_eq  and  A_ub x <= b_ub

by minimizing the sum of artificial variables over the standard tableau.
All right-hand sides must be nonnegative (the degradation-witness systems
are built that way).  Pivoting uses Dantzig's rule with an automatic switch
to Bland's rule to rule out cycling, so results are deterministic.

Instances here are small (a few hundred rows), which is why a bespoke dense
tableau is preferred over a general-purpose solver.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FEAS_TOL", "feasible_point", "witness_system", "lp_witness"]

FEAS_TOL = 1e-9


def feasible_point(
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    tol: float = FEAS_TOL,
) -> np.ndarray | None:
    """Return some x >= 0 satisfying the system, or None if infeasible.

    Feasibility is decided by whether the phase-one optimum is below
    ``tol``; the returned point is the basic solution of the final tableau
    with tiny negative entries clipped to zero.
    """
    if a_eq is None:
        a_eq = np.zeros((0, 0))
        b_eq = np.zeros(0)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    if a_ub is None:
        a_ub = np.zeros((0, a_eq.shape[1]))
        b_ub = np.zeros(0)
    a_ub = np.asarray(a_ub, dtype=np.float64)
    b_ub = np.asarray(b_ub, dtype=np.float64)

    n_eq, n_var = a_eq.shape
    n_ub = a_ub.shape[0]
    if np.any(b_eq < -tol) or np.any(b_ub < -tol):
        raise ValueError("phase-one form requires nonnegative right-hand sides")
    b_eq = np.maximum(b_eq, 0.0)
    b_ub = np.maximum(b_ub, 0.0)

    # Column layout: [x (n_var) | slacks (n_ub) | artificials (n_eq)].
    n_slack = n_ub
    n_art = n_eq
    n_total = n_var + n_slack + n_art
    m_rows = n_eq + n_ub

    tab = np.zeros((m_rows + 1, n_total + 1))
    tab[:n_eq, :n_var] = a_eq
    tab[:n_eq, n_var + n_slack : n_var + n_slack + n_art] = np.eye(n_eq)
    tab[:n_eq, -1] = b_eq
    tab[n_eq : n_eq + n_ub, :n_var] = a_ub
    tab[n_eq : n_eq + n_ub, n_var : n_var + n_slack] = np.eye(n_ub)
    tab[n_eq : n_eq + n_ub, -1] = b_ub

    basis = np.concatenate(
        [
            np.arange(n_var + n_slack, n_var + n_slack + n_art),
            np.arange(n_var, n_var + n_slack),
        ]
    ).astype(int)

    # Objective row: minimize the artificial sum; eliminate basic artificials.
    tab[-1, n_var + n_slack : n_var + n_slack + n_art] = 1.0
    tab[-1, :] -= tab[:n_eq, :].sum(axis=0)

    max_iter = 200 * (m_rows + n_total + 1)
    bland_after = 20 * (m_rows + n_total + 1)
    for it in range(max_iter):
        costs = tab[-1, :-1]
        if it < bland_after:
            col = int(np.argmin(costs))
            if costs[col] >= -tol:
                break
        else:
            neg = np.nonzero(costs < -tol)[0]
            if neg.size == 0:
                break
            col = int(neg[0])
        ratios = np.full(m_rows, np.inf)
        pos = tab[:m_rows, col] > tol
        ratios[pos] = tab[:m_rows, -1][pos] / tab[:m_rows, col][pos]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            # Unbounded phase-one direction cannot happen with bounded
            # artificial objective; treat as numerical failure.
            return None
        # Deterministic tie-break: smallest basis index among minimal ratios.
        tie = np.nonzero(np.isclose(ratios, ratios[row], rtol=0.0, atol=1e-15))[0]
        if tie.size > 1:
            row = int(tie[np.argmin(basis[tie])])
        pivot = tab[row, col]
        tab[row, :] /= pivot
        other = np.arange(m_rows + 1) != row
        tab[other, :] -= np.outer(tab[other, col], tab[row, :])
        tab[other, col] = 0.0
        basis[row] = col
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    if -tab[-1, -1] > tol:
        return None
    x = np.zeros(n_total)
    x[basis] = tab[:m_rows, -1]
    return np.maximum(x[:n_var], 0.0)


def witness_system(w, q, equality: bool):
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


def lp_witness(w, q, equality: bool = False) -> np.ndarray | None:
    """The simplex's witness entries (m x n), or None when it finds none.

    The point is returned as the simplex gives it, unchecked: the simplex
    can report a point that breaks the system by more than its tolerance.
    """
    x = feasible_point(*witness_system(w, q, equality))
    return None if x is None else x.reshape(q.size, w.size)
