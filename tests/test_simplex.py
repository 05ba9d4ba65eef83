import numpy as np
import pytest

from lp_oracle import feasible_point


def test_simple_equality_system():
    # x0 + x1 = 1, x0 - x1 = 0 -> x = (1/2, 1/2)
    x = feasible_point(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]))
    assert x is not None
    assert x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_infeasible_by_sign():
    # x0 + x1 = 1 with x0 + x1 <= 0.5 is infeasible for x >= 0
    x = feasible_point(
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        np.array([[1.0, 1.0]]),
        np.array([0.5]),
    )
    assert x is None


def test_inequalities_respected():
    x = feasible_point(
        np.array([[1.0, 1.0, 1.0]]),
        np.array([1.0]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([0.1, 0.2]),
    )
    assert x is not None
    assert x[0] <= 0.1 + 1e-9 and x[1] <= 0.2 + 1e-9
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def test_degenerate_zero_rhs():
    x = feasible_point(
        np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 2.0])
    )
    assert x is not None
    assert x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_random_transportation_patterns():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = rng.integers(2, 7), rng.integers(2, 7)
        q = rng.dirichlet(np.ones(m))
        p = rng.dirichlet(np.ones(n))
        a_eq = []
        b_eq = []
        for i in range(m):
            row = np.zeros(m * n)
            row[i * n : (i + 1) * n] = 1.0
            a_eq.append(row)
            b_eq.append(q[i])
        for j in range(n):
            row = np.zeros(m * n)
            row[j::n] = 1.0
            a_eq.append(row)
            b_eq.append(p[j])
        x = feasible_point(np.array(a_eq), np.array(b_eq))
        assert x is not None
        k = x.reshape(m, n)
        assert np.allclose(k.sum(axis=1), q, atol=1e-9)
        assert np.allclose(k.sum(axis=0), p, atol=1e-9)
        assert np.all(k >= -1e-12)
