"""The degradation tests against their earlier form (``witness_reference``).

``blackwell._left_curtain`` keeps only its live particles and
``blackwell.risk_dominates`` evaluates both curves on one grid; both must
give the earlier results bit for bit.  Witness entries, grids and curve
values are compared by ``tobytes()``, on criterion 07's pairs, on pairs of
skewed channels and on the P* realizations of the degraded pairs.
"""

from hypothesis import given

from bidmc import (
    bayes_risk_curve,
    error_probability,
    find_degradation_witness,
    instance_rng,
    random_channel,
    realize_pstar,
    risk_dominates,
    to_pstar_plan,
)
from bidmc.blackwell import _left_curtain, _risk_grid, _water_level

import witness_reference as ref
from skewed_channels import skewed_channels
from witness_pairs import criterion_07_pairs


def _same(a, b):
    return (a is None and b is None) or (a is not None and b is not None and a.tobytes() == b.tobytes())


def _check(w, q):
    """Both routes on (w, q) against the reference; True when the curtain ran."""
    grid, ew, eq = _risk_grid(w, q)
    want = ref.risk_grid(w, q)
    assert [a.tobytes() for a in (grid, ew, eq)] == [a.tobytes() for a in want]
    assert risk_dominates(w, q) == ref.risk_dominates(w, q)
    mu = _water_level(w, error_probability(q))
    if mu is not None:
        assert _same(_left_curtain(q, w, mu), ref.left_curtain(q, w, mu))
    return mu is not None


def test_both_routes_match_the_reference_on_criterion_07_pairs():
    ran = sum(_check(w, q) for w, q in criterion_07_pairs())
    assert ran > 500


def test_both_routes_match_the_reference_on_pstar_realizations():
    ran = 0
    for w, q in criterion_07_pairs():
        if find_degradation_witness(w, q) is not None:
            ran += _check(realize_pstar(to_pstar_plan(w, q)), q)
    assert ran > 300


@given(skewed_channels(), skewed_channels())
def test_both_routes_match_the_reference_on_skewed_channels(a, b):
    # One of the two orders always has a water level, so the curtain runs.
    (a, _), (b, _) = a, b
    assert _check(a, b) + _check(b, a) >= 1


def test_the_curve_object_matches_the_reference():
    for w, q in criterion_07_pairs():
        curve, want = bayes_risk_curve(w), ref.Curve(w)
        assert curve.breakpoints.tobytes() == want.breakpoints.tobytes()
        grid = ref.risk_grid(w, q)[0]
        assert curve(grid).tobytes() == want(grid).tobytes()
        assert curve(0.3) == float(want(0.3))


def test_the_curtain_dedupes_its_window_starts():
    # Seed 0, pair 120 of the witness-check benchmark: a random pair that is
    # a degradation.  On its P* realization some column has repeated window
    # starts, and its moment differences there are not monotone, so a search
    # over the starts without the dedupe lands on another start and moves
    # the witness by up to 7e-17.
    rng = instance_rng(0, 120)
    q = random_channel(rng, 32)
    w = random_channel(rng, 8)
    w1 = realize_pstar(to_pstar_plan(w, q))
    mu = _water_level(w1, error_probability(q))
    got, want = _left_curtain(q, w1, mu), ref.left_curtain(q, w1, mu)
    assert got is not None and got.tobytes() == want.tobytes()
