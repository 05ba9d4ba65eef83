"""``to_pstar_plan``'s verdict against the witness construction.

``refine.to_pstar_plan`` decides W <= Q from the margins of its own quantile
slices and builds a witness (``find_degradation_witness``) only within
round-off of a tie.  It must raise ``DegradationOrderError`` exactly when
the witness is None: on criterion 07's pairs, on the witness-check
benchmark's pairs, on pairs whose crossovers sit within 1e-10 to 1e-8 of
their column means, and on the edge cases pinned below.  A degraded
witness-check op runs the left-curtain coupling twice, not three times.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidmc import (
    DegradationOrderError,
    blackwell,
    bsc,
    canonicalize,
    error_probability,
    find_degradation_witness,
    instance_rng,
    is_p_degradation,
    random_channel,
    realize_pstar,
    refine,
    to_pstar_plan,
)
from bidmc.blackwell import WITNESS_TOL

from channel_helpers import equivalent
from test_refine import Q3, random_pstar_plan
from witness_pairs import criterion_07_pairs, witness_check_pairs


def _verdict(monkeypatch, w, q):
    """"accept", "reject" or "fallback", the branch ``to_pstar_plan`` took
    on (w, q), after checking its verdict against the witness's."""
    fallbacks = [0]

    def counted(w, q):
        fallbacks[0] += 1
        return find_degradation_witness(w, q)

    with monkeypatch.context() as patch:
        patch.setattr(refine, "find_degradation_witness", counted)
        try:
            to_pstar_plan(w, q)
            degraded = True
        except DegradationOrderError:
            degraded = False
    assert degraded == (find_degradation_witness(w, q) is not None)
    return "fallback" if fallbacks[0] else "accept" if degraded else "reject"


def _branches(monkeypatch, pairs):
    taken = {"accept": 0, "reject": 0, "fallback": 0}
    for w, q in pairs:
        taken[_verdict(monkeypatch, w, q)] += 1
    return taken


def test_the_verdict_is_the_witness_verdict_on_criterion_07_pairs(monkeypatch):
    taken = _branches(monkeypatch, criterion_07_pairs())
    assert min(taken.values()) > 0, taken


def test_the_verdict_is_the_witness_verdict_on_witness_check_pairs(monkeypatch):
    # Every degraded pair of the benchmark is decided by its margins.
    for seed in (0, 1):
        taken = _branches(monkeypatch, witness_check_pairs(seed))
        assert taken["fallback"] == 0 and taken["accept"] > 200 and taken["reject"] > 400, taken


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.integers(1, 10),
    st.data(),
)
def test_the_verdict_is_the_witness_verdict_near_the_column_means(seed, m, n, data):
    # A routed witness's column means, each moved by 1e-10 to 1e-8 either
    # way: both verdicts occur, and many margins are within a tie.
    rng = instance_rng(seed, 33)
    q = random_channel(rng, m)
    k = rng.dirichlet(np.ones(n), size=m) * q.weights[:, None]
    cols = k.sum(axis=0)
    means = (q.sigmas @ k) / cols
    offset = st.floats(1e-10, 1e-8).flatmap(lambda d: st.sampled_from((-d, d)))
    moved = np.array(data.draw(st.lists(offset, min_size=n, max_size=n)))
    w = canonicalize(list(zip(np.clip(means + moved, 0.0, 0.5).tolist(), cols.tolist())))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _verdict(monkeypatch, w, q)


def test_a_degraded_witness_check_op_runs_the_coupling_twice(monkeypatch):
    # The op's own witness and is_p_degradation's on the P* realization;
    # to_pstar_plan builds none on a clearly degraded pair.
    degraded = [(w, q) for w, q in witness_check_pairs(0) if find_degradation_witness(w, q) is not None]
    assert len(degraded) > 200
    calls, curtain = [0], blackwell._left_curtain

    def counted(*args):
        calls[0] += 1
        return curtain(*args)

    monkeypatch.setattr(blackwell, "_left_curtain", counted)
    for w, q in degraded:
        calls[0] = 0
        assert find_degradation_witness(w, q) is not None
        plan = to_pstar_plan(w, q)
        assert calls[0] == 1
        assert is_p_degradation(realize_pstar(plan), q)[0]
        assert calls[0] == 2


# ----------------------------------------------------------------------
# edge cases, each against the witness verdict


def test_one_particle_w_has_no_interior_margin(monkeypatch):
    # n = 1: W = B(eps) is below Q exactly when eps >= Perr(Q).
    perr = error_probability(Q3)
    assert _verdict(monkeypatch, bsc(perr + 0.01), Q3) == "accept"
    assert _verdict(monkeypatch, bsc(0.5), Q3) == "accept"
    assert _verdict(monkeypatch, bsc(perr - 0.01), Q3) == "reject"
    assert _verdict(monkeypatch, bsc(0.1), bsc(0.1)) == "accept"


def test_one_particle_q(monkeypatch):
    # m = 1: W <= B(sigma) exactly when every crossover of W is at least
    # sigma.  Then the water level is sigma throughout and G_Q is linear, so
    # every margin is zero and the witness decides.
    assert _verdict(monkeypatch, canonicalize([(0.2, 0.5), (0.3, 0.5)]), bsc(0.1)) == "fallback"
    # The water level exists (Perr(W) = 0.225), the coupling fails.
    assert _verdict(monkeypatch, canonicalize([(0.05, 0.5), (0.4, 0.5)]), bsc(0.1)) == "reject"


def test_w_equal_to_q_is_degraded(monkeypatch):
    rng = instance_rng(33, 1)
    for _ in range(20):
        q = random_channel(rng, int(rng.integers(1, 12)))
        assert _verdict(monkeypatch, q, q) != "reject"
        assert equivalent(realize_pstar(to_pstar_plan(q, q)), q)


def test_perr_just_below_q_falls_back(monkeypatch):
    # Perr(W) within WITNESS_TOL below Perr(Q): the water level is W's own
    # crossovers and the margins do not sum to zero, so the witness decides.
    # Q3 with its middle crossover lowered is an upgrade within tolerance; a
    # W with mass below Q3's least crossover is not.
    lowered = canonicalize([(0.1, 0.5), (0.2 - WITNESS_TOL, 0.3), (0.4, 0.2)])
    assert 0 < error_probability(Q3) - error_probability(lowered) <= WITNESS_TOL
    assert _verdict(monkeypatch, lowered, Q3) == "fallback"
    assert find_degradation_witness(lowered, Q3) is not None
    top = (error_probability(Q3) - 0.4 * 0.05 - WITNESS_TOL / 2) / 0.6
    upgraded = canonicalize([(0.05, 0.4), (top, 0.6)])
    assert 0 < error_probability(Q3) - error_probability(upgraded) <= WITNESS_TOL
    assert _verdict(monkeypatch, upgraded, Q3) == "fallback"
    assert find_degradation_witness(upgraded, Q3) is None


def test_realized_plans_fall_back(monkeypatch):
    # W1 = realize_pstar(plan) is Q's slices themselves, so every margin is
    # zero to round-off and the witness decides.
    rng = instance_rng(33, 2)
    for _ in range(40):
        q = random_channel(rng, int(rng.integers(3, 10)))
        w = realize_pstar(random_pstar_plan(rng, q, int(rng.integers(2, q.size))))
        assert _verdict(monkeypatch, w, q) == "fallback"


def _tiny_top(x):
    # All but about 1e-9 of the mass at 1/4, 1e-9 at 0 and x at 1/2.
    w = np.array([1e-9, 1.0, x])
    return canonicalize(np.column_stack(([0.0, 0.25, 0.5], w / w.sum())))


def test_the_water_level_stays_in_its_interval_over_a_tiny_top_mass(monkeypatch):
    # Over above_k of about x, tau = (Perr(Q) - below_k) / above_k divides a
    # cancelled difference, and it fell below eps_{k-1} = 1/4: the heavy
    # particle was lowered to 0.24998, so to_pstar_plan rejected pairs that
    # the witness and the Bayes-risk curves both call degraded.
    w, q = _tiny_top(5.42165872e-13), _tiny_top(1e-18)
    assert blackwell._water_level(w, error_probability(q))[1] == 0.25
    assert _verdict(monkeypatch, w, q) != "reject"
    rng = instance_rng(35, 0)
    for _ in range(300):
        x, y = np.sort(10.0 ** rng.uniform(-18, -9, size=2))
        w, q = _tiny_top(y), _tiny_top(x)
        assert _verdict(monkeypatch, w, q) != "reject"
        assert blackwell.risk_dominates(w, q)
