"""Known defects, each pinned as a strict ``xfail`` beside a passing test
of the facts its reproducer stands on; the change that mends a defect
drops its marker.  ROADMAP items 2, 7 and 12(b) name these tests."""

import pytest

from bidmc import (
    PStarPlan,
    arikan_plus,
    c_optimal_degradation,
    canonicalize,
    capacity,
    construct,
    instance_rng,
    is_c_degradation,
    plan_witness,
    random_channel,
    realize_pplus,
    refine_cuts,
    tv_greedy_plan,
)
from bidmc.refine import PPlusPlan


def _beside_one_half():
    """A 17-particle plus transform whose last particle is at exactly 1/2,
    and the greedy's plan for n = 4."""
    q = arikan_plus(random_channel(instance_rng(7, 47), 4))
    return q, tv_greedy_plan(q, 4)


def test_a_better_c_degradation_moves_the_cut_beside_a_group_at_one_half():
    q, greedy = _beside_one_half()
    assert q.size == 17 and q.sigmas[-1] == 0.5
    assert greedy.cuts == (8, 12, 17)
    better = PPlusPlan(q, (7, 12, 16))
    assert is_c_degradation(better)
    assert capacity(realize_pplus(better)).hex() == "0x1.0f34bdd388191p-1"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: refine._threshold is NaN beside a mean of exactly 1/2")
def test_refine_cuts_moves_the_cut_beside_a_group_at_one_half():
    # refine_cuts stops at (7, 12, 17), capacity 0x1.0f13370bb32b2p-1: it
    # never moves the cut beside the group at 1/2, where (7, 12, 16) gains.
    q, greedy = _beside_one_half()
    refined = refine_cuts(greedy)
    assert capacity(realize_pplus(refined)) >= capacity(realize_pplus(PPlusPlan(q, (7, 12, 16))))


@pytest.fixture(scope="module")
def above_its_transform():
    """Branch 000001 of a depth-6, n = 8 construction: its quantized
    channel, and the plus transform of its parent's quantized channel."""
    records = construct(random_channel(instance_rng(7, 17), 8), 6, 8).records
    return records["000001"].quantized, arikan_plus(records["00000"].quantized)


def test_the_dp_plan_of_a_near_zero_transform_lies_below_it(above_its_transform):
    _, transform = above_its_transform
    _, cap = c_optimal_degradation(transform, 8)
    assert cap < capacity(transform) == 1.8144111598784465e-21


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12(b): a realized crossover near 1/2 rounds its bias up")
def test_a_quantized_branch_lies_below_its_transform(above_its_transform):
    # The realized channel reads 1.8144111599029867e-21, above its
    # transform's, so the record's CLR reads 0.
    quantized, transform = above_its_transform
    assert capacity(quantized) <= capacity(transform)


def _dust_at_a_segment_end():
    """Particle 2, of weight 1e-20, ends the first segment of the plan
    ``PStarPlan(q, (3,), (0.5,))``, whose full split the plan rewrites."""
    return canonicalize([(0.1, 0.5), (0.2, 1e-20), (0.3, 0.5), (0.4, 1e-300)])


def test_the_cut_plan_routes_the_dust_particle_at_a_segment_end():
    q = _dust_at_a_segment_end()
    plan = PStarPlan(q, (3,), (0.5,))
    assert (plan.indices, plan.splits) == ((2,), (0.0,))
    assert plan_witness(PPlusPlan(q, (3,))).entries.sum(axis=1).tolist() == q.weights.tolist()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a segment plan drops dust at its end")
def test_a_segment_plan_routes_the_dust_particle_at_a_segment_end():
    # The rewritten plan (2,), (0.0,) leaves particle 2 out of every
    # segment: its witness row sums to 0.0, not 1e-20.
    q = _dust_at_a_segment_end()
    assert plan_witness(PStarPlan(q, (3,), (0.5,))).entries.sum(axis=1)[1] == 1e-20
