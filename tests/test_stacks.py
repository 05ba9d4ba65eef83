"""Stacked calls against the single calls they stack.

``construct`` runs each level, and ``bidmc.experiments`` each batch of a
table, through stacked forms of the Arikan transforms, ``canonicalize``,
the DP, ``realize_pplus`` and ``capacity``; each single call is the stack
of one.  Every member of a stack must equal its
single call bit for bit, so results are compared by ``tobytes()`` and
``.hex()``, and a malformed member must raise its single call's error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidmc import (
    InvalidDistributionError,
    arikan_minus,
    arikan_plus,
    c_optimal_degradation,
    c_optimal_degradations,
    canonicalize,
    capacity,
    capacity_loss_rate,
    dp_tables,
    enumerate_c_degradations,
    instance_rng,
    random_channel,
    realize_pplus,
    refine_cuts,
    tv_greedy_plan,
)
from bidmc.channel import MERGE_TOL, _canonicalize_stack, _capacities, _channels, _stack
from bidmc.experiments import _opt_clr_counted, arikan_clr, pplus_stats
from bidmc.polar import _transforms
from bidmc.refine import PPlusPlan, _realize

# Shared crossovers, so members of a stack and pairs of a transform meet
# exact ties, with 0 and 1/2 among them.
_SHARED = st.sampled_from([0.0, 0.5, 0.1, 0.25, 0.5 - 1e-13, 1e-13, 0.3])


def _bytes(chan):
    return chan.sigmas.tobytes(), chan.weights.tobytes()


@st.composite
def _channel(draw):
    """A channel of 1 to 20 particles, some crossovers shared with others."""
    size = draw(st.integers(1, 20))
    sigmas = draw(
        st.lists(
            st.one_of(_SHARED, st.floats(0.0, 0.5)),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size)))
    return canonicalize(np.column_stack((sigmas, weights / weights.sum())))


@st.composite
def _raw(draw):
    """A valid pair list of 1 to 20 pairs: ties, clusters near MERGE_TOL and reflections."""
    size = draw(st.integers(1, 20))
    sigmas = []
    for _ in range(size):
        kind = draw(st.integers(0, 3))
        if kind == 0 or not sigmas:
            sigmas.append(draw(st.one_of(_SHARED, st.floats(0.0, 1.0))))
        elif kind == 1:
            sigmas.append(draw(st.sampled_from(sigmas)))
        elif kind == 2:
            step = draw(st.sampled_from([0.4, 0.9, 1.0, 1.1, 1.9, 2.0, 2.1]))
            sigmas.append(min(max(sigmas[-1] + step * MERGE_TOL, 0.0), 1.0))
        else:
            sigmas.append(1.0 - draw(st.sampled_from(sigmas)))
    weights = draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e-15, 3.0]), min_size=size, max_size=size)
    )
    weights[0] = 1.0
    return np.column_stack((sigmas, np.array(weights) / sum(weights)))


def _sizes_and_pairs(raws):
    return [len(raw) for raw in raws], np.concatenate(raws)


@settings(max_examples=80)
@given(st.lists(_raw(), min_size=1, max_size=8), st.integers(1, 12))
def test_canonicalize_stack_matches_single_calls(raws, limit):
    sizes, pairs = _sizes_and_pairs(raws)
    singles = [canonicalize(raw) for raw in raws]
    assert [_bytes(c) for c in _channels(_canonicalize_stack(pairs, sizes))] == [_bytes(c) for c in singles]
    # With a limit, which only a stack of one takes, a member is None
    # exactly when it has more particles.
    for raw, want in zip(raws, singles):
        [got] = _channels(_canonicalize_stack(raw, [len(raw)], limit))
        assert (got is None) == (want.size > limit)
        assert got is None or _bytes(got) == _bytes(want)
    if len(raws) > 1:
        with pytest.raises(ValueError, match="stack of one"):
            _canonicalize_stack(pairs, sizes, limit)


@pytest.mark.parametrize(
    "bad, exc",
    [
        ([(0.1, 0.5), (0.2, 0.6)], InvalidDistributionError),
        ([(0.1, -0.2), (0.2, 1.2)], InvalidDistributionError),
        ([(-0.1, 0.5), (0.2, 0.5)], ValueError),
        ([(float("nan"), 0.5), (0.2, 0.5)], ValueError),
        ([(3.0, 0.0), (0.2, 0.5)], InvalidDistributionError),
    ],
)
@pytest.mark.parametrize("at", [0, 1, 3])
def test_canonicalize_stack_raises_the_malformed_members_error(bad, exc, at):
    raws = [
        np.array([(0.1, 0.5), (0.3, 0.5)]),
        np.array([(0.2, 1.0)]),
        np.array([(0.4, 0.25), (0.4, 0.75)]),
    ]
    raws.insert(at, np.array(bad, dtype=np.float64))
    with pytest.raises(exc) as single:
        canonicalize(raws[at])
    sizes, pairs = _sizes_and_pairs(raws)
    with pytest.raises(exc) as stacked:
        _canonicalize_stack(pairs, sizes)
    assert str(stacked.value) == str(single.value)


@settings(max_examples=30)
@given(st.lists(st.tuples(_channel(), st.sampled_from("01")), min_size=1, max_size=8))
def test_transforms_stack_matches_single_calls(members):
    ws, bits = zip(*members)
    singles = [arikan_minus(w) if bit == "0" else arikan_plus(w) for w, bit in members]
    assert [_bytes(c) for c in _channels(_transforms(_stack(ws), bits))] == [_bytes(c) for c in singles]
    limit = int(np.median([c.size for c in singles]))
    for w, bit, want in zip(ws, bits, singles):
        [got] = _channels(_transforms(_stack([w]), bit, limit))
        assert (got is None) == (want.size > limit)
        assert got is None or _bytes(got) == _bytes(want)


@st.composite
def _plan(draw):
    q = draw(_channel().filter(lambda c: c.size >= 2))
    cuts = draw(st.lists(st.integers(2, q.size), min_size=0, max_size=q.size - 1, unique=True))
    return PPlusPlan(q, tuple(sorted(cuts)))


@settings(max_examples=30)
@given(st.lists(_plan(), min_size=1, max_size=8))
def test_realize_stack_matches_single_calls(plans):
    singles = [realize_pplus(plan) for plan in plans]
    # A stack's cut matrix holds plans with as many cuts.
    stacked = [None] * len(plans)
    for cuts in {len(plan.cuts) for plan in plans}:
        ks = [k for k, plan in enumerate(plans) if len(plan.cuts) == cuts]
        matrix = np.array([plans[k].cuts for k in ks], dtype=np.int64)
        for k, chan in zip(ks, _channels(_realize(_stack([plans[k].source for k in ks]), matrix))):
            stacked[k] = chan
    assert [_bytes(c) for c in stacked] == [_bytes(c) for c in singles]


@settings(max_examples=30)
@given(st.lists(_channel(), min_size=1, max_size=8))
def test_capacities_match_single_calls(ws):
    assert [c.hex() for c in _capacities(_stack(ws))] == [capacity(w).hex() for w in ws]


def _sure_groups(raw):
    """One plus the sorted gaps above 2 MERGE_TOL of the cleaned crossovers."""
    sig, wt = np.asarray(raw, dtype=np.float64).T
    sig = np.where(sig > 0.5, 1.0 - sig, sig)[wt > 0.0]
    s = np.sort(np.maximum(sig, 0.0))
    return 1 + int(np.count_nonzero(np.diff(s) > 2.0 * MERGE_TOL))


@settings(max_examples=150)
@given(_raw())
def test_sorted_gaps_bound_the_canonical_size(raw):
    chan = canonicalize(raw)
    bound = _sure_groups(raw)
    assert bound <= chan.size
    # The early stop drops exactly the members beyond the limit.
    assert _channels(_canonicalize_stack(raw, [len(raw)], bound - 1)) == [None]
    assert _bytes(_channels(_canonicalize_stack(raw, [len(raw)], chan.size))[0]) == _bytes(chan)


def test_a_stack_of_one_with_more_pairs_than_its_limit_is_kept_when_it_merges_within_it():
    # Twelve pairs in three tight clusters merge to 3 particles, so every
    # limit from 3 up keeps the member, equal to its single call, although
    # the pairs outnumber the limit; limit 2 drops it on its sorted gaps.
    sig = np.repeat([0.1, 0.2, 0.3], 4) + np.tile([0.0, 2e-13, 4e-13, 6e-13], 3)
    raw = np.column_stack((sig, np.full(12, 1.0 / 12.0)))
    chan = canonicalize(raw)
    assert chan.size == 3
    for limit in (3, 5, 11):
        assert _bytes(_channels(_canonicalize_stack(raw, [12], limit))[0]) == _bytes(chan)
    assert _channels(_canonicalize_stack(raw, [12], 2)) == [None]
    # A chain 0.8e-12 apart has no sorted gap above 2 MERGE_TOL, so its bound
    # is 1, but it merges to 6 particles, one per two pairs: limit 5 drops it
    # after the merge.
    raw = np.column_stack((0.2 + 0.8e-12 * np.arange(12), np.full(12, 1.0 / 12.0)))
    assert canonicalize(raw).size == 6
    assert _channels(_canonicalize_stack(raw, [12], 5)) == [None]
    assert _bytes(_channels(_canonicalize_stack(raw, [12], 6))[0]) == _bytes(canonicalize(raw))


@pytest.mark.parametrize("pruning", [True, False])
def test_dp_stack_matches_single_calls_from_its_cached_layout(pruning):
    # Two runs of a ragged stack, each read through the band's strided
    # views, change no bit of the single calls.
    qs = [random_channel(instance_rng(26, i), m) for i, m in enumerate((9, 17, 12))]
    singles = [c_optimal_degradation(q, 4, pruning) for q in qs]
    runs = [c_optimal_degradations(qs, 4, pruning) for _ in range(2)]
    for run in runs:
        assert [(p.cuts, c.hex()) for p, c in run] == [(p.cuts, c.hex()) for p, c in singles]


def _clrs(q, plans):
    cap_q = capacity(q)
    return [capacity_loss_rate(cap_q, capacity(realize_pplus(p))) for p in plans]


def test_experiment_records_match_per_instance_calls():
    # Every record against its instance's single calls, one plan at a time.
    seed, idx = 11, range(3, 11)
    rec = pplus_stats(seed, idx, 8, 3)
    for k, i in enumerate(idx):
        q = random_channel(instance_rng(seed, i), 8)
        clrs = _clrs(q, enumerate_c_degradations(q, 3))
        assert (rec["c_count"][k], rec["c_clr"][k]) == (len(clrs), min(clrs))
    rec = _opt_clr_counted(seed, idx, 12, 4)
    for k, i in enumerate(idx):
        q = random_channel(instance_rng(seed, i), 12)
        plan, table = dp_tables([q], 4, True)[0]
        want = (*_clrs(q, [plan]), table.evaluations, table.pruned_states)
        assert tuple(rec[key][k] for key in rec) == want
    rec = arikan_clr(seed, idx, 3, c_stats=True)
    for k, i in enumerate(idx):
        q = arikan_plus(random_channel(instance_rng(seed, i), 3))
        assert q.size > 3
        tv = tv_greedy_plan(q, 3)
        plans = [c_optimal_degradation(q, 3)[0], tv, refine_cuts(tv)]
        clrs = _clrs(q, enumerate_c_degradations(q, 3))
        want = (q.size, capacity(q), *(capacity(realize_pplus(p)) for p in plans), len(clrs), np.mean(clrs))
        assert tuple(rec[key][k] for key in rec) == want
