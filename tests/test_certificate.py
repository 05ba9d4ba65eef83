"""Pruned DP plans from the unpruned run, certified by their own window tests.

With ``pruning`` on, ``c_optimal_degradations`` takes each plan and capacity
from the unpruned DP when no cut of its traceback surely fails its window
test, runs the pruned DP at once for the other channels, and builds the
pruned tables of a stack when one of its tables is first read.  Every
result must equal the eager pruned run (``search._eager_degradations``)
bit for bit: cuts, capacity, counters, every stage array and every error.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidmc import (
    c_optimal_degradation,
    c_optimal_degradations,
    canonicalize,
    construct,
    instance_rng,
    random_channel,
)
from bidmc import experiments, polar, search
from bidmc.polar import _transforms

_FIELDS = ("values", "decisions", "pruned", "evaluations", "pruned_states")


def _assert_same(got, want):
    """Cuts and capacity bits first (as a plan-only reader sees them), then
    every table field, which builds the tables on request."""
    (plan_g, table_g), (plan_w, table_w) = got, want
    assert plan_g.cuts == plan_w.cuts
    assert table_g.capacity.hex() == table_w.capacity.hex()
    assert table_g.evaluations == table_w.evaluations
    assert table_g.pruned_states == table_w.pruned_states
    for field in ("values", "decisions", "pruned"):
        stages_g, stages_w = getattr(table_g, field), getattr(table_w, field)
        assert len(stages_g) == len(stages_w), field
        for g, w in zip(stages_g, stages_w):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), field


def _check_corpus(qs, n):
    """The public stack and single calls against the eager pruned run."""
    want = search._eager_degradations(qs, n, True)
    for got, w in zip(c_optimal_degradations(qs, n), want, strict=True):
        _assert_same(got, w)
    for q, w in zip(qs, want):
        _assert_same(c_optimal_degradation(q, n), w)


def _certificates(qs, n):
    cuts, _, _, means, s = search._dp_run(qs, n, False)
    return search._certified(qs, cuts, means, s)


def _opt_uniform(seed, count):
    """The benchmark's opt-uniform inputs: m = 128, n = 4 + i % 7."""
    return [(random_channel(instance_rng(seed, i), 128), 4 + i % 7) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1])
def test_opt_uniform_inputs_match_the_pruned_run(seed):
    inputs = _opt_uniform(seed, 14)
    for n in sorted({n for _, n in inputs}):
        _check_corpus([q for q, k in inputs if k == n], n)


def test_random_grid_matches_the_pruned_run():
    rng = instance_rng(1401, 0)
    for n in (4, 6, 8, 10):
        # Ragged stacks: each channel's last group ends at its own size.
        qs = [random_channel(rng, m) for m in (16, 32, 64, 128, 16, 32, 64)]
        _check_corpus(qs, n)


def test_arikan_transforms_match_the_pruned_run():
    for n in range(4, 11):
        ws = [random_channel(instance_rng(1402, 10 * n + i), n) for i in range(4)]
        qs = [q for q in _transforms(ws, "1" * len(ws)) if q.size > n]
        _check_corpus(qs, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_polar_chain_stacks_match_the_pruned_run(monkeypatch, seed):
    stacks = []

    def spy(qs, n, pruning=True):
        stacks.append((list(qs), n))
        return c_optimal_degradations(qs, n, pruning)

    monkeypatch.setattr(polar, "c_optimal_degradations", spy)
    for i in range(2):
        construct(random_channel(instance_rng(seed, i), 4), 5, 4)
    assert len(stacks) == 10
    for qs, n in stacks:
        if qs:
            _check_corpus(qs, n)


def _fallback_channels():
    """The two depth-5 branches of a seed-1 chain whose unpruned traceback
    fails a window test, so their pruned plans differ from the unpruned."""
    run = construct(random_channel(instance_rng(1, 21), 4), 4, 4)
    return _transforms([run.records["1111"].quantized] * 2, "01")


@pytest.mark.parametrize(
    "bit, size, pruned_cuts, unpruned_cuts",
    [(0, 10, (2, 4, 7), (2, 4, 6)), (1, 13, (2, 4, 12), (2, 3, 8))],
)
def test_uncertified_channels_take_the_pruned_plan(bit, size, pruned_cuts, unpruned_cuts):
    q = _fallback_channels()[bit]
    assert q.size == size
    assert not _certificates([q], 4)[0]
    plan_u, table_u = c_optimal_degradation(q, 4, pruning=False)
    plan_p, table_p = c_optimal_degradation(q, 4)
    assert plan_u.cuts == unpruned_cuts
    assert plan_p.cuts == pruned_cuts
    assert table_p.capacity.hex() == table_u.capacity.hex()
    _check_corpus([q], 4)
    # Among certified channels, in any order.
    others = [random_channel(instance_rng(1403, i), 12) for i in range(3)]
    stack = [others[0], q, others[1], others[2]]
    assert _certificates(stack, 4).tolist() == [True, False, True, True]
    _check_corpus(stack, 4)


class _Counter:
    """Counts the DP runs with and without pruning, and the pruned stages."""

    def __init__(self, monkeypatch):
        self.runs = {True: [], False: []}
        self.pruned_stages = 0
        run, stage = search._dp_run, search._stage_maxima

        def counting_run(qs, n, pruning):
            self.runs[pruning].append(len(qs))
            return run(qs, n, pruning)

        def counting_stage(*args):
            self.pruned_stages += args[-1]
            return stage(*args)

        monkeypatch.setattr(search, "_dp_run", counting_run)
        monkeypatch.setattr(search, "_stage_maxima", counting_stage)


def test_plans_and_capacities_run_no_pruned_stage(monkeypatch):
    qs = [random_channel(instance_rng(1404, i), 40) for i in range(6)]
    count = _Counter(monkeypatch)
    found = c_optimal_degradations(qs, 5)
    [(p.cuts, t.capacity) for p, t in found]
    c_optimal_degradation(qs[0], 5)[1].capacity
    assert count.pruned_stages == 0 and count.runs[True] == []
    assert count.runs[False] == [6, 1]


def test_reading_a_field_runs_one_pruned_stack_per_chunk(monkeypatch):
    qs = [random_channel(instance_rng(1405, i), 24) for i in range(7)]
    n = 5
    want = search._eager_degradations(qs, n, True)
    # Stacks of three channels: 3 + 3 + 1.
    monkeypatch.setattr(search, "_BATCH_ENTRIES", 3 * 20 * 24)
    for field in _FIELDS:
        count = _Counter(monkeypatch)
        found = c_optimal_degradations(qs, n)
        assert count.runs == {True: [], False: [3, 3, 1]}
        getattr(found[4][1], field)
        assert count.runs[True] == [3]
        for _, table in found[3:6]:
            for other in _FIELDS:
                getattr(table, other)
        assert count.runs[True] == [3]
        for got, w in zip(found, want):
            _assert_same(got, w)
        assert count.runs[True] == [3, 3, 1]


def test_tables_built_on_request_pickle_and_copy():
    qs = [random_channel(instance_rng(1406, i), 30) for i in range(3)]
    want = search._eager_degradations(qs, 6, True)
    for clone in (lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy):
        found = c_optimal_degradations(qs, 6)
        for (plan, table), w in zip(found, want):
            _assert_same((plan, clone(table)), w)
    table = c_optimal_degradations(qs, 6)[0][1]
    with pytest.raises(AttributeError):
        table.no_such_field
    assert "_source" in vars(table)  # a missing attribute builds nothing


def test_opt_clr_runs_no_unpruned_pass(monkeypatch):
    count = _Counter(monkeypatch)
    experiments.opt_clr(7, range(5), 24, 5)
    assert count.runs[False] == [] and count.runs[True] == [5]
    count = _Counter(monkeypatch)
    experiments.opt_clr(7, range(5), 24, 5, compare_full=True)
    assert count.runs[False] == [5] and count.runs[True] == [5]


@st.composite
def _skewed_channels(draw):
    """Channels like iterated polar transforms: masses down to about 1e-18,
    crossovers within 1e-12 of 0 and of 1/2."""
    n = draw(st.integers(2, 6))
    size = draw(st.integers(n + 1, 16))
    sigma = st.one_of(
        st.floats(0.0, 1e-12),
        st.floats(0.5 - 1e-12, 0.5),
        st.floats(0.0, 0.5),
    )
    weight = st.one_of(st.floats(1e-18, 1e-12), st.floats(1e-9, 1e-6), st.floats(1e-3, 1.0))
    sigmas = draw(st.lists(sigma, min_size=size, max_size=size))
    weights = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    q = canonicalize(np.column_stack((sigmas, weights / weights.sum())))
    assume(q.size > n)
    return q, n


@settings(max_examples=60)
@given(st.lists(_skewed_channels(), min_size=1, max_size=4))
def test_skewed_channels_match_the_pruned_run(drawn):
    n = drawn[0][1]
    qs = [q for q, _ in drawn if q.size > n]
    try:
        want = search._eager_degradations(qs, n, True)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            c_optimal_degradations(qs, n)
        return
    for got, w in zip(c_optimal_degradations(qs, n), want, strict=True):
        _assert_same(got, w)


def test_a_subnormal_crossover_runs_without_warning():
    # Beside a subnormal left mean, d / eps_l in the threshold overflows;
    # the threshold takes log(d) - log(eps_l) there, with no RuntimeWarning
    # (an error in this suite).
    q = canonicalize([(5e-324, 0.99998), (0.25, 1e-5), (0.5, 1e-5)])
    _check_corpus([q], 2)
