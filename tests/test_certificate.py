"""Pruned DP plans from the unpruned run, certified by their own window tests.

With ``pruning`` on, ``c_optimal_degradations`` takes each plan and capacity
from the unpruned DP when no cut of its traceback surely fails its window
test, and runs the pruned DP for the other channels only.  Every plan and
capacity, of the stack and of the single calls, with ``pruning`` on and off,
must equal that of ``dp_tables``, which runs the DP it names over every
channel, bit for bit, and every error must be the same.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidmc import (
    c_optimal_degradation,
    c_optimal_degradations,
    canonicalize,
    construct,
    dp_tables,
    instance_rng,
    random_channel,
)
from bidmc import experiments, polar, search
from bidmc.channel import _channels, _stack
from bidmc.polar import _transforms

from opt_clr import opt_clr
from skewed_channels import skewed_channels


def _plans(found):
    return [(plan.cuts, cap.hex()) for plan, cap in found]


def _check_corpus(qs, n):
    """The public stack and single calls against ``dp_tables``, with pruning
    on and off; where ``dp_tables`` raises, the stack call raises alike."""
    for pruning in (True, False):
        try:
            want = _plans((plan, table.capacity) for plan, table in dp_tables(qs, n, pruning))
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                c_optimal_degradations(qs, n, pruning)
            continue
        assert _plans(c_optimal_degradations(qs, n, pruning)) == want
        assert _plans(c_optimal_degradation(q, n, pruning) for q in qs) == want


def _certificates(qs, n):
    stack = _stack(qs)
    cuts, _, _, means = search._dp_run(stack, n, False)
    return search._certified(stack, cuts, means)


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
        qs = [q for q in _channels(_transforms(_stack(ws), "1" * len(ws))) if q.size > n]
        _check_corpus(qs, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_polar_chain_stacks_match_the_pruned_run(monkeypatch, seed):
    stacks = []
    optimal_cuts = polar._optimal_cuts

    def spy(stack, n, pruning=True):
        stacks.append((_channels(stack), n))
        return optimal_cuts(stack, n, pruning)

    monkeypatch.setattr(polar, "_optimal_cuts", spy)
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
    return _channels(_transforms(_stack([run.records["1111"].quantized] * 2), "01"))


@pytest.mark.parametrize(
    "bit, size, pruned_cuts, unpruned_cuts",
    [(0, 10, (2, 4, 7), (2, 4, 6)), (1, 13, (2, 4, 12), (2, 3, 8))],
)
def test_uncertified_channels_take_the_pruned_plan(bit, size, pruned_cuts, unpruned_cuts):
    q = _fallback_channels()[bit]
    assert q.size == size
    assert not _certificates([q], 4)[0]
    plan_u, cap_u = c_optimal_degradation(q, 4, pruning=False)
    plan_p, cap_p = c_optimal_degradation(q, 4)
    assert plan_u.cuts == unpruned_cuts
    assert plan_p.cuts == pruned_cuts
    assert cap_p.hex() == cap_u.hex()
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

        def counting_run(stack, n, pruning):
            self.runs[pruning].append(len(stack.sizes))
            return run(stack, n, pruning)

        def counting_stage(*args):
            self.pruned_stages += args[-1]
            return stage(*args)

        monkeypatch.setattr(search, "_dp_run", counting_run)
        monkeypatch.setattr(search, "_stage_maxima", counting_stage)


def test_plans_and_capacities_run_no_pruned_stage(monkeypatch):
    qs = [random_channel(instance_rng(1404, i), 40) for i in range(6)]
    uncertified = _fallback_channels()[0]
    count = _Counter(monkeypatch)
    c_optimal_degradations(qs, 5)
    c_optimal_degradation(qs[0], 5)
    assert count.pruned_stages == 0 and count.runs[True] == []
    assert count.runs[False] == [6, 1]
    # One uncertified channel among certified ones runs the pruned DP alone.
    others = [random_channel(instance_rng(1403, i), 12) for i in range(3)]
    count = _Counter(monkeypatch)
    c_optimal_degradations([others[0], uncertified, others[1], others[2]], 4)
    assert count.runs == {True: [1], False: [4]}


def test_opt_clr_record_runs_one_pruned_pass(monkeypatch):
    # The opt-clr table's record prints the pruned run's counters, and
    # --compare-full adds the unpruned count, a closed form, with no
    # unpruned run.
    count = _Counter(monkeypatch)
    experiments._opt_clr_counted(7, range(5), 24, 5)
    assert count.runs[False] == [] and count.runs[True] == [5]
    count = _Counter(monkeypatch)
    [row] = experiments.opt_clr_rows(7, [24], [5], 5, jobs=1, compare_full=True)
    assert count.runs[False] == [] and count.runs[True] == [5]
    monkeypatch.undo()
    qs = [random_channel(instance_rng(7, i), 24) for i in range(5)]
    full = [table.evaluations for _, table in dp_tables(qs, 5, False)]
    assert row["mean_evaluations_full"] == sum(full) / len(full)


def test_opt_clr_runs_no_pruned_stage_on_certified_channels(monkeypatch):
    qs = [random_channel(instance_rng(7, i), 24) for i in range(5)]
    assert _certificates(qs, 5).all()
    count = _Counter(monkeypatch)
    opt_clr(7, range(5), 24, 5)
    assert count.pruned_stages == 0 and count.runs == {True: [], False: [5]}


@pytest.mark.parametrize("m, n", [(16, 4), (16, 10), (128, 4), (128, 10)])
def test_opt_clr_equals_the_counted_record(m, n):
    # Criterion 05's seed and first instances of the cell.
    first = 1_000_000 * m + 10_000 * n
    idx = range(first, first + 40)
    got = opt_clr(105, idx, m, n)["clr"]
    want = experiments._opt_clr_counted(105, idx, m, n)["clr"]
    assert [c.hex() for c in got.tolist()] == [c.hex() for c in want.tolist()]


@settings(max_examples=60)
@given(st.lists(skewed_channels(), min_size=1, max_size=4))
def test_skewed_channels_match_the_pruned_run(drawn):
    n = drawn[0][1]
    _check_corpus([q for q, _ in drawn if q.size > n], n)


def test_a_subnormal_crossover_runs_without_warning():
    # Beside a subnormal left mean, d / eps_l in the threshold overflows;
    # the threshold takes log(d) - log(eps_l) there, with no RuntimeWarning
    # (an error in this suite).
    q = canonicalize([(5e-324, 0.99998), (0.25, 1e-5), (0.5, 1e-5)])
    _check_corpus([q], 2)
