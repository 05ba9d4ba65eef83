"""The DP stage kernel against a scalar reference of one stage.

The reference loops over each stage's (row, column) entries of one channel:
entry (a, b) is S_prev[b] + iota(stage + b, stage + a), a candidate when
column b is alive (not NaN) and, with pruning, ``refine._surely_fails`` does
not reject the cut it commits.  Each row keeps its leftmost maximum (NaN and
-1 when it has no candidate), and the stage counts its candidates.  Chained
from stage 1, the stages must reproduce every stage array, counter, plan and
capacity of ``search._dp_run`` (read through ``dp_stages``) bit for bit, so
floats are compared by their ``.hex()``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidmc import construct, instance_rng, random_channel, refine, search
from bidmc.channel import _channels, _stack
from bidmc.polar import _transforms
from bidmc.refine import _segment_table, _surely_fails

from dp_stages import dp_stage_tables, iota_band
from skewed_channels import skewed_channels


def _stage_reference(stage, rows, prev, eps_prev, band, means, sigmas, pruning):
    """One DP stage by loops: each row's leftmost maximum, its column, and
    the number of candidates.  ``band`` is ``iota_band`` (1-indexed first
    particle), ``means`` the 0-indexed segment table's group means, and
    ``eps_prev`` the mean of each previous state's last group."""
    values, decisions, count = [], [], 0
    for a in rows:
        best, dec = math.nan, -1
        for b in range(a + 1):
            if math.isnan(prev[b]):
                continue
            lo = stage + b - 1  # 0-indexed first particle of the new group
            if pruning and _surely_fails(eps_prev[b], means[a - b, lo], sigmas[lo - 1], sigmas[lo]):
                continue
            count += 1
            value = prev[b] + float(band[a - b, stage + b])
            if dec < 0 or value > best:
                best, dec = value, b
        values.append(best)
        decisions.append(dec)
    return values, decisions, count


def _dp_reference(q, n, pruning):
    """Every stage's values and decisions by ``_stage_reference``, with the
    cuts traced back and the two counters."""
    size = q.size - n + 1
    band = iota_band(q, size)
    means = _segment_table(q.weights, q.sigmas, size, 0)[1]
    prev = [float(band[b, 1]) for b in range(size)]
    eps = [means[b, 0] for b in range(size)]
    stages = [(prev, [-1] * size)]
    evaluations = pruned_states = 0
    for stage in range(2, n + 1):
        rows = range(size) if stage < n else [size - 1]
        prev, decisions, count = _stage_reference(
            stage, rows, prev, eps, band, means, q.sigmas, pruning
        )
        eps = [math.nan if d < 0 else means[a - d, stage + d - 1] for a, d in zip(rows, decisions)]
        stages.append((prev, decisions))
        evaluations += count
        pruned_states += decisions.count(-1)
    cuts, row = [], 0
    for stage in range(n, 1, -1):
        row = stages[stage - 1][1][row]
        cuts.insert(0, stage + row)
    return stages, tuple(cuts), evaluations, pruned_states


def _hex(values):
    return [float(v).hex() for v in values]


def _check(qs, n, pruning):
    """Each channel's DP run in stacks of ``qs`` against the reference;
    returns the tables."""
    found = dp_stage_tables(qs, n, pruning)
    for q, (plan, table) in zip(qs, found, strict=True):
        stages, cuts, evaluations, pruned_states = _dp_reference(q, n, pruning)
        assert len(table.values) == len(stages) == n
        for j, (values, decisions) in enumerate(stages):
            assert _hex(table.values[j].tolist()) == _hex(values), j
            assert table.decisions[j].tolist() == decisions, j
            assert table.pruned[j].tolist() == [j > 0 and d < 0 for d in decisions], j
        assert plan.cuts == cuts
        assert table.capacity.hex() == float(stages[-1][0][0]).hex()
        assert (table.evaluations, table.pruned_states) == (evaluations, pruned_states)
    return [table for _, table in found]


@pytest.mark.parametrize("pruning", [True, False])
def test_ragged_stacks_with_padding_rows(pruning):
    rng = instance_rng(2301, 0)
    for n in (2, 4, 7):
        qs = [random_channel(rng, m) for m in (n + 1, 24, n + 3, 17, 30)]
        _check(qs, n, pruning)


def _certificate_corpus():
    """(channels, n) stacks of the certificate tests: a random grid, Arikan
    plus transforms, and the two branches whose unpruned traceback fails."""
    rng = instance_rng(1401, 0)
    for n in (4, 6):
        yield [random_channel(rng, m) for m in (16, 32, 16, 24)], n
    for n in (4, 5):
        ws = [random_channel(instance_rng(1402, 10 * n + i), n) for i in range(4)]
        yield [q for q in _channels(_transforms(_stack(ws), "1" * len(ws))) if q.size > n][:3], n
    run = construct(random_channel(instance_rng(1, 21), 4), 4, 4)
    yield _channels(_transforms(_stack([run.records["1111"].quantized] * 2), "01")), 4


@pytest.mark.parametrize("pruning", [True, False])
def test_certificate_corpus(pruning):
    for qs, n in _certificate_corpus():
        _check(qs, n, pruning)


def test_certificate_corpus_with_dead_states(monkeypatch):
    # A negative window tolerance also prunes cuts that pass their window by
    # less than 0.003, so states die inside channels.
    corpus = list(_certificate_corpus())
    monkeypatch.setattr(refine, "PHI_STRICT_TOL", -3e-3)
    dead = 0
    for qs, n in corpus:
        try:
            tables = _check(qs, n, True)
        except RuntimeError:
            # Some channel lost every traceback state; check the others alone.
            tables = []
            for q in qs:
                try:
                    tables += _check([q], n, True)
                except RuntimeError:
                    continue
        dead += sum(table.pruned_states > 0 for table in tables)
    assert dead >= 5


@pytest.mark.parametrize("pruning", [True, False])
def test_rows_spanning_three_blocks(monkeypatch, pruning):
    # At the kernel's own block size: 2 * _STAGE_BLOCK + 1 rows at stage 2.
    q = random_channel(instance_rng(2301, 1), 2 * search._STAGE_BLOCK + 3)
    _check([q], 3, pruning)
    # A ragged stack whose members straddle the block size, so the last
    # stage's rows run from the smallest member's last row over two blocks.
    rng = instance_rng(2301, 3)
    for n in (4, 10):
        _check([random_channel(rng, m) for m in (20, 70, 140)], n, pruning)
    # Blocks of 3 rows over a ragged stack, at every stage.
    monkeypatch.setattr(search, "_STAGE_BLOCK", 3)
    rng = instance_rng(2301, 2)
    _check([random_channel(rng, m) for m in (13, 7, 11)], 4, pruning)


@settings(max_examples=40, deadline=None)
@given(st.lists(skewed_channels(), min_size=1, max_size=4), st.booleans())
def test_skewed_channels(drawn, pruning):
    n = drawn[0][1]
    qs = [q for q, _ in drawn if q.size > n]
    if qs:
        _check(qs, n, pruning)

