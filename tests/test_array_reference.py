"""The array code of canonicalize and the Arikan transforms against scalar references.

The references are the sequential per-pair implementations: a loop that
validates, reflects and clamps each pair, sorts the list, and folds each pair
into the running mean of the last group while it lies within MERGE_TOL of it.
The transform references loop over the unordered particle pairs i <= j, with
the mass of a pair off the diagonal doubled.
The array code must reproduce them bit for bit, so results are compared by
the ``.hex()`` of every float, and failures by exception type and message.
"""

import copy
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidmc import (
    Channel,
    InvalidDistributionError,
    arikan_minus,
    arikan_plus,
    canonicalize,
    construct,
    instance_rng,
    random_channel,
)
from bidmc import polar
from bidmc.channel import _SCALAR_RUNS, MERGE_TOL, WEIGHT_SUM_INPUT_TOL, _canonicalize_stack, _channels


def _canonicalize_reference(raw):
    """The scalar canonicalize: one pass over sorted (sigma, weight) pairs."""
    pairs = []
    total = 0.0
    for sigma, weight in raw:
        if weight < -MERGE_TOL:
            raise InvalidDistributionError(f"negative weight {weight}")
        weight = max(float(weight), 0.0)
        total += weight
        if weight == 0.0:
            continue
        sigma = float(sigma)
        if sigma > 0.5:
            sigma = 1.0 - sigma
        if not (0.0 - MERGE_TOL <= sigma <= 0.5 + MERGE_TOL):
            raise ValueError(f"crossover {sigma} outside [0, 1]")
        pairs.append((min(max(sigma, 0.0), 0.5), weight))
    if not abs(total - 1.0) <= WEIGHT_SUM_INPUT_TOL:  # a NaN total fails too
        raise InvalidDistributionError(f"weights sum to {total}, not 1")
    if not pairs:
        raise InvalidDistributionError("no positive-weight particles")
    pairs.sort()

    merged: list[list[float]] = []
    for sigma, weight in pairs:
        if merged and sigma - merged[-1][0] <= MERGE_TOL:
            s0, w0 = merged[-1]
            w = w0 + weight
            merged[-1] = [(s0 * w0 + sigma * weight) / w, w]
        else:
            merged.append([sigma, weight])
    return Channel([s for s, _ in merged], [w / total for _, w in merged])


def _star_reference(a, b):
    return (1.0 - a) * b + a * (1.0 - b)


def _diamond_reference(a, b):
    if a in (0.0, 1.0) or b in (0.0, 1.0):
        return 0.0
    return a * b / _star_reference(1.0 - a, b)


def _unordered_pairs(w):
    """Particle pairs i <= j with mass p_i p_j, doubled off the diagonal."""
    parts = w.particles
    for i, pi in enumerate(parts):
        for j in range(i, len(parts)):
            pj = parts[j]
            yield pi.sigma, pj.sigma, (2.0 if j > i else 1.0) * pi.weight * pj.weight


def _arikan_minus_reference(w):
    raw = []
    for si, sj, mass in _unordered_pairs(w):
        raw.append((_star_reference(si, sj), mass))
    return _canonicalize_reference(raw)


def _arikan_plus_reference(w):
    raw = []
    for si, sj, mass in _unordered_pairs(w):
        good = _star_reference(1.0 - si, sj)
        if good > 0.0:
            raw.append((_diamond_reference(si, sj), mass * good))
        if good < 1.0:
            # On the diagonal (sigmas are strictly increasing), ~e # e = 1/2 exactly.
            bad = 0.5 if si == sj else _diamond_reference(1.0 - si, sj)
            raw.append((bad, mass * (1.0 - good)))
    return _canonicalize_reference(raw)


def _hex(chan):
    return [x.hex() for x in chan.sigmas.tolist()], [x.hex() for x in chan.weights.tolist()]


def _outcome(fn, raw):
    """Hex arrays of the result, or the exception's type and message."""
    try:
        return _hex(fn(raw))
    except (ValueError, InvalidDistributionError) as exc:
        return type(exc), str(exc)


def _assert_same(raw):
    assert _outcome(canonicalize, raw) == _outcome(_canonicalize_reference, raw)
    assert _outcome(canonicalize, np.array(raw, dtype=np.float64).reshape(-1, 2)) == _outcome(
        _canonicalize_reference, raw
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_transforms_match_reference_on_exact_chains(seed):
    for index in range(20):
        base = random_channel(instance_rng(seed, index), 3)
        level = [(base, base)]
        for _ in range(3):
            nxt = []
            for new, ref in level:
                for fast, slow in ((arikan_minus, _arikan_minus_reference), (arikan_plus, _arikan_plus_reference)):
                    pair = fast(new), slow(ref)
                    assert _hex(pair[0]) == _hex(pair[1]), (index, fast.__name__)
                    nxt.append(pair)
            level = nxt


def test_transforms_match_reference_on_edge_channels(monkeypatch):
    # The counts of positive-weight pairs must agree too: they are the pairs
    # that reach the merge.
    counts = {"fast": [], "slow": []}
    reference = _canonicalize_reference

    def fast_recorder(pairs, sizes, limit=None):
        members = np.split(pairs[:, 1], np.cumsum(sizes)[:-1])
        counts["fast"].extend(np.count_nonzero(wt > 0.0) for wt in members)
        return _canonicalize_stack(pairs, sizes, limit)

    def slow_recorder(raw):
        counts["slow"].append(sum(weight > 0.0 for _, weight in raw))
        return reference(raw)

    monkeypatch.setattr(polar, "_canonicalize_stack", fast_recorder)
    monkeypatch.setattr(sys.modules[__name__], "_canonicalize_reference", slow_recorder)
    for raw in (
        [(0.0, 0.5), (0.5, 0.5)],
        [(0.0, 0.3), (0.2, 0.3), (0.5, 0.4)],
        [(1e-17, 0.5), (0.5 - 1e-17, 0.5)],
        [(0.5, 1.0)],
        [(0.0, 1.0)],
    ):
        chan = canonicalize(raw)
        for fast, slow in ((arikan_minus, _arikan_minus_reference), (arikan_plus, _arikan_plus_reference)):
            assert _hex(fast(chan)) == _hex(slow(chan)), (raw, fast.__name__)
    assert counts["fast"] == counts["slow"]


def _merge_shape(raw):
    """Of one member's raw pairs: the runs (pairs linked by sorted gaps
    within 2 MERGE_TOL) that ``_merge_runs`` hands to its scalar loop, and
    the blocks of exactly equal crossovers."""
    s = np.sort(np.minimum(raw[:, 0], 1.0 - raw[:, 0])[raw[:, 1] > 0.0])
    gap = np.diff(s)
    start = np.flatnonzero(np.concatenate(([True], gap > 2.0 * MERGE_TOL)))
    runs = np.sort(np.diff(np.append(start, s.size)))[::-1]
    runs = runs[runs > 1]
    # The steps stop at the first one with no more than _SCALAR_RUNS runs open.
    step = max(1, runs[_SCALAR_RUNS]) if runs.size > _SCALAR_RUNS else 1
    tied = gap == 0.0
    return np.count_nonzero(runs > step), np.count_nonzero(tied & ~np.concatenate(([False], tied[:-1])))


def test_exact_chain_matches_reference_where_the_merge_hands_off(monkeypatch):
    # The exact transforms of a depth-4 chain reach the array merge's
    # scalar loop two or more runs at a time, and the weight order of
    # hundreds of blocks of equal crossovers: each must equal the scalar
    # pass, or exceed the guard that dropped it.
    found = []

    def recorder(pairs, sizes, limit=None):
        out = _canonicalize_stack(pairs, sizes, limit)
        if limit is not None:  # an exact transform, a stack of one
            found.append((np.array(pairs), limit, _channels(out)[0]))
        return out

    monkeypatch.setattr(polar, "_canonicalize_stack", recorder)
    construct(random_channel(instance_rng(0, 0), 4), 4, 4)
    for raw, limit, fast in found:
        slow = _canonicalize_reference(raw)
        assert slow.size > limit if fast is None else _hex(fast) == _hex(slow)
    shapes = [_merge_shape(raw) for raw, _, fast in found if fast is not None]
    assert max(handed for handed, _ in shapes) >= 2
    assert max(blocks for _, blocks in shapes) > 100


@pytest.mark.parametrize(
    "raw",
    [
        # crossovers above 1/2, reflected onto and past existing ones
        [(0.7, 0.3), (0.3, 0.2), (0.9, 0.25), (0.1, 0.25)],
        # zero and slightly negative (within MERGE_TOL) weights are dropped
        [(0.1, 0.0), (0.2, 0.5), (0.3, 0.5), (0.4, -1e-13), (2.0, 0.0)],
        # crossovers of exactly 0, 1/2 and 1
        [(0.0, 0.2), (0.5, 0.3), (1.0, 0.5)],
        [(1.0, 0.25), (0.0, 0.25), (0.5, 0.25), (0.5, 0.25)],
        # runs of more than two equal sigmas, weights out of order
        [(0.2, 0.3), (0.2, 0.1), (0.2, 0.2), (0.2, 0.1), (0.4, 0.3)],
        [(0.5, 0.05 * k) for k in (3, 1, 4, 1, 5, 9, 2, 6)] + [(0.25, 0.65)],
        # sub-MERGE_TOL steps spanning more than MERGE_TOL
        [(0.1 + k * 0.6e-12, 0.1) for k in range(10)],
        [(0.3 - k * 0.9e-12, 0.05 + 0.01 * k) for k in range(9)] + [(0.2, 0.19)],
        [(0.1 + k * 0.6e-12, 0.05) for k in range(10)] + [(0.4 - k * 0.7e-12, 0.05) for k in range(10)],
        # crossovers within MERGE_TOL of 0 and 1/2, and just outside [0, 1]
        [(-5e-13, 0.25), (3e-13, 0.25), (0.5 - 4e-13, 0.25), (1.0 + 5e-13, 0.25)],
        [(-0.0, 0.5), (0.3, 0.5)],
        [(-0.0, 0.5), (0.7, 0.5)],
        # weights off 1 by less than WEIGHT_SUM_INPUT_TOL are renormalized
        [(0.1, 0.3 + 4e-10), (0.7, 0.2), (0.25, 0.5 + 3e-10)],
        # twins beside ties of distinct weights
        [(0.1, 0.1), (0.1, 0.1), (0.3, 0.2), (0.3, 0.1), (0.3, 0.2), (0.1, 0.3)],
        # a NaN weight fails the weight-sum check on both sides
        [(0.1, float("nan")), (0.7, 1.0)],
    ],
)
def test_canonicalize_matches_reference_on_edge_inputs(raw):
    _assert_same(raw)


@pytest.mark.parametrize(
    "raw, exc",
    [
        ([], InvalidDistributionError),
        ([(0.1, 0.5), (0.2, 0.6)], InvalidDistributionError),
        ([(0.1, -0.2), (0.2, 1.2)], InvalidDistributionError),
        ([(-0.1, 0.5), (0.2, 0.5)], ValueError),
        ([(1.5, 0.5), (0.2, 0.5)], ValueError),
        ([(float("nan"), 0.5), (0.2, 0.5)], ValueError),
        # the first offending pair decides
        ([(1.5, 0.5), (0.2, -0.3)], ValueError),
        ([(0.2, -0.3), (1.5, 0.5)], InvalidDistributionError),
        # an invalid crossover with zero weight is dropped, the sum then fails
        ([(3.0, 0.0), (0.2, 0.5)], InvalidDistributionError),
    ],
)
def test_canonicalize_errors_match_reference(raw, exc):
    with pytest.raises(exc):
        canonicalize(raw)
    _assert_same(raw)


def test_a_nan_weight_is_rejected():
    # The weight checks compare so that a NaN fails them: as one member of
    # a stack, as a single input, and in the Channel constructor.
    raw = [(0.1, float("nan")), (0.7, 1.0)]
    with pytest.raises(InvalidDistributionError):
        canonicalize(raw)
    with pytest.raises(InvalidDistributionError):
        _canonicalize_stack(np.array([(0.2, 1.0)] + raw), [1, 2])
    with pytest.raises(InvalidDistributionError):
        Channel([0.1, 0.3], [float("nan"), 1.0])


def test_channel_arrays_are_read_only():
    q = canonicalize([(0.1, 0.4), (0.3, 0.6)])
    with pytest.raises(ValueError):
        q.weights[0] = 0.0
    with pytest.raises(ValueError):
        q.sigmas[1] = 0.2
    assert q.particles == ((0.1, 0.4), (0.3, 0.6))
    # Copies are rebuilt through the constructor, so they stay read-only.
    for c in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert c == q
        with pytest.raises(ValueError):
            c.weights[0] = 0.0


def test_channel_validates_like_the_reference():
    with pytest.raises(InvalidDistributionError, match="at least one particle"):
        Channel([], [])
    with pytest.raises(ValueError, match="outside"):
        Channel([0.1, 0.6], [0.5, 0.5])
    with pytest.raises(InvalidDistributionError, match="non-positive"):
        Channel([0.1, 0.3], [1.0, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Channel([0.3, 0.3], [0.5, 0.5])
    with pytest.raises(InvalidDistributionError, match="sum"):
        Channel([0.1, 0.3], [0.5, 0.6])


_SPECIAL = st.sampled_from([0.0, 0.5, 1.0, 0.25, 0.5 - 1e-13, 1e-13, 0.1, 0.1 + 7e-13])


@st.composite
def _raw_pairs(draw):
    """Pair lists with clustered, reflected and special crossovers."""
    n = draw(st.integers(0, 24))
    sigmas = []
    for _ in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            sigmas.append(draw(st.floats(-2e-12, 1.0 + 2e-12)))
        elif kind == 1:
            sigmas.append(draw(_SPECIAL))
        elif kind == 2 and sigmas:
            step = draw(st.floats(-3e-12, 3e-12))
            sigmas.append(draw(st.sampled_from(sigmas)) + step)
        else:
            sigmas.append(draw(st.sampled_from(sigmas)) if sigmas else 0.2)
    weights = [draw(st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e-15, 3.0])) for _ in range(n)]
    total = sum(weights)
    if total > 0.0 and draw(st.booleans()):
        weights = [x / total for x in weights]
    return list(zip(sigmas, weights))


@settings(max_examples=300)
@given(_raw_pairs())
def test_canonicalize_property_matches_reference(raw):
    _assert_same(raw)
