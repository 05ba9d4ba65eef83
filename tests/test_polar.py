import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidmc import (
    BranchRecord,
    Channel,
    arikan_minus,
    arikan_plus,
    bsc,
    c_optimal_degradation,
    canonicalize,
    capacity,
    capacity_loss_rate,
    construct,
    diamond,
    error_probability,
    find_degradation_witness,
    instance_rng,
    random_channel,
    realize_pplus,
    star,
    tv_greedy_plan,
)
from bidmc import channel, polar, refine
from bidmc.channel import MERGE_TOL, _canonicalize_stack, _channels, _rows, _Stack, _stack
from bidmc.polar import EXACT_SIZE_GUARD
from bidmc.refine import PPlusPlan

import ordered_pairs
from channel_helpers import equivalent


def test_star_values():
    assert star(0.1, 0.1) == pytest.approx(0.18, abs=1e-15)
    assert star(0.3, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert star(0.0, 0.37) == pytest.approx(0.37, abs=1e-15)
    assert star(0.2, 0.3) == star(0.3, 0.2)


def test_diamond_values():
    assert diamond(0.1, 0.1) == pytest.approx(0.01 / 0.82, abs=1e-12)
    assert diamond(0.0, 0.3) == 0.0
    assert diamond(0.3, 1.0) == 0.0
    assert diamond(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_arikan_minus_of_bsc():
    assert equivalent(arikan_minus(bsc(0.1)), bsc(0.18))
    assert equivalent(arikan_minus(bsc(0.0)), bsc(0.0))


def test_arikan_plus_of_bsc():
    out = arikan_plus(bsc(0.1))
    expect = canonicalize([(0.01 / 0.82, 0.82), (0.5, 0.18)])
    assert equivalent(out, expect, tol=1e-12)
    assert equivalent(arikan_plus(bsc(0.0)), bsc(0.0))


def test_minus_never_gains_capacity():
    rng = instance_rng(61, 0)
    for _ in range(50):
        w = random_channel(rng, int(rng.integers(1, 7)))
        assert capacity(arikan_minus(w)) <= capacity(w) + 1e-12
        assert capacity(arikan_plus(w)) >= capacity(w) - 1e-12


def test_capacity_conservation():
    w = bsc(0.1)
    total = capacity(arikan_minus(w)) + capacity(arikan_plus(w))
    assert total == pytest.approx(2 * capacity(w), abs=1e-12)
    rng = instance_rng(61, 1)
    for _ in range(200):
        w = random_channel(rng, int(rng.integers(1, 9)))
        total = capacity(arikan_minus(w)) + capacity(arikan_plus(w))
        assert total == pytest.approx(2 * capacity(w), abs=1e-9)


def test_particle_count_bounds():
    rng = instance_rng(61, 2)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        w = random_channel(rng, n)
        assert arikan_minus(w).size <= n * (n + 1) // 2
        assert arikan_plus(w).size <= n * n + 1


def test_transform_monotonicity():
    rng = instance_rng(61, 3)
    for _ in range(15):
        q = random_channel(rng, int(rng.integers(2, 5)))
        n_groups = int(rng.integers(1, q.size))
        cuts = tuple(
            int(c)
            for c in np.sort(
                rng.choice(np.arange(2, q.size + 1), size=n_groups - 1, replace=False)
            )
        )
        w = realize_pplus(PPlusPlan(q, cuts))
        assert find_degradation_witness(w, q) is not None
        assert find_degradation_witness(arikan_minus(w), arikan_minus(q)) is not None
        assert find_degradation_witness(arikan_plus(w), arikan_plus(q)) is not None


def test_construct_noiseless_base():
    run = construct(bsc(0.0), 3, 4)
    for alpha, rec in run.records.items():
        assert rec.clr == 0.0
        assert rec.quantized.size == 1


def test_construct_shapes_and_flags():
    rng = instance_rng(61, 4)
    w = random_channel(rng, 4)
    run = construct(w, 4, 4)
    assert set(len(a) for a in run.records) == {0, 1, 2, 3, 4}
    for alpha, rec in run.records.items():
        assert rec.quantized.size <= 4
        assert 0.0 <= rec.clr <= 1.0
        if rec.exact is not None:
            assert rec.exact_reference
    # Depth-4 branches outgrow the exact-size guard; their records fall back
    # to the transform of the quantized parent and are flagged.
    assert any(not rec.exact_reference for rec in run.records.values())


def test_construct_branch_clr_statistics():
    # Loose bands around the reported per-branch means for 4-particle bases
    # (the ensemble behind the reference table is unspecified, so these are
    # order-of-magnitude regressions only).
    import numpy as np

    clr0, clr1, clr111 = [], [], []
    for i in range(30):
        rng = instance_rng(61, 100 + i)
        w = random_channel(rng, 4)
        run = construct(w, 3, 4)
        clr0.append(run.records["0"].clr)
        clr1.append(run.records["1"].clr)
        clr111.append(run.records["111"].clr)
    assert 0.002 <= np.mean(clr0) <= 0.020  # reference 0.0065
    assert 0.003 <= np.mean(clr1) <= 0.030  # reference 0.0094
    assert 0.006 <= np.mean(clr111) <= 0.055  # reference 0.0184


def test_construct_clr_nonnegative_and_exact_relations():
    rng = instance_rng(61, 5)
    w = random_channel(rng, 3)
    run = construct(w, 2, 3)
    for alpha in ("0", "1", "00", "01", "10", "11"):
        rec = run.records[alpha]
        assert rec.clr >= 0.0
        if rec.exact is not None:
            # The quantized chain is a degradation of the exact channel.
            assert capacity(rec.quantized) <= capacity(rec.exact) + 1e-9


def test_construct_validates_args():
    with pytest.raises(ValueError):
        construct(bsc(0.1), 0, 4)
    with pytest.raises(ValueError):
        construct(bsc(0.1), 1, 1)


@pytest.mark.parametrize(
    "seed, index, n",
    [(0, 4, 4), (0, 28, 4), (1, 0, 8), (1, 21, 4), (1, 25, 4), (3, 83, 4), (3, 108, 4)],
)
def test_construct_skewed_chains_complete(seed, index, n):
    # Depth-5 chains reach means within 1e-9 of 1/2.  There a window found by
    # bisection can miss every candidate of a stage, a prefix-sum mean can
    # leave split_threshold's domain, and every cut vector of a branch can
    # have a window margin below PHI_STRICT_TOL, so pruning on the
    # conservative side of the tolerance leaves no traceback state.  In
    # (1, 21, 4) a branch has particles of mass near 1e-17 after a mass near
    # 1, whose prefix-difference group masses cancel to exactly 0, in the DP
    # and in the greedy merge alike.
    run = construct(random_channel(instance_rng(seed, index), n), 5, n)
    for alpha, rec in run.records.items():
        if not alpha:
            continue
        parent = run.records[alpha[:-1]].quantized
        transform = arikan_plus(parent) if alpha[-1] == "1" else arikan_minus(parent)
        if transform.size <= n:
            best = capacity(transform)
        else:
            plan, _ = c_optimal_degradation(transform, n, pruning=False)
            best = capacity(realize_pplus(plan))
            greedy = capacity(realize_pplus(tv_greedy_plan(transform, n)))
            assert greedy <= best + 1e-12, alpha
        assert capacity(rec.quantized) == pytest.approx(best, abs=1e-9), alpha


def _construct_per_branch(base, depth, n):
    """Records of the breadth-first construction that quantizes each branch
    with its own c_optimal_degradation call."""
    records = {"": BranchRecord("", base, base, 0.0, True)}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for alpha in frontier:
            parent = records[alpha]
            for bit in ("0", "1"):
                child = alpha + bit
                transform = arikan_minus if bit == "0" else arikan_plus
                quant_ref = transform(parent.quantized)
                quantized = quant_ref
                if quant_ref.size > n:
                    quantized = realize_pplus(c_optimal_degradation(quant_ref, n)[0])
                exact = None
                if parent.exact is not None and parent.exact.size ** 2 + 1 <= 4 * EXACT_SIZE_GUARD:
                    exact = transform(parent.exact)
                    if exact.size > EXACT_SIZE_GUARD:
                        exact = None
                reference = exact if exact is not None else quant_ref
                clr = capacity_loss_rate(capacity(reference), capacity(quantized))
                records[child] = BranchRecord(child, exact, quantized, clr, exact is not None)
                nxt.append(child)
        frontier = nxt
    return records


def _same_channel(a, b):
    return a.sigmas.tobytes() == b.sigmas.tobytes() and a.weights.tobytes() == b.weights.tobytes()


@settings(max_examples=12)
@given(
    seed=st.integers(0, 10**6),
    size=st.integers(1, 5),
    depth=st.integers(4, 5),
    n=st.integers(3, 5),
)
# Levels where some transforms keep their particles and others are realized
# from a cut matrix: level 1 of the first has one of each kind; levels 1-2
# of the second run no DP at all, and levels 3 and 4 keep 6 and 8 while
# realizing 2 and 8.
@example(seed=0, size=2, depth=4, n=4)
@example(seed=0, size=1, depth=4, n=3)
def test_construct_equals_per_branch_loop(seed, size, depth, n):
    base = random_channel(instance_rng(seed, 0), size)
    got = construct(base, depth, n).records
    want = _construct_per_branch(base, depth, n)
    assert list(got) == list(want)
    for alpha, rec in want.items():
        new = got[alpha]
        assert _same_channel(new.quantized, rec.quantized), alpha
        assert (new.exact is None) == (rec.exact is None), alpha
        assert rec.exact is None or _same_channel(new.exact, rec.exact), alpha
        assert new.clr.hex() == rec.clr.hex(), alpha
        assert new.exact_reference == rec.exact_reference, alpha


def test_construct_builds_only_the_channels_its_records_keep(monkeypatch):
    # Between its stacked steps a level passes one stack layout and the DP
    # hands the realization a cut matrix, so no plan is built and each
    # channel is built and validated once, for the record that keeps it.
    base = random_channel(instance_rng(0, 0), 4)
    built = {Channel: 0, PPlusPlan: 0}
    for cls in built:

        def counting(self, init=cls.__post_init__, cls=cls):
            built[cls] += 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    run = construct(base, 5, 4)
    kept = sum(1 + (rec.exact is not None) for alpha, rec in run.records.items() if alpha)
    assert built == {Channel: kept, PPlusPlan: 0}


def test_construct_drops_exact_transforms_over_the_guard_before_merging(monkeypatch):
    # On this base two exact plus transforms exceed the guard.  A sort of
    # their crossovers already proves it, so neither reaches the argsort or
    # the merge.
    base = random_channel(instance_rng(0, 0), 4)
    calls = []
    merges = []
    argsorts = []
    stack, merge, argsort = polar._canonicalize_stack, channel._merge_runs, np.argsort

    def recording_stack(pairs, sizes, limit=None):
        merged, sorted_ = len(merges), len(argsorts)
        out = stack(pairs, sizes, limit)
        calls.append((pairs, limit, out, len(merges) - merged, len(argsorts) - sorted_))
        return out

    def recording_merge(s, w, head):
        merges.append(s.size)
        return merge(s, w, head)

    def recording_argsort(a, *args, **kwargs):
        argsorts.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(polar, "_canonicalize_stack", recording_stack)
    monkeypatch.setattr(channel, "_merge_runs", recording_merge)
    monkeypatch.setattr(np, "argsort", recording_argsort)
    got = construct(base, 5, 4).records
    dropped = [call for call in calls if _channels(call[2]) == [None]]
    assert len(dropped) == 2
    assert sum(call[4] for call in calls) > 0  # the kept ones are argsorted
    for pairs, limit, _, merged, sorted_ in dropped:
        assert limit == EXACT_SIZE_GUARD and merged == 0 and sorted_ == 0
        sig = np.sort(np.minimum(pairs[:, 0], 1.0 - pairs[:, 0])[pairs[:, 1] > 0.0])
        assert 1 + np.count_nonzero(np.diff(sig) > 2.0 * MERGE_TOL) > EXACT_SIZE_GUARD
    over = [
        alpha
        for alpha, rec in got.items()
        if alpha
        and rec.exact is None
        and got[alpha[:-1]].exact is not None
        and got[alpha[:-1]].exact.size ** 2 + 1 <= 4 * EXACT_SIZE_GUARD
    ]
    assert len(over) == 2
    monkeypatch.undo()
    want = _construct_per_branch(base, 5, 4)
    assert list(got) == list(want)
    for alpha, rec in want.items():
        new = got[alpha]
        assert _same_channel(new.quantized, rec.quantized), alpha
        assert (new.exact is None) == (rec.exact is None), alpha
        assert rec.exact is None or _same_channel(new.exact, rec.exact), alpha
        assert new.clr.hex() == rec.clr.hex(), alpha


# The transforms build each unordered pair once; ``ordered_pairs`` keeps the
# n^2 transforms they replaced as the oracle.  The two agree to round-off.


def _assert_close_to_ordered(w):
    minus, plus = arikan_minus(w), arikan_plus(w)
    for bit, new in (("0", minus), ("1", plus)):
        old = ordered_pairs.transform(w, bit)
        assert abs(capacity(new) - capacity(old)) <= 1e-13, bit
        assert abs(error_probability(new) - error_probability(old)) <= 1e-13, bit
    assert plus.size <= w.size**2 + 1
    assert abs(capacity(minus) + capacity(plus) - 2.0 * capacity(w)) <= 1e-12


@st.composite
def _exact_chain(draw):
    """The exact channels along one unquantized transform branch of depth 4 or 5.

    The base has 2 or 3 particles.  As in ``construct``, a channel is
    transformed only while its n^2 + 1 bound is within 4 * EXACT_SIZE_GUARD,
    which also keeps the n^2 oracle small.
    """
    w = random_channel(instance_rng(draw(st.integers(0, 10**6)), 0), draw(st.integers(2, 3)))
    chain = []
    for bit in draw(st.lists(st.sampled_from("01"), min_size=4, max_size=5)):
        if w.size**2 + 1 > 4 * EXACT_SIZE_GUARD:
            break
        chain.append(w)
        w = _channels(polar._transforms(_stack([w]), bit))[0]
    return chain


@settings(max_examples=40)
@given(_exact_chain())
def test_transforms_match_ordered_pairs_on_exact_chains(chain):
    for w in chain:
        _assert_close_to_ordered(w)


@pytest.mark.parametrize(
    "raw",
    [
        [(0.0, 1.0)],
        [(0.5, 1.0)],
        [(0.1, 1.0)],
        [(1e-9, 1.0)],
        [(0.0, 0.5), (0.5, 0.5)],
        [(0.0, 0.3), (1e-6, 0.3), (0.5, 0.4)],
        # repeated crossovers, merged by canonicalize, and crossovers just
        # more than MERGE_TOL apart
        [(0.2, 0.25), (0.2, 0.25), (0.3, 0.5)],
        [(0.2, 0.3), (0.2 + 2.5e-12, 0.3), (0.2 + 5e-12, 0.4)],
        [(1e-5, 0.25), (1e-5 + 2e-12, 0.25), (0.5 - 2e-12, 0.25), (0.5, 0.25)],
    ],
)
def test_transforms_match_ordered_pairs_on_edge_channels(raw):
    _assert_close_to_ordered(canonicalize(raw))


def test_plus_size_bound_with_small_crossovers():
    # Crossover 1.09e-5: the division puts its diagonal bad output 1.3e-12
    # below 1/2, more than MERGE_TOL from the others, and the n^2 transform
    # gives 11 particles.  Set exactly to 1/2, they merge.
    w = random_channel(instance_rng(4, 0), 3)
    assert w.sigmas[0] < 2e-5
    assert ordered_pairs.arikan_plus(w).size == 11
    assert arikan_plus(w).size <= 10


@pytest.mark.parametrize("eps", [0.5, 0.3, 0.11, 1e-3, 0.999])
def test_construct_follows_the_erasure_recursion(eps):
    # BEC(z) is (1 - z) B(0) + z B(1/2); its transforms are BEC(2z - z^2)
    # and BEC(z^2).  The plus transform's bad output of a perfect pair has
    # zero mass, which canonicalization drops.
    run = construct(canonicalize([(0.0, 1.0 - eps), (0.5, eps)]), 8, 2)
    z = {"": eps}
    for alpha in sorted(run.records, key=len)[1:]:
        parent = z[alpha[:-1]]
        z[alpha] = 2.0 * parent - parent * parent if alpha[-1] == "0" else parent * parent
        rec = run.records[alpha]
        assert rec.clr == 0.0, alpha
        for chan in (rec.exact, rec.quantized):
            assert set(chan.sigmas.tolist()) <= {0.0, 0.5}, alpha
            erased = float(chan.weights[chan.sigmas == 0.5].sum())
            assert abs(erased - z[alpha]) <= 1e-13 * z[alpha], alpha


def test_construct_passes_a_limit_only_to_stacks_of_one(monkeypatch):
    # The exact chain transforms each parent in a stack of its own, with the
    # guard as its limit; the quantized chain's stacked transforms and
    # realizations pass no limit.  A larger stack with a limit raises.
    calls = []

    def recording_stack(pairs, sizes, limit=None):
        calls.append((len(sizes), limit))
        return _canonicalize_stack(pairs, sizes, limit)

    monkeypatch.setattr(polar, "_canonicalize_stack", recording_stack)
    monkeypatch.setattr(refine, "_canonicalize_stack", recording_stack)
    construct(random_channel(instance_rng(0, 0), 4), 5, 4)
    limited = [size for size, limit in calls if limit is not None]
    assert len(limited) > 10 and set(limited) == {1}
    assert {limit for _, limit in calls} == {None, EXACT_SIZE_GUARD}
    assert max(size for size, _ in calls) == 2**5  # the last level, stacked
    pairs = np.array([(0.1, 0.5), (0.2, 0.5), (0.3, 1.0)])
    for limit in (1, EXACT_SIZE_GUARD):
        with pytest.raises(ValueError, match="stack of one"):
            _canonicalize_stack(pairs, [2, 1], limit)


def test_transforms_pass_unordered_pair_counts(monkeypatch):
    counts = []

    def counting(pairs, sizes, limit=None):
        counts.extend(sizes)
        return _canonicalize_stack(pairs, sizes, limit)

    monkeypatch.setattr(polar, "_canonicalize_stack", counting)
    rng = instance_rng(61, 6)
    for m in range(1, 10):
        w = random_channel(rng, m)
        arikan_minus(w)
        assert counts[-1] == m * (m + 1) // 2
        arikan_plus(w)
        assert counts[-1] == m * (m + 1)


def test_construct_matches_ordered_pair_oracle(monkeypatch):
    bases = [random_channel(instance_rng(62, i), 4) for i in range(20)]
    runs = [construct(base, 5, 4).records for base in bases]

    def ordered_transforms(stack, bits, limit=None):
        out = _stack([ordered_pairs.transform(w, bit) for w, bit in zip(_channels(stack), bits)])
        # A transform over the limit comes back with size 0.
        sizes = out.sizes if limit is None else np.where(out.sizes <= limit, out.sizes, 0)
        mask = np.arange(out.weights.shape[1]) < sizes[:, None]
        return _rows(_Stack(out.weights * mask, out.sigmas * mask, sizes), slice(None))

    monkeypatch.setattr(polar, "_transforms", ordered_transforms)
    for base, got in zip(bases, runs):
        want = construct(base, 5, 4).records
        for alpha, rec in want.items():
            new = got[alpha]
            assert new.quantized.size == rec.quantized.size, alpha
            assert new.exact_reference == rec.exact_reference, alpha
            if not alpha:
                continue
            reference = rec.exact
            if reference is None:
                reference = ordered_pairs.transform(want[alpha[:-1]].quantized, alpha[-1])
            if capacity(reference) >= 1e-12:
                assert abs(new.clr - rec.clr) <= 1e-9, alpha
