"""The Tal-Vardy path against its earlier form (``tv_reference``).

``refine.refine_cuts`` re-sums only the groups beside each move and
re-tests only the windows beside it, and ``search._segments`` fills the
band in one masked pass; both must give the earlier plans and bands bit
for bit.  Bands are compared by ``tobytes()``, on the benchmark's
arikan-baselines and opt-uniform inputs, on stacks of skewed channels and
on tables of the greedy's depth; plans on the greedy's plans and on
arbitrary cut vectors, most of which fail some window.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bidmc import (
    PPlusPlan,
    arikan_plus,
    instance_rng,
    is_c_degradation,
    random_channel,
    refine,
    refine_cuts,
    tv_greedy_plan,
)
from bidmc.channel import _stack
from bidmc.search import _segments

import tv_reference as ref
from skewed_channels import skewed_channels


def _arikan_baselines(seed):
    """The (channel, n) inputs of the benchmark's arikan-baselines workload."""
    for i in range(170):
        n = 4 + i % 7
        yield arikan_plus(random_channel(instance_rng(seed, i), n)), n


def _same_band(qs, depth):
    stack = _stack(qs)
    return _segments(stack, depth, 0, 0).band.tobytes() == ref.band(*stack, depth).tobytes()


def test_the_band_matches_the_reference_on_benchmark_inputs():
    for seed in (0, 1):
        for q, n in _arikan_baselines(seed):
            # The DP's depth and the greedy's shallowest one.
            assert _same_band([q], q.size - n + 1) and _same_band([q], 2)
        for i in range(20):
            q = random_channel(instance_rng(seed, i), 128)
            assert _same_band([q], q.size - (4 + i % 7) + 1)


@given(st.lists(skewed_channels(), min_size=1, max_size=4), st.integers(1, 16))
def test_the_band_matches_the_reference_on_stacks_of_skewed_channels(drawn, depth):
    qs = [q for q, _ in drawn]
    assert _same_band(qs, min(depth, max(q.size for q in qs)))


@given(skewed_channels(), st.data())
def test_refine_cuts_matches_the_reference_on_arbitrary_cuts(drawn, data):
    q, n = drawn
    cuts = data.draw(st.lists(st.integers(2, q.size), min_size=n - 1, max_size=n - 1, unique=True))
    plan = PPlusPlan(q, tuple(sorted(cuts)))
    assert refine_cuts(plan).cuts == ref.refine_cuts(plan)[0].cuts


def test_refine_cuts_matches_the_reference_on_failing_random_cuts():
    rng = np.random.default_rng(32)
    failing = 0
    for i in range(400):
        q = random_channel(instance_rng(32, i), int(rng.integers(3, 40)))
        cuts = np.sort(rng.choice(np.arange(2, q.size + 1), int(rng.integers(1, q.size - 1)), replace=False))
        plan = PPlusPlan(q, tuple(cuts.tolist()))
        failing += not is_c_degradation(plan)
        assert refine_cuts(plan).cuts == ref.refine_cuts(plan)[0].cuts
    assert failing > 200


def test_refine_cuts_on_greedy_plans_tests_only_the_windows_beside_each_move(monkeypatch):
    # The plans are the reference's; the first pass tests all n - 1 cuts
    # and each move at most three; one PPlusPlan, the result, is built per
    # call.
    entries, built = [0], [0]
    window, post_init = refine._window, PPlusPlan.__post_init__

    def counted_window(eps_l, *rest):
        entries[0] += np.size(eps_l)
        return window(eps_l, *rest)

    def counted_post_init(self):
        built[0] += 1
        post_init(self)

    moved = most = 0
    for seed in (0, 1):
        for q, n in _arikan_baselines(seed):
            plan = tv_greedy_plan(q, n)
            want, moves = ref.refine_cuts(plan)
            entries[0] = built[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(refine, "_window", counted_window)
                patch.setattr(PPlusPlan, "__post_init__", counted_post_init)
                got = refine_cuts(plan)
            assert got.cuts == want.cuts
            assert entries[0] <= (n - 1) + 3 * moves
            assert built[0] == 1
            moved += moves > 0
            most = max(most, moves)
    assert moved > 100 and most >= 5
