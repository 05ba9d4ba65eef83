"""Arikan channel transforms on BSC mixtures and construction experiments.

The two polar-coding synthetic channels of W = sum_j p_j B(e_j) are again
BSC mixtures, summed over unordered pairs with c_ii = 1 and c_ij = 2 (i < j):

    minus:  sum_{i<=j} c_ij p_i p_j B(e_i * e_j)
    plus:   sum_{i<=j} c_ij p_i p_j [ (~e_i * e_j) B(e_i # e_j)
                                      + (e_i * e_j) B(~e_i # e_j) ]

with a * b = (1-a)b + a(1-b) and a # b = ab / ((1-a) * b) (0 when either
argument is 0 or 1); pair (j, i) repeats (i, j), its bad output reflected.
The plus transform of an n-particle mixture has at most n^2 + 1 particles
after canonicalization, which keeps iterated constructions finite.

``construct`` runs the degrade-then-transform experiment: along every
transform branch it tracks the quantized chain (optimal 2n-output
degradation after each transform) and, while the particle count stays under
a guard, the exact synthetic channel, reporting the capacity-loss rate per
branch.  The branches of one level do not depend on each other, so each
level is one stacked pass, and its steps hand each other one layout, the
zero-padded (B, width) weights and sigmas with their (B,) sizes of
``channel._Stack``: one call transforms every quantized parent, one
``canonicalize`` pass reduces the transforms, one DP call gives the (B,
n - 1) cut matrix of those larger than n, one call realizes those cuts and
one capacity-term evaluation per stack serves the level's capacity-loss
rates.  Only the channels a record keeps become ``Channel`` values, and no
plan is built.  Each stacked call equals its single calls bit for bit;
``arikan_minus``, ``arikan_plus``, ``canonicalize``, ``realize_pplus`` and
``capacity`` are their stacks of one.  An exact transform whose sorted
crossovers already prove more particles than the guard is dropped before
its merge (see ``construct``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Channel, _Stack, _canonicalize_stack, _capacities, _channels, _replaced, _rows
from .channel import _stack, capacity_loss_rate
from .refine import _realize
from .search import _optimal_cuts

# Exact synthetic channels beyond this particle count are not tracked.
EXACT_SIZE_GUARD = 10**4


def star(a, b):
    """Crossover of a serial BSC pair: (1-a)b + a(1-b), elementwise."""
    return (1.0 - a) * b + a * (1.0 - b)


def diamond(a, b):
    """Crossover a # b = ab / ((1-a) * b), elementwise; 0 where a or b is 0 or 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    inner = (a != 0.0) & (a != 1.0) & (b != 0.0) & (b != 1.0)
    out = np.zeros(inner.shape)
    np.divide(a * b, star(1.0 - a, b), out=out, where=inner)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=8)
def _pair_indices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unordered pairs i <= j of m particles: i, j, the mass factor c_ij and the diagonal's indices.

    Built once per size as read-only arrays: ``np.triu_indices`` alone
    takes about 20 us at m = 4 (on a 2-core Xeon VM), and most transforms
    of a construction are of channels of at most n particles.  The indices
    are int32, which halves the index arrays the cache keeps alive for the
    exact chain's large sizes.
    """
    i, j = (a.astype(np.int32) for a in np.triu_indices(m))
    diag = np.flatnonzero(i == j)  # indices, which assign faster than a mask
    factor = np.where(i == j, 1.0, 2.0)
    for a in (i, j, diag, factor):
        a.flags.writeable = False
    return i, j, factor, diag


def _transforms(stack: _Stack, bits: str, limit: int | None = None) -> _Stack:
    """Transform bits[k] ("0" minus, "1" plus) of each member k of a stack, in one pass.

    Every member is transformed over the unordered pairs of the stack's
    width into one (2, member, pair, output) buffer of raw crossovers and
    masses: one output per pair, the minus transform's, or, when any bit is
    "1", two, a plus transform's good and bad outputs and a minus
    transform's with a zero-mass second.  A pair that meets a member's
    zero padding has zero mass, and the pairs within the member come in its
    own pair order.  One ``_canonicalize_stack`` call reduces every
    transform from the buffer's transpose, (N, 2) pairs whose crossover and
    mass columns are each contiguous, dropping zero masses and folding
    crossovers above 1/2; each result equals its single call bit for bit.
    ``limit`` is for one bit, a stack of one: a transform of more than
    ``limit`` particles has size 0.
    """
    w, s, _ = stack
    i, j, factor, diag = _pair_indices(s.shape[1])
    si, sj = s.take(i, axis=1), s.take(j, axis=1)
    mass = factor * w.take(i, axis=1) * w.take(j, axis=1)
    plus = [bit == "1" for bit in bits]
    sig, wt = raw = np.empty((2,) + si.shape + (1 + any(plus),))
    if not any(plus):
        sig[..., 0] = star(si, sj)
        wt[..., 0] = mass
    else:
        # Pair i <= j gives its good output, then its bad one; a minus
        # transform gives its one output, then a zero-mass one.  The good
        # output's mass factor is diamond(si, sj)'s denominator, so its
        # crossover is that quotient under diamond's mask, whose other two
        # tests always pass here, as si and sj lie in [0, 1/2].
        good = star(1.0 - si, sj)
        sig[..., 0] = np.divide(si * sj, good, out=np.zeros(si.shape), where=(si != 0.0) & (sj != 0.0))
        sig[..., 1] = diamond(1.0 - si, sj)
        sig[:, diag, 1] = 0.5
        wt[..., 0] = mass * good
        wt[..., 1] = mass * (1.0 - good)
        minus = ~np.array(plus)
        if minus.any():
            sig[minus, :, 0] = star(si[minus], sj[minus])
            wt[minus, :, 0] = mass[minus]
            wt[minus, :, 1] = 0.0
    return _canonicalize_stack(raw.reshape(2, -1).T, [sig[0].size] * len(bits), limit)


def arikan_minus(w: Channel) -> Channel:
    """Minus (check) transform: star mixture over unordered pairs."""
    return _channels(_transforms(_stack([w]), "0"))[0]


def arikan_plus(w: Channel) -> Channel:
    """Plus (copy) transform: diamond mixture over unordered pairs.

    Pair i <= j contributes a good and a bad output, in that order; a zero
    mass factor gives a zero mass, which canonicalization drops.  A diagonal
    pair (e_i = e_j, since a channel's crossovers are distinct) has its bad
    output set to exactly ~e # e = 1/2, which the division misses by up to
    1.4e-17 / e.  So these merge into one, and at most
    n(n+1)/2 + n(n-1)/2 + 1 = n^2 + 1 remain.
    """
    return _channels(_transforms(_stack([w]), "1"))[0]


@dataclass(frozen=True)
class BranchRecord:
    """Per-branch state of a construction run.

    ``exact`` is the true synthetic channel A_alpha(base), or None once its
    particle count passed the guard; ``quantized`` is the degrade-after-
    transform chain.  ``clr`` is the capacity-loss rate of the quantized
    chain against the exact channel when available, otherwise against the
    transform of the quantized parent (then ``exact_reference`` is False).
    """

    alpha: str
    exact: Channel | None
    quantized: Channel
    clr: float
    exact_reference: bool

    @property
    def exact_size(self) -> int | None:
        return None if self.exact is None else self.exact.size

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "clr": self.clr,
            "exact_size": self.exact_size,
            "quantized_size": self.quantized.size,
            "exact_reference": self.exact_reference,
        }


@dataclass(frozen=True)
class ConstructionRun:
    """All branch records of a degrade-then-transform experiment."""

    base: Channel
    quantizer_size: int
    depth: int
    records: dict[str, BranchRecord]


def construct(base: Channel, depth: int, n: int) -> ConstructionRun:
    """Degrade-then-transform over every branch of length <= depth.

    Each level is one stacked pass over its branches, in branch order, on
    the stack layout of ``channel._Stack``: one ``_transforms`` call
    transforms the stack of the quantized parents, one ``_optimal_cuts``
    call gives the cut matrix of the optimal n-particle degradation of each
    transform larger than n, one ``_realize`` call builds those from the
    cuts, which then take their branches' rows of the transforms' stack
    (the next level's parents), and ``_capacities`` evaluates the
    transforms and the quantized channels.  A branch's quantized and exact
    channels are unpacked, with ``channel._channels``, only for its record.
    Every stacked call equals its single calls bit for bit, so the records
    are those of a branch-by-branch loop.  The capacity-loss rate of
    branch alpha*a is

        (I(exact) - I(quantized)) / I(exact)

    with exact = A_a(exact parent) while the exact chain stays within the
    size guard; beyond it the reference falls back to A_a(quantized parent)
    and the record is flagged.  An exact parent is transformed while its
    n^2 + 1 bound is within 4 * EXACT_SIZE_GUARD, each in its own stack of
    one (a stack pads its members to the largest, and only a stack of one
    takes a limit), with EXACT_SIZE_GUARD as the limit:
    ``_canonicalize_stack`` gives size 0 to a transform as soon as its
    sigma sort proves more particles than the guard, before the weight
    order and the merge.  The early stop is exact: the proof is a
    lower bound on the merged size, so a dropped transform is one the
    guard would have discarded after merging.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 2:
        raise ValueError("quantizer size must be >= 2")
    records: dict[str, BranchRecord] = {
        "": BranchRecord("", base, base, 0.0, True)
    }
    level = [""]
    quantized = _stack([base])
    exact: list[_Stack | None] = [quantized]  # untracked: None or size 0
    for _ in range(depth):
        level = [alpha + bit for alpha in level for bit in ("0", "1")]
        refs = quantized = _transforms(_rows(quantized, np.arange(len(level)) // 2), "01" * len(exact))
        large = np.flatnonzero(refs.sizes > n)
        if large.size:
            found = _rows(refs, large)
            quantized = _replaced(refs, large, _realize(found, _optimal_cuts(found, n, True)[0]))
        # Merging usually shrinks the transform well below the n^2 + 1
        # bound, so attempt within a small over-budget and keep the result
        # only if it actually fits.
        guard = EXACT_SIZE_GUARD
        fits = [e is not None and 0 < e.sizes[0] and e.sizes[0] ** 2 + 1 <= 4 * guard for e in exact]
        exact = [_transforms(e, bit, guard) if ok else None for e, ok in zip(exact, fits) for bit in "01"]
        exacts = [None if e is None else _channels(e)[0] for e in exact]
        # A branch without an exact channel reads its transform's capacity.
        caps = zip(_capacities(refs), _capacities(quantized))
        for k, (child, chan, e, (ref, cap)) in enumerate(zip(level, _channels(quantized), exacts, caps)):
            ref = ref if e is None else _capacities(exact[k])[0]
            records[child] = BranchRecord(child, e, chan, capacity_loss_rate(ref, cap), e is not None)
    return ConstructionRun(base, n, depth, records)
