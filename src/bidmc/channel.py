"""Canonical representation of symmetric binary-input DMCs as BSC mixtures.

A symmetric binary-input discrete memoryless channel is identified, up to
output relabeling, by the distribution of the likelihood ratio of its output
(the LR-profile).  Every such channel is equivalent to a finite mixture of
binary symmetric channels, so the canonical value type here is a sorted
array pair of particles (sigma_i, q_i): crossover probabilities 0 <= sigma_1
< ... < sigma_n <= 1/2 carrying positive weights q_i summing to one.

Capacity and decoding error probability are linear functionals of the
LR-profile:

    capacity          I(W)    = sum_i q_i * (1 - h(sigma_i))
    error probability Perr(W) = sum_i q_i * sigma_i

with h the binary entropy (base 2, h(0) = h(1) = 0 by continuity).

All values are immutable; every operation returns new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# Crossover probabilities closer than this are coalesced into one particle.
MERGE_TOL = 1e-12
# Invariant tolerance on the weight sum of a canonical channel.
SUM_TOL = 1e-12
# Raw inputs may deviate from a probability vector by at most this much.
WEIGHT_SUM_INPUT_TOL = 1e-9


class InvalidDistributionError(ValueError):
    """Raised when particle weights do not form a probability vector."""


class Particle(NamedTuple):
    """One BSC component of a mixture: crossover ``sigma``, mass ``weight``."""

    sigma: float
    weight: float


def binary_entropy(x):
    """Binary entropy h(x) in bits, elementwise; h(0) = h(1) = 0."""
    x = np.asarray(x, dtype=np.float64)
    # Outside (0, 1) the logs see 0 or a negative number; those entries are
    # replaced by 0 below, so their warnings are silenced.
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    out = np.where((x > 0.0) & (x < 1.0), h, 0.0)
    return float(out) if out.ndim == 0 else out


_TWO_LN2 = 2.0 * np.log(2.0)


def _capacity_term(sigma, x, out=None, where=True):
    """1 - h(sigma) in bits, elementwise over equal shapes, given x = 1 - 2 sigma.

    Near 1/2, 1 - h(sigma) is about x^2 / (2 ln 2), far below the round-off
    of h(sigma).  So for sigma >= 1/4 it is (2x atanh(x) + log1p(-x^2)) /
    (2 ln 2), whose two terms cancel by at most half; x must carry its own
    digits there (1 - 2 sigma is exact for sigma >= 1/4, and a group's mean
    of its particles' x keeps them).  Below 1/4 it is 1 - h(sigma), which
    is at least 0.18 there.

    With ``out``, the terms are written into it where the mask ``where``
    holds, and the other entries are left as they are.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(sigma.shape) if out is None else out
    far = sigma < 0.25
    near = ~far & where
    far &= where
    xn = x[near]
    out[near] = (2.0 * xn * np.arctanh(xn) + np.log1p(-xn * xn)) / _TWO_LN2
    out[far] = 1.0 - binary_entropy(sigma[far])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class Channel:
    """Canonical symmetric BIDMC: sorted BSC mixture with positive weights.

    Stored as two read-only float64 arrays, ``sigmas`` and ``weights``;
    ``particles`` is the same data as a tuple of :class:`Particle`, built on
    first use.  Use :func:`canonicalize` (or :func:`bsc`) to build
    instances; the constructor only validates canonical form.
    """

    sigmas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.array(self.sigmas, dtype=np.float64)
        w = np.array(self.weights, dtype=np.float64)
        if s.ndim != 1 or s.shape != w.shape:
            raise ValueError("sigmas and weights must be 1-d arrays of equal length")
        if not s.size:
            raise InvalidDistributionError("channel needs at least one particle")
        # Strictly increasing from >= 0 to <= 1/2 puts every crossover in
        # range, and every check is written so that a NaN fails it.
        valid = 0.0 <= s[0] and s[-1] <= 0.5 and np.count_nonzero(w > 0.0) == w.size
        if not (valid and np.count_nonzero(s[1:] > s[:-1]) == s.size - 1):
            # The first failing particle raises, with its first failing check.
            bad_sigma = ~((0.0 <= s) & (s <= 0.5))
            bad = bad_sigma | ~(w > 0.0)
            bad[1:] |= s[1:] <= s[:-1]
            i = int(bad.argmax())
            if bad_sigma[i]:
                raise ValueError(f"crossover {float(s[i])} outside [0, 1/2]")
            if not w[i] > 0.0:
                raise InvalidDistributionError(f"non-positive weight {float(w[i])}")
            raise ValueError("crossover probabilities must be strictly increasing")
        total = float(w.cumsum()[-1])  # summed in sequence, not pairwise
        if not abs(total - 1.0) <= SUM_TOL:
            raise InvalidDistributionError(f"weights sum to {total}, not 1")
        s.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "weights", w)

    @cached_property
    def particles(self) -> tuple[Particle, ...]:
        return tuple(map(Particle, self.sigmas.tolist(), self.weights.tolist()))

    @property
    def size(self) -> int:
        return self.sigmas.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return bool(
            np.array_equal(self.sigmas, other.sigmas)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash(self.particles)

    def __reduce__(self):
        return (Channel, (self.sigmas, self.weights))

    def __repr__(self) -> str:
        terms = " + ".join(f"{p.weight:.6g}*B({p.sigma:.6g})" for p in self.particles)
        return f"Channel[{terms}]"


@dataclass(frozen=True)
class LrProfile:
    """Likelihood-ratio profile: atoms (epsilon, mass) on [0, 1].

    Symmetric about 1/2 and of total mass one for channels produced here.
    """

    atoms: tuple[tuple[float, float], ...]


def canonicalize(raw: np.ndarray | Iterable[tuple[float, float]]) -> Channel:
    """Reduce raw (sigma, weight) pairs to the canonical sorted merged form.

    ``raw`` is an (N, 2) array or an iterable of pairs.  Crossovers above
    1/2 are reflected to 1 - sigma (B(s) and B(1-s) have the same
    LR-profile).  Entries within MERGE_TOL of each other are coalesced,
    zero-weight entries dropped, and the weight vector normalized; a weight
    sum off by more than WEIGHT_SUM_INPUT_TOL raises.

    The result is bit for bit that of one sequential pass over the pairs
    sorted by (sigma, weight), which folds each pair into the running mean
    of the current group while it lies within MERGE_TOL of that mean and
    otherwise opens a group.  This is the stack of one of
    ``_canonicalize_stack``, which ``polar.construct`` calls once per level
    for the transforms of all quantized parents.
    """
    pairs = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw), dtype=np.float64)
    if not pairs.size:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("raw input must be (sigma, weight) pairs")
    return _channels(_canonicalize_stack(pairs, [len(pairs)]))[0]


class _Stack(NamedTuple):
    """Channels as one stack: row k of the (B, width) ``weights`` and
    ``sigmas`` holds member k's particles in its first sizes[k] entries and
    zeros after them, and width is the largest size.  A member of size 0
    is one that was not kept (see ``_canonicalize_stack``'s ``limit``).

    The stacked steps of a ``construct`` level pass this layout from one to
    the next.  ``_stack`` packs channels into it and ``_channels`` unpacks
    it, so each public single call is a stack of one.
    """

    weights: np.ndarray
    sigmas: np.ndarray
    sizes: np.ndarray


def _stack(ws: Sequence[Channel]) -> _Stack:
    """The stack of channels ``ws``: the one packer.  A stack of one views
    the channel's own read-only arrays, so no step writes into a stack."""
    if len(ws) == 1:
        return _Stack(ws[0].weights[None], ws[0].sigmas[None], np.array([ws[0].size]))
    sizes = np.array([w.size for w in ws], dtype=np.int64)
    weights, sigmas = np.zeros((2, len(ws), sizes.max(initial=0)))
    for k, w in enumerate(ws):
        weights[k, : w.size] = w.weights
        sigmas[k, : w.size] = w.sigmas
    return _Stack(weights, sigmas, sizes)


def _channels(stack: _Stack) -> list[Channel | None]:
    """Each member of a stack as a validated Channel, None for a member of
    size 0: the one unpacker."""
    w, s, sizes = stack
    return [Channel(s[k, :m], w[k, :m]) if m else None for k, m in enumerate(sizes.tolist())]


def _rows(stack: _Stack, rows) -> _Stack:
    """Members ``rows`` (indices or a slice) of a stack, as a stack."""
    sizes = stack.sizes[rows]
    width = sizes.max(initial=0)
    return _Stack(stack.weights[rows, :width], stack.sigmas[rows, :width], sizes)


def _replaced(stack: _Stack, rows, sub: _Stack) -> _Stack:
    """``stack`` with its members ``rows`` replaced by those of ``sub``, a
    stack no wider than ``stack``."""
    ws, sizes = np.array(stack[:2]), stack.sizes.copy()
    ws[:, rows], sizes[rows] = 0.0, sub.sizes
    ws[:, rows, : sub.weights.shape[1]] = sub[:2]
    return _rows(_Stack(*ws, sizes), slice(None))


def _canonicalize_stack(pairs: np.ndarray, sizes: Sequence[int], limit: int | None = None) -> _Stack:
    """``canonicalize`` of each member of a stack of pair lists, in one pass.

    ``pairs`` is an (N, 2) float64 array of the members' pairs one after
    another, ``sizes`` their counts.  Each member of the returned stack
    equals its single call bit for bit, and a malformed member raises the
    error its single call raises.  A column-major ``pairs`` (the transpose
    of a (2, N) array, as ``polar._transforms`` hands it over) is read a
    contiguous column at a time.

    - Each member's total is summed in sequence, in input order, as a row
      zero-padded to the largest member.  Zeros change no sum, but the
      padding costs memory, so a stack should hold members of similar size.
    - The pairs are put in (member, sigma, weight) order: one lexsort on
      (member, sigma) (an argsort for a stack of one), then, over just the
      pairs whose crossovers are equal, one argsort of their weights and
      one sort of (tie block, weight rank) keys, the blocks numbered over
      those pairs alone.  One ``_merge_runs`` replay then folds every
      member's runs.  A stack of one with no sorted gap within 2 *
      MERGE_TOL has nothing to merge and builds no merge heads.
    - ``limit`` is for a stack of one (a larger stack raises ValueError):
      a member whose canonical form has more than ``limit`` particles comes
      back with size 0.  A running group mean exceeds its largest member by
      a few ulps at most, so a sorted gap above 2 * MERGE_TOL surely opens
      a group, and one plus the number of such gaps is a lower bound on the
      canonical size.  When the member has more clean pairs than ``limit``,
      that bound is proved on an ``np.sort`` of its crossovers, and when it
      already exceeds ``limit`` the call returns before the argsort, the
      weight order and the merge; the early stop is exact, since the bound
      never exceeds the size.
    """
    n_mem = len(sizes)
    if limit is not None and n_mem > 1:
        raise ValueError("a size limit needs a stack of one")
    sig, wt, keep = _clean_pairs(pairs)
    if n_mem == 1:
        # Summed in sequence in input order; dropped zero weights add nothing.
        total = float(wt.cumsum()[-1]) if wt.size else 0.0
        if not abs(total - 1.0) <= WEIGHT_SUM_INPUT_TOL:  # a NaN total fails
            raise InvalidDistributionError(f"weights sum to {total}, not 1")
        if limit is not None and sig.size > limit:
            s = np.sort(sig)  # the sure-group bound below, proved before the argsort
            if s.size - np.count_nonzero(s[1:] - s[:-1] <= 2.0 * MERGE_TOL) > limit:
                return _Stack(*np.zeros((2, 1, 0)), np.zeros(1, dtype=np.int64))
        order = np.argsort(sig)
        s, w = sig[order], wt[order]
    else:
        # Row k holds member k's kept weights in input order, padded with 0.
        member = np.repeat(np.arange(n_mem), sizes)[keep]
        count = np.bincount(member, minlength=n_mem)
        start = count.cumsum() - count
        rows = np.zeros((n_mem, max(count.max(), 1)))
        rows[member, np.arange(member.size) - start[member]] = wt
        total = rows.cumsum(axis=1)[:, -1]
        off = ~(np.abs(total - 1.0) <= WEIGHT_SUM_INPUT_TOL)
        if np.count_nonzero(off):
            raise InvalidDistributionError(f"weights sum to {float(total[off.argmax()])}, not 1")
        order = np.lexsort((sig, member))
        s, w = sig[order], wt[order]
    gap = s[1:] - s[:-1]
    close = gap <= 2.0 * MERGE_TOL
    if n_mem > 1:
        close[start[1:] - 1] = False  # a member's first pair opens a group
    n_close = np.count_nonzero(close)
    head = np.concatenate(([True], ~close)) if n_close or n_mem > 1 else None
    if n_close:
        # Equal crossovers go in weight order, as in a sort by (sigma, weight);
        # only the pairs in runs of equal crossovers move.
        tied = close & (gap == 0.0)
        if np.count_nonzero(tied):
            mark = np.concatenate((tied, [False]))
            mark[1:] |= tied
            tie = np.flatnonzero(mark)
            # A block opens at each tied pair whose gap to the pair before it
            # is not a tie (for tie[0], any block number will do).  Key j is
            # the block of the j-th lightest tied pair times tie.size, plus
            # j: the keys are distinct, so a plain sort of them, faster than
            # np.lexsort or an argsort, puts the pairs in (block, weight)
            # order, and key % tie.size gives back j.
            by_weight = w[tie].argsort()
            key = np.cumsum(~tied[tie - 1])[by_weight] * tie.size + np.arange(tie.size)
            perm = tie[by_weight[np.sort(key) % tie.size]]
            s[tie], w[tie] = s[perm], w[perm]
        s, w = _merge_runs(s, w, head)
    if n_mem == 1:
        size = s.size if limit is None or s.size <= limit else 0
        return _Stack((w / total)[None, :size], s[None, :size], np.array([size]))
    count = np.add.reduceat(head, start)
    w = w / np.repeat(total, count)
    out = np.zeros((2, n_mem, count.max()))
    out[:, np.arange(count.max()) < count[:, None]] = w, s
    return _Stack(*out, count)


def _clean_pairs(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated crossovers and positive weights of raw pairs, in input order.

    This is the one place that cleans raw pairs, and ``_canonicalize_stack``
    its one caller: the Arikan transforms and the transition-matrix reader
    hand over every output as it comes.  Zero weights, and weights within
    MERGE_TOL below 0, are dropped; crossovers above 1/2 are reflected and
    those within MERGE_TOL outside [0, 1/2] clamped.  The first pair with a
    negative weight, or a positive weight and a crossover outside [0, 1],
    raises.  Each step reads whole columns of ``pairs``, contiguous when it
    is column-major.  Also returns the mask of the pairs kept.
    """
    sig, wt = pairs.T
    sig = np.minimum(sig, 1.0 - sig)  # reflects above 1/2, exactly
    keep = wt > 0.0
    # Reflected crossovers are at most 1/2, so pairs that pass both tests
    # need no diagnosis; a NaN fails both.
    if not (wt.size and wt.min() >= 0.0 and sig.min() >= 0.0):
        negative = wt < -MERGE_TOL
        keep = ~(wt <= 0.0)  # a NaN weight is kept, as the sequential pass keeps it
        bad = negative | (keep & ~(sig >= 0.0 - MERGE_TOL))
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            if negative[i]:
                raise InvalidDistributionError(f"negative weight {float(pairs[i, 1])}")
            raise ValueError(f"crossover {float(sig[i])} outside [0, 1]")
        sig[sig < 0.0] = 0.0  # clamps in place: sig is a new array
    if np.count_nonzero(keep) < keep.size:
        sig, wt = sig[keep], wt[keep]
    return sig, wt, keep


# Runs still open when ``_merge_runs`` leaves its vectorized steps for its
# scalar loop.  A vectorized step costs about a dozen numpy calls however
# few runs it advances, a scalar one about 0.3 us per pair.  On the 520
# merges of the exact transforms of the 40 seed-0 polar-chain bases (depth
# 5, n = 4; up to 13.7k pairs in about 1000 runs), cuts at 16 and 32 were
# fastest, and 8, 64 and 128 took 7%, 4% and 18% longer (median of 15
# interleaved rounds on a 2-core Xeon VM).
_SCALAR_RUNS = 32


def _merge_runs(s: np.ndarray, w: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and masses of the groups of sorted pairs, by running means.

    ``head`` flags the pairs that surely open a group; the pairs after each
    are replayed one step at a time, all runs in step: a pair within
    MERGE_TOL of its group's running mean is folded into it, any other
    opens a group and gets its ``head`` flag set.  Each group's mean and
    mass are written over its first pair in ``s`` and a scaled copy of
    ``w``, so ``s`` and ``head`` come back changed.  The runs go longest
    first, so those still open at a step are a prefix, and each run's
    running mean and mass sit in one contiguous array.  Once no more than
    _SCALAR_RUNS runs are open, a scalar loop finishes each of them from
    where the steps stopped.  The masses are folded scaled by 2^1000,
    which is exact and keeps subnormal ones at full precision (at most 1 +
    1e-9 each, so no sum overflows): a fold of subnormal products could
    land a mean on its neighbour's.
    """
    w = w * 2.0**1000
    start = head.nonzero()[0]
    length = np.diff(np.append(start, s.size))
    order = np.argsort(-length)[: np.count_nonzero(length > 1)]
    first, length = start[order], length[order]
    # Runs open at step t, those longer than t, for t = 0 .. the longest.
    open_at = np.searchsorted(-length, -np.arange(length[:1].sum() + 1)).tolist()
    cur = first.copy()  # head of each run's current group
    g, m = s[first], w[first]  # its running mean and mass
    step = 1
    while (n := open_at[step]) > _SCALAR_RUNS:
        k = first[:n] + step
        sk, wk = s.take(k), w.take(k)
        gn, mn = g[:n], m[:n]
        mass = mn + wk
        fold = (gn * mn + sk * wk) / mass
        opened = sk - gn > MERGE_TOL
        if np.count_nonzero(opened):  # at about one step in ten
            o = opened.nonzero()[0]
            c = cur[o]
            s[c], w[c] = gn[o], mn[o]  # the groups these close
            head[k[o]], cur[o] = True, k[o]
            fold[o], mass[o] = sk[o], wk[o]
        gn[...], mn[...] = fold, mass
        step += 1
    s[cur], w[cur] = g, m
    for c, lo, hi in zip(cur[:n].tolist(), (first[:n] + step).tolist(), (first[:n] + length[:n]).tolist()):
        g, m = float(s[c]), float(w[c])
        for k, sk, wk in zip(range(lo, hi), s[lo:hi].tolist(), w[lo:hi].tolist()):
            if sk - g <= MERGE_TOL:
                mass = m + wk
                g = (g * m + sk * wk) / mass
                m = mass
            else:
                s[c], w[c] = g, m
                head[k] = True
                c, g, m = k, sk, wk
        s[c], w[c] = g, m
    return s[head], w[head] * 2.0**-1000


def bsc(eps: float) -> Channel:
    """The binary symmetric channel B(eps) as a one-particle mixture."""
    return canonicalize([(eps, 1.0)])


def capacity(w: Channel) -> float:
    """Symmetric capacity I(W) = 1 - sum_i q_i h(sigma_i), in [0, 1].

    The stack of one of ``_capacities``.
    """
    return _capacities(_stack([w]))[0]


def _capacities(stack: _Stack) -> list[float]:
    """``capacity`` of each member of a stack: one capacity-term evaluation
    over the stack, then each member's own ``np.sum`` over its own terms,
    so each value equals its single call bit for bit."""
    w, s, sizes = stack
    terms = w * _capacity_term(s, 1.0 - 2.0 * s)
    return [float(np.sum(t[:m])) for t, m in zip(terms, sizes.tolist())]


def capacity_loss_rate(cap_src: float, cap_deg: float) -> float:
    """Relative capacity loss (I(Q) - I(W)) / I(Q), clamped at 0; 0 when I(Q) <= 0."""
    return 0.0 if cap_src <= 0.0 else max(0.0, (cap_src - cap_deg) / cap_src)


def error_probability(w: Channel) -> float:
    """MLD error probability Perr(W) = sum_i q_i sigma_i, in [0, 1/2]."""
    return float(np.dot(w.weights, w.sigmas))


def lr_functional(w: Channel, f: Callable[[float], float]) -> float:
    """Expectation of f over the LR-profile: sum over atoms of f(eps)*mass.

    With f(e) = 1 - h(e) this equals capacity(w); with f(e) = min(e, 1-e)
    it equals error_probability(w).
    """
    return sum(f(eps) * mass for eps, mass in lr_profile(w).atoms)


def lr_profile(w: Channel) -> LrProfile:
    """LR-profile of a canonical channel.

    Each particle sigma < 1/2 contributes mass q/2 at sigma and q/2 at
    1 - sigma; a particle at exactly 1/2 contributes a single atom of its
    full mass.
    """
    atoms: list[tuple[float, float]] = []
    for p in w.particles:
        if p.sigma >= 0.5:
            atoms.append((0.5, p.weight))
        else:
            atoms.append((p.sigma, p.weight / 2.0))
            atoms.append((1.0 - p.sigma, p.weight / 2.0))
    atoms.sort()
    return LrProfile(tuple(atoms))
