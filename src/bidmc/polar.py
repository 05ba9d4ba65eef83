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
level is one stacked pass: one call transforms every quantized parent, one
``canonicalize`` pass reduces the transforms, one DP call quantizes them,
one call realizes the plans and one capacity-term evaluation serves the
level's capacity-loss rates.  Each stacked call equals its single calls bit
for bit; ``arikan_minus``, ``arikan_plus``, ``canonicalize``,
``realize_pplus`` and ``capacity`` are their stacks of one.  An exact
transform whose sorted crossovers already prove more particles than the
guard is dropped before its merge (see ``construct``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import Channel, _canonicalize_stack, _capacities, capacity_loss_rate
from .refine import _realize_pplus_stack
from .search import c_optimal_degradations

__all__ = [
    "EXACT_SIZE_GUARD",
    "star",
    "diamond",
    "arikan_minus",
    "arikan_plus",
    "BranchRecord",
    "ConstructionRun",
    "construct",
]

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
    """Unordered pairs i <= j of m particles: i, j, the mass factor c_ij and the diagonal.

    Built once per size as read-only arrays: ``np.triu_indices`` alone
    takes about 20 us at m = 4 (on a 2-core Xeon VM), and most transforms
    of a construction are of channels of at most n particles.  The indices
    are int32, which halves the index arrays the cache keeps alive for the
    exact chain's large sizes.
    """
    i, j = (a.astype(np.int32) for a in np.triu_indices(m))
    diag = i == j
    factor = np.where(diag, 1.0, 2.0)
    for a in (i, j, diag, factor):
        a.flags.writeable = False
    return i, j, factor, diag


def _transforms(
    ws: Sequence[Channel], bits: Sequence[str], limit: int | None = None
) -> list[Channel | None]:
    """Transform bits[k] ("0" minus, "1" plus) of each channel ws[k], in one pass.

    Channels of one bit and one size are transformed together into one
    (channel, pair, output, 2) array of raw (crossover, mass) outputs: one
    output per pair for the minus transform, a good and a bad one for the
    plus transform.  One ``_canonicalize_stack`` call reduces every
    transform, dropping zero masses and folding crossovers above 1/2; each
    result equals its single call bit for bit.  With ``limit``, a transform
    of more than ``limit`` particles is None.
    """
    if not ws:
        return []
    groups: dict[tuple[str, int], list[int]] = {}
    for k, (w, bit) in enumerate(zip(ws, bits)):
        groups.setdefault((bit, w.size), []).append(k)
    chunks, sizes, members = [], [], []
    for (bit, m), ks in groups.items():
        i, j, factor, diag = _pair_indices(m)
        sig = np.array([ws[k].sigmas for k in ks])
        wt = np.array([ws[k].weights for k in ks])
        si, sj = sig.take(i, axis=1), sig.take(j, axis=1)
        mass = factor * wt.take(i, axis=1) * wt.take(j, axis=1)
        members += ks
        outputs = 1 + int(bit)
        pairs = np.empty(si.shape + (outputs, 2))
        if bit == "0":
            pairs[..., 0, 0] = star(si, sj)
            pairs[..., 0, 1] = mass
        else:
            # Pair i <= j gives its good output, then its bad one.
            good = star(1.0 - si, sj)
            pairs[..., 0, 0] = diamond(si, sj)
            pairs[..., 1, 0] = diamond(1.0 - si, sj)
            pairs[:, diag, 1, 0] = 0.5
            pairs[..., 0, 1] = mass * good
            pairs[..., 1, 1] = mass * (1.0 - good)
        chunks.append(pairs.reshape(-1, 2))
        sizes += [outputs * i.size] * len(ks)
    pairs = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    out: list[Channel | None] = [None] * len(ws)
    for k, chan in zip(members, _canonicalize_stack(pairs, sizes, limit)):
        out[k] = chan
    return out


def arikan_minus(w: Channel) -> Channel:
    """Minus (check) transform: star mixture over unordered pairs."""
    return _transforms([w], "0")[0]


def arikan_plus(w: Channel) -> Channel:
    """Plus (copy) transform: diamond mixture over unordered pairs.

    Pair i <= j contributes a good and a bad output, in that order; a zero
    mass factor gives a zero mass, which canonicalization drops.  A diagonal
    pair (e_i = e_j, since a channel's crossovers are distinct) has its bad
    output set to exactly ~e # e = 1/2, which the division misses by up to
    1.4e-17 / e.  So these merge into one, and at most
    n(n+1)/2 + n(n-1)/2 + 1 = n^2 + 1 remain.
    """
    return _transforms([w], "1")[0]


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

    Each level is one stacked pass over its branches: one ``_transforms``
    call transforms every quantized parent of the level above, one
    ``c_optimal_degradations`` call finds the optimal n-particle
    degradation of each transform larger than n, one
    ``_realize_pplus_stack`` call builds those, and one ``_capacities``
    call evaluates the level.  Every stacked call equals its single calls
    bit for bit, so the records are those of a branch-by-branch loop.  The
    capacity-loss rate of branch alpha*a is

        (I(exact) - I(quantized)) / I(exact)

    with exact = A_a(exact parent) while the exact chain stays within the
    size guard; beyond it the reference falls back to A_a(quantized parent)
    and the record is flagged.  An exact parent is transformed while its
    n^2 + 1 bound is within 4 * EXACT_SIZE_GUARD, each in its own call
    (a stack pads its members to the largest), with EXACT_SIZE_GUARD as
    the limit: ``_canonicalize_stack`` drops a transform as soon as its
    sigma sort proves more particles than the guard, before the weight
    order and the merge.  The early stop is exact: the proof is a lower
    bound on the merged size, so a dropped transform is one the guard
    would have discarded after merging.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n < 2:
        raise ValueError("quantizer size must be >= 2")
    records: dict[str, BranchRecord] = {
        "": BranchRecord("", base, base, 0.0, True)
    }
    level = [""]
    for _ in range(depth):
        level = [alpha + bit for alpha in level for bit in ("0", "1")]
        parents = [records[child[:-1]] for child in level]
        bits = [child[-1] for child in level]
        refs = _transforms([p.quantized for p in parents], bits)
        quantized = list(refs)
        large = [k for k, w in enumerate(refs) if w.size > n]
        plans = c_optimal_degradations([refs[k] for k in large], n)
        for k, w in zip(large, _realize_pplus_stack([plan for plan, _ in plans])):
            quantized[k] = w
        # Merging usually shrinks the transform well below the n^2 + 1
        # bound, so attempt within a small over-budget and keep the result
        # only if it actually fits.
        exact: list[Channel | None] = [None] * len(level)
        for k, p in enumerate(parents):
            if p.exact is not None and p.exact.size ** 2 + 1 <= 4 * EXACT_SIZE_GUARD:
                exact[k] = _transforms([p.exact], bits[k], EXACT_SIZE_GUARD)[0]
        references = [e if e is not None else r for e, r in zip(exact, refs)]
        caps = _capacities(references + quantized)
        for k, child in enumerate(level):
            clr = capacity_loss_rate(caps[k], caps[len(level) + k])
            records[child] = BranchRecord(child, exact[k], quantized[k], clr, exact[k] is not None)
    return ConstructionRun(base, n, depth, records)
