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
level is quantized in one batched DP call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, canonicalize, capacity, capacity_loss_rate
from .refine import realize_pplus
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


def _pairs(w: Channel):
    """Unordered pairs i <= j: e_i, e_j and mass p_i p_j, doubled off the diagonal."""
    i, j = np.triu_indices(w.size)
    return w.sigmas[i], w.sigmas[j], np.where(i == j, 1.0, 2.0) * w.weights[i] * w.weights[j]


def arikan_minus(w: Channel) -> Channel:
    """Minus (check) transform: star mixture over unordered pairs."""
    si, sj, mass = _pairs(w)
    return canonicalize(np.column_stack((star(si, sj), mass)))


def arikan_plus(w: Channel) -> Channel:
    """Plus (copy) transform: diamond mixture over unordered pairs.

    Pair i <= j contributes a good and a bad output, in that order, each
    only when its mass factor is nonzero.  A diagonal pair (e_i = e_j, since
    a channel's crossovers are distinct) has its bad output set to exactly
    ~e # e = 1/2, which the division misses by up to 1.4e-17 / e.  So these
    merge into one, and at most n(n+1)/2 + n(n-1)/2 + 1 = n^2 + 1 remain.
    """
    si, sj, mass = _pairs(w)
    good = star(1.0 - si, sj)
    # Column 0 is the good output of a pair, column 1 the bad one.
    factor = np.column_stack((good, 1.0 - good))
    sig = diamond(np.column_stack((si, 1.0 - si)), sj[:, None])
    sig[si == sj, 1] = 0.5
    keep = factor > 0.0
    return canonicalize(np.column_stack((sig[keep], (mass[:, None] * factor)[keep])))


def _transform(w: Channel, bit: str) -> Channel:
    return arikan_minus(w) if bit == "0" else arikan_plus(w)


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

    Level by level: each level transforms every quantized parent of the
    level above and re-quantizes the transforms larger than n to n
    particles with the optimal degradation, all of them in one
    ``c_optimal_degradations`` call.  The capacity-loss rate of branch
    alpha*a is

        (I(exact) - I(quantized)) / I(exact)

    with exact = A_a(exact parent) while the exact chain stays within the
    size guard; beyond it the reference falls back to A_a(quantized parent)
    and the record is flagged.
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
        refs = [_transform(records[child[:-1]].quantized, child[-1]) for child in level]
        quantized = list(refs)
        large = [i for i, w in enumerate(refs) if w.size > n]
        plans = c_optimal_degradations([refs[i] for i in large], n)
        for i, (plan, _) in zip(large, plans):
            quantized[i] = realize_pplus(plan)
        for child, quant_ref, quant in zip(level, refs, quantized):
            parent = records[child[:-1]]
            exact: Channel | None = None
            if (
                parent.exact is not None
                and parent.exact.size ** 2 + 1 <= 4 * EXACT_SIZE_GUARD
            ):
                # Merging usually shrinks the transform well below the
                # n^2 + 1 bound, so attempt within a small over-budget
                # and keep the result only if it actually fits.
                exact = _transform(parent.exact, child[-1])
                if exact.size > EXACT_SIZE_GUARD:
                    exact = None
            reference = exact if exact is not None else quant_ref
            clr = capacity_loss_rate(capacity(reference), capacity(quant))
            records[child] = BranchRecord(child, exact, quant, clr, exact is not None)
    return ConstructionRun(base, n, depth, records)
