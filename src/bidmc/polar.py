"""Arikan channel transforms on BSC mixtures and construction experiments.

The two polar-coding synthetic channels of W = sum_j p_j B(e_j) are again
BSC mixtures:

    minus:  sum_{i,j} p_i p_j B(e_i * e_j)
    plus:   sum_{i,j} p_i p_j [ (~e_i * e_j) B(e_i # e_j)
                                + (e_i * e_j) B(~e_i # e_j) ]

with a * b = (1-a)b + a(1-b) and a # b = ab / ((1-a) * b) (0 when either
argument is 0 or 1).  The plus transform of an n-particle mixture has at
most n^2 + 1 particles after canonicalization, which keeps iterated
constructions finite.

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


def arikan_minus(w: Channel) -> Channel:
    """Minus (check) transform: pairwise star mixture."""
    s, p = w.sigmas, w.weights
    sig = star(s[:, None], s[None, :])
    mass = p[:, None] * p[None, :]
    return canonicalize(np.column_stack((sig.ravel(), mass.ravel())))


def arikan_plus(w: Channel) -> Channel:
    """Plus (copy) transform: pairwise diamond mixture, <= n^2 + 1 particles.

    Pair (i, j) contributes a good and a bad output, in that order, each
    only when its mass factor is nonzero.
    """
    si, sj = w.sigmas[:, None], w.sigmas[None, :]
    mass = w.weights[:, None] * w.weights[None, :]
    good = star(1.0 - si, sj)
    # [i, j, 0] is the good output of pair (i, j), [i, j, 1] the bad one.
    sig = diamond(np.stack((si, 1.0 - si), axis=-1), sj[..., None])
    mass = np.stack((mass * good, mass * (1.0 - good)), axis=-1)
    keep = np.stack((good > 0.0, good < 1.0), axis=-1)
    return canonicalize(np.stack((sig, mass), axis=-1)[keep])


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

    def branch(self, alpha: str) -> BranchRecord:
        return self.records[alpha]


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
