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
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Channel, canonicalize, capacity, capacity_loss_rate
from .refine import realize_pplus
from .search import c_optimal_degradation

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


def star(a: float, b: float) -> float:
    """Crossover of a serial BSC pair: (1-a)b + a(1-b)."""
    return (1.0 - a) * b + a * (1.0 - b)


def diamond(a: float, b: float) -> float:
    """Crossover a # b = ab / ((1-a) * b); 0 when either argument is 0 or 1."""
    if a in (0.0, 1.0) or b in (0.0, 1.0):
        return 0.0
    return a * b / star(1.0 - a, b)


def arikan_minus(w: Channel) -> Channel:
    """Minus (check) transform: pairwise star mixture."""
    raw = []
    for i, pi in enumerate(w.particles):
        for pj in w.particles:
            raw.append((star(pi.sigma, pj.sigma), pi.weight * pj.weight))
    return canonicalize(raw)


def arikan_plus(w: Channel) -> Channel:
    """Plus (copy) transform: pairwise diamond mixture, <= n^2 + 1 particles."""
    raw = []
    for pi in w.particles:
        for pj in w.particles:
            mass = pi.weight * pj.weight
            good = star(1.0 - pi.sigma, pj.sigma)
            if good > 0.0:
                raw.append((diamond(pi.sigma, pj.sigma), mass * good))
            if good < 1.0:
                raw.append((diamond(1.0 - pi.sigma, pj.sigma), mass * (1.0 - good)))
    return canonicalize(raw)


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


def _quantize(w: Channel, n: int) -> Channel:
    if w.size <= n:
        return w
    plan, _ = c_optimal_degradation(w, n)
    return realize_pplus(plan)


def construct(base: Channel, depth: int, n: int) -> ConstructionRun:
    """Degrade-then-transform over every branch of length <= depth.

    Breadth-first over branches; each level transforms the parent's
    quantized channel and re-quantizes to n particles with the optimal
    degradation.  The capacity-loss rate of branch alpha*a is

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
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for alpha in frontier:
            parent = records[alpha]
            for bit in ("0", "1"):
                child = alpha + bit
                quant_ref = _transform(parent.quantized, bit)
                quantized = _quantize(quant_ref, n)
                exact: Channel | None = None
                if (
                    parent.exact is not None
                    and parent.exact.size ** 2 + 1 <= 4 * EXACT_SIZE_GUARD
                ):
                    # Merging usually shrinks the transform well below the
                    # n^2 + 1 bound, so attempt within a small over-budget
                    # and keep the result only if it actually fits.
                    exact = _transform(parent.exact, bit)
                    if exact.size > EXACT_SIZE_GUARD:
                        exact = None
                reference = exact if exact is not None else quant_ref
                clr = capacity_loss_rate(capacity(reference), capacity(quantized))
                records[child] = BranchRecord(child, exact, quantized, clr, exact is not None)
                nxt.append(child)
        frontier = nxt
    return ConstructionRun(base, n, depth, records)
