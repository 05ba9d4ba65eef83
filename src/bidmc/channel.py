"""Canonical representation of symmetric binary-input DMCs as BSC mixtures.

A symmetric binary-input discrete memoryless channel is identified, up to
output relabeling, by the distribution of the likelihood ratio of its output
(the LR-profile).  Every such channel is equivalent to a finite mixture of
binary symmetric channels, so the canonical value type here is a sorted list
of particles (sigma_i, q_i): crossover probabilities 0 <= sigma_1 < ... <
sigma_n <= 1/2 carrying positive weights q_i summing to one.

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

__all__ = [
    "MERGE_TOL",
    "SUM_TOL",
    "WEIGHT_SUM_INPUT_TOL",
    "InvalidDistributionError",
    "Particle",
    "Channel",
    "LrProfile",
    "binary_entropy",
    "bsc",
    "canonicalize",
    "capacity",
    "capacity_loss_rate",
    "error_probability",
    "lr_functional",
    "mix",
    "lr_profile",
    "equivalent",
]

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
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)
    h = -(xs * np.log2(xs) + (1.0 - xs) * np.log2(1.0 - xs))
    out = np.where(inner, h, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Channel:
    """Canonical symmetric BIDMC: sorted BSC mixture with positive weights.

    Use :func:`canonicalize` (or :func:`bsc` / :func:`mix`) to build
    instances; the constructor only validates canonical form.
    """

    particles: tuple[Particle, ...]

    def __post_init__(self):
        if not self.particles:
            raise InvalidDistributionError("channel needs at least one particle")
        prev = -1.0
        total = 0.0
        for p in self.particles:
            if not (0.0 <= p.sigma <= 0.5):
                raise ValueError(f"crossover {p.sigma} outside [0, 1/2]")
            if p.weight <= 0.0:
                raise InvalidDistributionError(f"non-positive weight {p.weight}")
            if p.sigma <= prev:
                raise ValueError("crossover probabilities must be strictly increasing")
            prev = p.sigma
            total += p.weight
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidDistributionError(f"weights sum to {total}, not 1")

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.array([p.sigma for p in self.particles], dtype=np.float64)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.particles], dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.particles)

    def __repr__(self) -> str:
        terms = " + ".join(f"{p.weight:.6g}*B({p.sigma:.6g})" for p in self.particles)
        return f"Channel[{terms}]"


@dataclass(frozen=True)
class LrProfile:
    """Likelihood-ratio profile: atoms (epsilon, mass) on [0, 1].

    Symmetric about 1/2 and of total mass one for channels produced here.
    """

    atoms: tuple[tuple[float, float], ...]

    def mass_at(self, eps: float, tol: float = MERGE_TOL) -> float:
        return sum(m for e, m in self.atoms if abs(e - eps) <= tol)

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def canonicalize(raw: Iterable[tuple[float, float]]) -> Channel:
    """Reduce raw (sigma, weight) pairs to the canonical sorted merged form.

    Crossovers above 1/2 are reflected to 1 - sigma (B(s) and B(1-s) have the
    same LR-profile).  Entries within MERGE_TOL of each other are coalesced,
    zero-weight entries dropped, and the weight vector normalized; a weight
    sum off by more than WEIGHT_SUM_INPUT_TOL raises.
    """
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
    if abs(total - 1.0) > WEIGHT_SUM_INPUT_TOL:
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
    particles = tuple(Particle(s, w / total) for s, w in merged)
    return Channel(particles)


def bsc(eps: float) -> Channel:
    """The binary symmetric channel B(eps) as a one-particle mixture."""
    return canonicalize([(eps, 1.0)])


def capacity(w: Channel) -> float:
    """Symmetric capacity I(W) = 1 - sum_i q_i h(sigma_i), in [0, 1]."""
    return float(np.sum(w.weights * (1.0 - binary_entropy(w.sigmas))))


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


def mix(components: Sequence[tuple[float, Channel]]) -> Channel:
    """Random switching channel: probabilistic mixture of sub-channels.

    ``components`` are (weight, channel) pairs with nonnegative weights
    summing to one; the result's LR-profile is the weighted sum of the
    component profiles.
    """
    if not components:
        raise InvalidDistributionError("empty mixture")
    wsum = 0.0
    raw: list[tuple[float, float]] = []
    for weight, chan in components:
        if weight < -MERGE_TOL:
            raise InvalidDistributionError(f"negative mixture weight {weight}")
        wsum += max(float(weight), 0.0)
        for p in chan.particles:
            raw.append((p.sigma, max(float(weight), 0.0) * p.weight))
    if abs(wsum - 1.0) > WEIGHT_SUM_INPUT_TOL:
        raise InvalidDistributionError(f"mixture weights sum to {wsum}, not 1")
    return canonicalize(raw)


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


def equivalent(w: Channel, v: Channel, tol: float = MERGE_TOL) -> bool:
    """True iff the LR-profiles coincide atomwise within ``tol``.

    Both inputs are canonical, so this reduces to matching particle lists.
    """
    if w.size != v.size:
        return False
    for a, b in zip(w.particles, v.particles):
        if abs(a.sigma - b.sigma) > tol or abs(a.weight - b.weight) > tol:
            return False
    return True
