"""A 50-digit ``decimal`` oracle for capacity terms and contiguous groups.

It shares no code with ``bidmc``: every float is converted exactly, a
group's mass and bias x = 1 - 2 mean are direct sums in decimal, and
1 - h(sigma) is the power series in x when x < 1/2 and the entropy through
decimal logarithms otherwise.
"""

import itertools
from decimal import Decimal, localcontext

DIGITS = 50


def capacity_term(x: Decimal) -> Decimal:
    """1 - h((1 - x) / 2) in bits, for 0 <= x <= 1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ln2 = Decimal(2).ln()
        if x >= Decimal("0.5"):
            sigma = (1 - x) / 2
            if sigma == 0:
                return Decimal(1)
            return 1 + (sigma * sigma.ln() + (1 - sigma) * (1 - sigma).ln()) / ln2
        # (1 + x) ln(1 + x) + (1 - x) ln(1 - x) = sum_k x^(2k) / (k (2k - 1))
        total, power, k = Decimal(0), x * x, 1
        while power and power > total.scaleb(-DIGITS - 2):
            total += power / (k * (2 * k - 1))
            power *= x * x
            k += 1
        return total / (2 * ln2)


def sigma_capacity_term(sigma: float) -> Decimal:
    """1 - h(sigma) for a float crossover 0 <= sigma <= 1/2."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return capacity_term(1 - 2 * Decimal(sigma))


def group_capacity(weights, sigmas, a: int, b: int) -> Decimal:
    """mass * (1 - h(mean)) of particles a..b-1 (0-indexed)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q = [Decimal(v) for v in weights[a:b]]
        mass = sum(q)
        x = sum(qi * (1 - 2 * Decimal(si)) for qi, si in zip(q, sigmas[a:b])) / mass
        return mass * capacity_term(x)


def band(weights, sigmas) -> dict[tuple[int, int], Decimal]:
    """Capacity of every contiguous group (a, b), 0-indexed half-open."""
    m = len(weights)
    return {(a, b): group_capacity(weights, sigmas, a, b) for a in range(m) for b in range(a + 1, m + 1)}


def plan_capacity(groups: dict[tuple[int, int], Decimal], m: int, cuts) -> Decimal:
    """Capacity of a cut plan (1-indexed cuts), from a ``band`` dict."""
    edges = [0] + [k - 1 for k in cuts] + [m]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return sum(groups[a, b] for a, b in zip(edges, edges[1:]))


def optimum(groups: dict[tuple[int, int], Decimal], m: int, n: int) -> Decimal:
    """Largest capacity over all cut plans with n groups."""
    return max(plan_capacity(groups, m, cuts) for cuts in itertools.combinations(range(2, m + 1), n - 1))



def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x), by its power series where 1 + x would round x away."""
    if abs(x) >= Decimal("1e-3"):
        return (1 + x).ln()
    total, power, k = Decimal(0), x, 1
    while power and abs(power) > abs(total).scaleb(-DIGITS - 2):
        total += power / k
        power *= -x
        k += 1
    return total


def threshold(eps_l: float, eps_r: float) -> Decimal:
    """split_threshold(e1, e2) = ln((1 - e1)/(1 - e2)) / ln((1 - e1) e2 / ((1 - e2) e1)),
    for float means 0 < e1 < e2 < 1/2, as n / (n + ln(e2 / e1)) with
    n = ln(1 + (e2 - e1) / (1 - e2)), so no 1 - e rounds a subnormal e away."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e1, e2 = Decimal(eps_l), Decimal(eps_r)
        num = _log1p((e2 - e1) / (1 - e2))
        return num / (num + (e2 / e1).ln())
