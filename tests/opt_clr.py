"""The optimal-degradation CLR record without the DP's counters, which
criterion 05 and the certificate tests read; the ``opt-clr`` table's
record, ``experiments._opt_clr_counted``, adds the counters of one pruned
``dp_tables`` run and must give the same CLRs."""

from bidmc import c_optimal_degradations, instance_rng, random_channel
from bidmc.experiments import _opt_clrs


def opt_clr(seed, indices, m, n) -> dict:
    """Optimal-degradation CLR of random m-particle channels reduced to n,
    with plans from ``c_optimal_degradations``, as a table record (see
    ``bidmc.experiments``)."""
    qs = [random_channel(instance_rng(seed, i), m) for i in indices]
    return {"clr": _opt_clrs(qs, [plan for plan, _ in c_optimal_degradations(qs, n)])}
