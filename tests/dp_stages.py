"""The DP's per-stage arrays of each channel, read from ``search._dp_run``,
which keeps them for its traceback, and ``iota_band``, the capacity band
its stages read, from the DP's own ``_segments``; the tests check the
stage kernel on them."""

from types import SimpleNamespace

import numpy as np

from bidmc import Channel, PPlusPlan, search
from bidmc.channel import _stack


def dp_stage_tables(qs, n, pruning):
    """Each channel's plan with its run's stage arrays, capacity and counters,
    by the DP with or without ``pruning`` over stacks of the channels.

    ``values[j]`` holds S_{j+1} over band offsets (i = j + 1 + offset for
    stages before the last, a single entry for the last); NaN marks states
    never computed.  ``decisions[j]`` holds the chosen previous band offset,
    -1 where unavailable.  ``pruned[j]`` flags skipped states.
    """
    out = []
    qs = list(qs)
    for rows, stack in search._chunks(_stack(qs), n):
        cuts, caps, stages, _ = search._dp_run(stack, n, pruning)
        values, decisions, pruned, evaluations, pruned_states = stages
        for k, q in enumerate(qs[rows]):
            own = slice(0, q.size - n + 1)  # each stage's own states; the last has one
            table = SimpleNamespace(
                values=[v[k, own] for v in values],
                decisions=[d[k, own] for d in decisions],
                pruned=[p[k, own] for p in pruned],
                evaluations=int(evaluations[k]),
                pruned_states=int(pruned_states[k]),
                capacity=float(caps[k]),
            )
            out.append((PPlusPlan(q, tuple(cuts[k].tolist())), table))
    return out


def iota_band(q: Channel, max_len: int) -> np.ndarray:
    """Partial-capacity table: band[d, s] for particles s..s+d (1-indexed s).

    band[d, s] = mass * (1 - h(mean)) of the group of d+1 particles starting
    at s, from ``search._segments``; entries outside 1 <= s <= m - d are
    NaN.
    """
    band = np.full((max_len, q.size + 1), np.nan)
    band[:, 1:] = search._segments(_stack([q]), max_len, 0, 0).band[0]
    return band
