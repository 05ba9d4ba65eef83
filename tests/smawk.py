"""Row maxima of implicit totally monotone matrices in linear time.

The tests' reference for the DP stage kernel, which does not use it.

A matrix M is totally monotone (for maxima) when for every pair of rows
r < r' and columns c < c': M[r][c] <= M[r][c'] implies M[r'][c] <= M[r'][c'].
Leftmost row-maximum positions are then nondecreasing down the rows, and the
classic reduce/interpolate recursion finds all of them with O(rows + cols)
entry evaluations.

Matrices are implicit: any object with ``nrows``, ``ncols`` and
``value(row, col)``.  Ties break toward the leftmost column.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = ["ImplicitMatrix", "CountingMatrix", "StageMatrix", "smawk_row_maxima"]

_SENTINEL_DEAD = -1e9


class ImplicitMatrix(Protocol):
    nrows: int
    ncols: int

    def value(self, row: int, col: int) -> float: ...


class CountingMatrix:
    """Wrap an entry function with memoization and an evaluation counter.

    ``evaluations`` counts distinct entries actually computed, which is the
    complexity measure asserted by the search tests.
    """

    def __init__(self, nrows: int, ncols: int, fn):
        self.nrows = nrows
        self.ncols = ncols
        self._fn = fn
        self._memo: dict[tuple[int, int], float] = {}
        self.evaluations = 0

    def value(self, row: int, col: int) -> float:
        key = (row, col)
        v = self._memo.get(key)
        if v is None:
            v = self._fn(row, col)
            self._memo[key] = v
            self.evaluations += 1
        return v


def _smawk(rows: list[int], cols: list[int], value) -> dict[int, int]:
    if not rows:
        return {}

    # Reduce: prune columns that cannot hold any row maximum, keeping at
    # most len(rows) survivors.  Strict comparison keeps the leftmost column
    # on ties.
    stack: list[int] = []
    for c in cols:
        while stack and value(rows[len(stack) - 1], stack[-1]) < value(rows[len(stack) - 1], c):
            stack.pop()
        if len(stack) < len(rows):
            stack.append(c)
    cols = stack

    result = _smawk(rows[1::2], cols, value)

    # Interpolate: even-indexed rows scan only between their neighbors'
    # maxima positions.
    col_pos = {c: i for i, c in enumerate(cols)}
    for i in range(0, len(rows), 2):
        r = rows[i]
        lo = col_pos[result[rows[i - 1]]] if i > 0 else 0
        hi = col_pos[result[rows[i + 1]]] if i + 1 < len(rows) else len(cols) - 1
        best_c = cols[lo]
        best_v = value(r, best_c)
        for c in cols[lo + 1 : hi + 1]:
            v = value(r, c)
            if v > best_v:
                best_v = v
                best_c = c
        result[r] = best_c
    return result


def smawk_row_maxima(matrix: ImplicitMatrix) -> list[tuple[int, float]]:
    """Leftmost (column, value) maximum of every row of a totally monotone matrix."""
    rows = list(range(matrix.nrows))
    cols = list(range(matrix.ncols))
    arg = _smawk(rows, cols, matrix.value)
    return [(arg[r], matrix.value(r, arg[r])) for r in rows]


class StageMatrix:
    """Implicit totally monotone DP stage matrix over an ``iota_band``.

    Row a corresponds to covering particles up to j + a with j groups,
    column b to the previous state at particle j - 1 + b.  The feasible
    lower triangle (b <= a) is S_prev[b] + iota(j + b, j + a); the upper
    triangle holds the dominated sentinel 1 - 2(b - a).  Lower-triangle
    evaluations are memoized and counted.
    """

    def __init__(self, stage: int, s_prev: np.ndarray, band: np.ndarray, size: int):
        self.stage = stage
        self.s_prev = s_prev
        self.band = band
        self.nrows = size
        self.ncols = size
        self._memo: dict[tuple[int, int], float] = {}
        self.evaluations = 0

    def value(self, a: int, b: int) -> float:
        if b > a:
            return 1.0 - 2.0 * (b - a)
        key = (a, b)
        v = self._memo.get(key)
        if v is None:
            prev = self.s_prev[b]
            if np.isnan(prev):
                v = _SENTINEL_DEAD + b - a
            else:
                v = float(prev) + float(self.band[a - b, self.stage + b])
                self.evaluations += 1
            self._memo[key] = v
        return v
