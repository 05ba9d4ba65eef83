import numpy as np

from dp_stages import dp_stage_tables, iota_band
from smawk import CountingMatrix, StageMatrix, smawk_row_maxima

from bidmc import instance_rng, random_channel


def naive_row_maxima(matrix):
    out = []
    for r in range(matrix.nrows):
        best_c, best_v = 0, matrix.value(r, 0)
        for c in range(1, matrix.ncols):
            v = matrix.value(r, c)
            if v > best_v:
                best_v, best_c = v, c
        out.append((best_c, best_v))
    return out


def concave_matrix(rng, rows, cols):
    """Random totally monotone matrix via the -(x - y)^2 construction."""
    x = np.sort(rng.uniform(0.0, 10.0, size=rows))
    y = np.sort(rng.uniform(0.0, 10.0, size=cols))
    r_off = rng.uniform(-1.0, 1.0, size=rows)
    c_off = rng.uniform(-1.0, 1.0, size=cols)
    m = -((x[:, None] - y[None, :]) ** 2) + r_off[:, None] + c_off[None, :]
    return m


class DenseMatrix:
    def __init__(self, array):
        self.array = np.asarray(array, dtype=np.float64)
        self.nrows, self.ncols = self.array.shape

    def value(self, r, c):
        return float(self.array[r, c])


def test_single_entry():
    m = DenseMatrix([[3.5]])
    assert smawk_row_maxima(m) == [(0, 3.5)]


def test_constant_matrix_leftmost_ties():
    m = DenseMatrix(np.zeros((6, 9)))
    assert smawk_row_maxima(m) == [(0, 0.0)] * 6


def test_random_concave_matrices_match_naive():
    rng = instance_rng(41, 0)
    for trial in range(60):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        m = DenseMatrix(concave_matrix(rng, rows, cols))
        assert smawk_row_maxima(m) == naive_row_maxima(m)


def test_evaluation_count_linear():
    rng = instance_rng(41, 1)
    for rows, cols in [(50, 50), (120, 80), (30, 100)]:
        arr = concave_matrix(rng, rows, cols)
        counting = CountingMatrix(rows, cols, lambda r, c: float(arr[r, c]))
        smawk_row_maxima(counting)
        assert counting.evaluations <= 8 * (rows + cols)


def test_dp_stage_matrices_match_naive_and_avoid_sentinels():
    rng = instance_rng(41, 2)
    for _ in range(25):
        m = int(rng.integers(6, 20))
        n = int(rng.integers(3, min(m, 8)))
        q = random_channel(rng, m)
        size = m - n + 1
        band = iota_band(q, size)
        s_prev = band[np.arange(size), 1]
        _, table = dp_stage_tables([q], n, False)[0]
        for stage in range(2, n + 1):
            mat = StageMatrix(stage, s_prev, band, size)
            got = smawk_row_maxima(mat)
            assert got == naive_row_maxima(mat)
            # Sentinel (upper-triangle) entries are never selected.
            for a, (b, _) in enumerate(got):
                assert b <= a
            s_prev = np.array([v for _, v in got])
            # SMAWK is the independent oracle for the DP's stage kernel,
            # whose last stage keeps only the row covering all particles.
            rows = slice(None) if stage < n else slice(-1, None)
            assert np.array_equal(s_prev[rows], table.values[stage - 1])
            assert np.array_equal(np.array([b for b, _ in got])[rows], table.decisions[stage - 1])
