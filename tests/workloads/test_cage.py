"""Unit tests for the cage10-like matrix generator."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.workloads.cage as cage_mod
from repro.errors import WorkloadError
from repro.kernels.spmv import SPMV_SPEC
from repro.util.prng import make_rng
from repro.workloads.cage import (
    CAGE10_STATS,
    CageStats,
    cage10_like,
    cage_like,
    scaled_cage_like,
)
from repro.workloads.csr import CsrMatrix
from repro.workloads.scales import get_scale


def _cage_like_per_row(stats, *, seed=7, band_fraction=0.7,
                       bandwidth_rows=600):
    """Specification of :func:`cage_like`: one row at a time, two draws
    and one ``np.unique`` per row, assembled by scipy."""
    rng = make_rng(seed, "cage", stats.n, stats.nnz)
    n = stats.n

    target_offdiag = stats.nnz - n
    mean_deg = target_offdiag / n
    sigma = (stats.max_row - stats.min_row) / 6.0
    deg = rng.normal(mean_deg, sigma, size=n)
    deg = np.clip(np.rint(deg), stats.min_row - 1, stats.max_row - 1)
    deg = deg.astype(np.int64)
    diff = int(target_offdiag - deg.sum())
    while diff != 0:
        idx = rng.integers(0, n, size=abs(diff))
        if diff > 0:
            mask = deg[idx] < stats.max_row - 1
            deg[idx[mask]] += 1
            diff -= int(mask.sum())
        else:
            mask = deg[idx] > stats.min_row - 1
            deg[idx[mask]] -= 1
            diff += int(mask.sum())

    rows_out = []
    cols_out = []
    band = max(2, bandwidth_rows)
    for i in range(n):
        d = int(deg[i])
        n_band = int(round(d * band_fraction))
        lo = max(0, i - band)
        hi = min(n, i + band + 1)
        near = rng.integers(lo, hi, size=n_band)
        far = rng.integers(0, n, size=d - n_band)
        cols = np.unique(np.concatenate([near, far, [i]]))
        rows_out.append(np.full(cols.shape[0], i, dtype=np.int64))
        cols_out.append(cols)

    rows = np.concatenate(rows_out)
    cols = np.concatenate(cols_out)
    vals = rng.uniform(0.01, 1.0, size=rows.shape[0])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return mat


def _row_of(mat):
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def _same(a, b) -> bool:
    return (a.shape == b.shape
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("indptr", "indices", "data")))


class TestSpecification:
    """The one-call draw equals the per-row loop, value for value."""

    @pytest.mark.parametrize("seed", [1, 7, 9173])
    @pytest.mark.parametrize("scale", ["smoke", "ci"])
    def test_scaled_matches_per_row_loop(self, scale, seed, monkeypatch):
        mat = SPMV_SPEC.prepare(get_scale(scale), seed)
        monkeypatch.setattr(cage_mod, "cage_like", _cage_like_per_row)
        spec = SPMV_SPEC.prepare(get_scale(scale), seed)
        assert isinstance(mat, CsrMatrix) and sp.issparse(spec)
        assert _same(mat, spec)

    def test_cage10_matches_per_row_loop(self):
        assert _same(cage10_like(seed=7),
                     _cage_like_per_row(CAGE10_STATS, seed=7))

    def test_dtypes(self):
        mat = scaled_cage_like(384, seed=7)
        assert mat.indptr.dtype == mat.indices.dtype == np.int64
        assert mat.data.dtype == np.float64


class TestCage10Like:
    @pytest.fixture(scope="class")
    def mat(self):
        return cage10_like(seed=7)

    def test_shape_matches_cage10(self, mat):
        assert mat.shape == (CAGE10_STATS.n, CAGE10_STATS.n)

    def test_nnz_close_to_cage10(self, mat):
        # unique-filtering may drop a few duplicates; stay within 2%
        assert abs(mat.nnz - CAGE10_STATS.nnz) / CAGE10_STATS.nnz < 0.02

    def test_row_degree_range(self, mat):
        degs = np.diff(mat.indptr)
        assert degs.min() >= 1
        assert degs.max() <= CAGE10_STATS.max_row + 1

    def test_avg_degree(self, mat):
        degs = np.diff(mat.indptr)
        assert degs.mean() == pytest.approx(CAGE10_STATS.avg_row, rel=0.05)

    def test_full_diagonal(self, mat):
        on_diag = mat.indices == _row_of(mat)
        assert on_diag.sum() == mat.shape[0]
        assert (mat.data[on_diag] != 0).all()

    def test_banded_structure_dominates(self, mat):
        near = np.abs(_row_of(mat) - mat.indices) <= 600
        assert near.mean() > 0.5

    def test_deterministic(self):
        assert _same(cage10_like(seed=7), cage10_like(seed=7))

    def test_seed_changes_matrix(self):
        a = cage10_like(seed=7)
        b = cage10_like(seed=8)
        assert not _same(a, b)

    def test_sorted_indices(self, mat):
        # strictly increasing (row, column) keys: sorted, no duplicates
        keys = _row_of(mat) * mat.shape[1] + mat.indices
        assert (np.diff(keys) > 0).all()


class TestScaled:
    def test_preserves_degree_profile(self):
        m = scaled_cage_like(1024, seed=7)
        degs = np.diff(m.indptr)
        assert degs.mean() == pytest.approx(CAGE10_STATS.avg_row, rel=0.1)

    def test_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            scaled_cage_like(16)


class TestCageLike:
    def test_custom_stats(self):
        stats = CageStats(n=500, nnz=5000, min_row=3, max_row=20)
        m = cage_like(stats, seed=1, bandwidth_rows=50)
        assert m.shape == (500, 500)
        assert abs(m.nnz - 5000) < 200

    def test_degenerate_rejected(self):
        with pytest.raises(WorkloadError):
            cage_like(CageStats(n=2, nnz=1, min_row=1, max_row=1))

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_band_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(WorkloadError):
            cage_like(CageStats(n=100, nnz=1000, min_row=3, max_row=20),
                      band_fraction=fraction)

    def test_is_csr(self):
        m = cage_like(CageStats(n=100, nnz=1000, min_row=3, max_row=20),
                      seed=1)
        assert isinstance(m, CsrMatrix)
        assert m.indptr.shape == (101,) and m.indptr[-1] == m.nnz


class TestCsrMatrix:
    """The NumPy CSR against scipy built from the same arrays."""

    @pytest.mark.parametrize("seed", [1, 7, 9173])
    def test_matvec_is_scipys(self, seed):
        mat = scaled_cage_like(1536, seed=seed)
        ref = sp.csr_matrix((mat.data, mat.indices, mat.indptr),
                            shape=mat.shape)
        x = np.linspace(0.5, 1.5, mat.shape[1])
        y = mat @ x
        assert y.dtype == np.float64
        assert y.tobytes() == (ref @ x).tobytes()

    def test_matvec_rejects_a_wrong_length(self):
        with pytest.raises(ValueError):
            scaled_cage_like(384, seed=7) @ np.ones(383)

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(WorkloadError):
            CsrMatrix(shape=(3, 3), indptr=np.array([0, 1, 2]),
                      indices=np.array([0, 1]), data=np.ones(2))
        with pytest.raises(WorkloadError):
            CsrMatrix(shape=(2, 2), indptr=np.array([0, 1, 3]),
                      indices=np.array([0, 1]), data=np.ones(2))
