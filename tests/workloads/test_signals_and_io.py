"""Unit tests for signal generation, MatrixMarket IO, and scale presets."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import WorkloadError
from repro.workloads.cage import scaled_cage_like
from repro.workloads.csr import CsrMatrix
from repro.workloads.mm_io import read_matrix_market, write_matrix_market
from repro.workloads.scales import get_scale
from repro.workloads.signals import make_signal


class TestSignals:
    def test_tones_shape_and_dtype(self):
        re, im = make_signal(256, kind="tones", seed=3)
        assert re.shape == im.shape == (256,)
        assert re.dtype == im.dtype == np.float64

    def test_tones_have_expected_peaks(self):
        re, im = make_signal(2048, kind="tones", seed=3)
        spec = np.abs(np.fft.fft(re + 1j * im))
        peaks = set(np.argsort(spec)[-3:])
        assert {5, 37, 2048 - 101} == peaks

    def test_impulse_spectrum_flat(self):
        re, im = make_signal(64, kind="impulse")
        spec = np.fft.fft(re + 1j * im)
        assert np.allclose(spec, 1.0)

    def test_noise_deterministic(self):
        a = make_signal(128, kind="noise", seed=9)
        b = make_signal(128, kind="noise", seed=9)
        assert np.array_equal(a[0], b[0])

    def test_non_pow2_rejected(self):
        with pytest.raises(WorkloadError):
            make_signal(100)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            make_signal(64, kind="square")


def _scipy_csr(rows, cols, vals, shape):
    """scipy's CSR of the same coordinate data (duplicates summed)."""
    return sp.csr_matrix((np.asarray(vals, dtype=np.float64),
                          (np.asarray(rows), np.asarray(cols))), shape=shape)


def _assert_same(mat, ref):
    assert isinstance(mat, CsrMatrix)
    assert mat.shape == ref.shape and mat.nnz == ref.nnz
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert mat.data.tobytes() == ref.data.tobytes()


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.random((10, 10))
        dense[dense < 0.7] = 0
        mat = sp.csr_matrix(dense)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, mat, comment="test matrix")
        _assert_same(read_matrix_market(path), mat)

    def test_roundtrip_of_the_numpy_type(self, tmp_path):
        mat = scaled_cage_like(256, seed=5)
        path = tmp_path / "cage.mtx"
        write_matrix_market(path, mat)
        _assert_same(read_matrix_market(path), sp.csr_matrix(
            (mat.data, mat.indices, mat.indptr), shape=mat.shape))

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 6\n1 1 0.1\n3 2 4.0\n1 1 0.2\n2 3 -1.5\n1 1 0.3\n"
            "3 2 0.5\n"
        )
        m = read_matrix_market(path)
        # summed in file order: (0.1 + 0.2) + 0.3
        _assert_same(m, _scipy_csr([0, 2, 0, 1, 0, 2], [0, 1, 0, 2, 0, 1],
                                   [0.1, 4.0, 0.2, -1.5, 0.3, 0.5], (3, 3)))
        assert m.nnz == 3 and m.data[0] == (0.1 + 0.2) + 0.3

    def test_random_coordinates_match_scipy(self, tmp_path):
        # unsorted, with repeated entries
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 20, 300)
        cols = rng.integers(0, 30, 300)
        vals = rng.uniform(-1.0, 1.0, 300)
        path = tmp_path / "r.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n20 30 300\n"
            + "".join(f"{r + 1} {c + 1} {v:.17g}\n"
                      for r, c, v in zip(rows, cols, vals)))
        _assert_same(read_matrix_market(path),
                     _scipy_csr(rows, cols, vals, (20, 30)))

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        m = read_matrix_market(path)
        _assert_same(m, _scipy_csr([0, 1], [0, 1], [1.0, 1.0], (2, 2)))

    def test_symmetric_mirrored(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n2 1 5.0\n3 3 1.0\n"
        )
        m = read_matrix_market(path)
        # the diagonal entry is not duplicated
        _assert_same(m, _scipy_csr([1, 0, 2], [0, 1, 2], [5.0, 5.0, 1.0],
                                   (3, 3)))
        assert m.nnz == 3

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n"
            "1 1 1\n1 1 2.5\n"
        )
        _assert_same(read_matrix_market(path),
                     _scipy_csr([0], [0], [2.5], (1, 1)))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not matrixmarket\n1 1 1\n")
        with pytest.raises(WorkloadError):
            read_matrix_market(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(WorkloadError):
            read_matrix_market(path)

    def test_out_of_bounds_rejected(self, tmp_path):
        path = tmp_path / "o.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n"
        )
        with pytest.raises(WorkloadError):
            read_matrix_market(path)


class TestScales:
    def test_paper_scale_matches_section_31(self):
        s = get_scale("paper")
        assert s.spmv_n is None            # exact cage10 statistics
        assert s.graph_nodes == 2 ** 15    # "2^15 nodes"
        assert s.fft_n == 2048             # "FFT size of 2048 elements"

    def test_ci_smaller_than_paper(self):
        paper, ci = get_scale("paper"), get_scale("ci")
        assert ci.graph_nodes < paper.graph_nodes
        assert ci.fft_n < paper.fft_n

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            get_scale("huge")
