"""Correctness + trace-shape tests for the SpMV kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.sparse as sp

from repro.kernels.spmv import SPMV_SPEC, build_sell, sell_to_dense, \
    spmv_scalar, spmv_vector
from repro.soc import FpgaSdv
from repro.trace.stats import summarize_trace
from repro.workloads.cage import scaled_cage_like


@pytest.fixture(scope="module")
def mat():
    return scaled_cage_like(384, seed=7)


@pytest.fixture(scope="module")
def ref(mat):
    return mat @ np.linspace(0.5, 1.5, mat.shape[0])


class TestScalarCorrectness:
    def test_matches_scipy(self, mat, ref):
        out, _ = FpgaSdv().run(spmv_scalar, mat)
        assert np.allclose(out.value, ref, rtol=1e-12)

    def test_custom_x(self, mat):
        x = np.random.default_rng(0).random(mat.shape[0])
        out, _ = FpgaSdv().run(spmv_scalar, mat, x)
        assert np.allclose(out.value, mat @ x, rtol=1e-12)

    def test_trace_is_scalar_only(self, mat):
        sdv = FpgaSdv()
        sess = sdv.session()
        spmv_scalar(sess, mat)
        stats = summarize_trace(sess.seal())
        assert stats.vector_instrs == 0
        assert stats.scalar_mem_ops == 3 * mat.nnz + 2 * mat.shape[0]


class TestVectorCorrectness:
    @pytest.mark.parametrize("vl", [8, 16, 32, 64, 128, 256])
    def test_matches_scipy_at_all_vls(self, mat, ref, vl):
        sdv = FpgaSdv().configure(max_vl=vl)
        out, _ = sdv.run(spmv_vector, mat)
        assert np.allclose(out.value, ref, rtol=1e-12)

    def test_avg_vl_tracks_machine_vl(self, mat):
        for vl in (8, 64):
            sdv = FpgaSdv().configure(max_vl=vl)
            sess = sdv.session()
            spmv_vector(sess, mat)
            stats = summarize_trace(sess.seal())
            assert stats.avg_vl <= vl
            assert stats.avg_vl > vl * 0.5

    def test_identity_matrix(self):
        n = 64
        eye = sp.identity(n, format="csr")
        x = np.arange(n, dtype=np.float64)
        out, _ = FpgaSdv().run(spmv_vector, eye, x)
        assert np.allclose(out.value, x)

    def test_empty_rows_handled(self):
        m = sp.csr_matrix((np.array([1.0]), (np.array([2]), np.array([3]))),
                          shape=(8, 8))
        x = np.ones(8)
        out, _ = FpgaSdv().configure(max_vl=8).run(spmv_vector, m, x)
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(out.value, expected)

    def test_spec_check_passes(self, mat):
        wl = mat
        ref_ = SPMV_SPEC.reference(wl)
        sdv = FpgaSdv()
        out = SPMV_SPEC.vector(sdv.session(), wl)
        assert SPMV_SPEC.check(out, ref_)


class TestSellFormat:
    def test_reconstruction(self, mat):
        small = scaled_cage_like(128, seed=3)
        sell = build_sell(small, chunk=16, sigma=64)
        dense = sp.csr_matrix((small.data, small.indices, small.indptr),
                              shape=small.shape).toarray()
        assert np.allclose(sell_to_dense(sell), dense)

    def test_compact_has_no_padding(self, mat):
        sell = build_sell(mat, chunk=64, sigma=mat.shape[0], compact=True)
        assert sell.padding_overhead == 1.0
        assert sell.padded_nnz == mat.nnz

    def test_padded_layout_overhead_bounded_with_sigma_sort(self, mat):
        sell = build_sell(mat, chunk=64, sigma=mat.shape[0], compact=False)
        assert 1.0 <= sell.padding_overhead < 1.6

    def test_sigma_sort_reduces_padding(self, mat):
        unsorted = build_sell(mat, chunk=64, sigma=64, compact=False)
        globally = build_sell(mat, chunk=64, sigma=mat.shape[0],
                              compact=False)
        assert globally.padded_nnz <= unsorted.padded_nnz

    def test_padded_layout_spmv_matches_scipy(self, mat, ref):
        from repro.kernels.spmv import spmv_vector as sv
        sdv = FpgaSdv().configure(max_vl=64)
        out, _ = sdv.run(lambda sess, m: sv(sess, m, compact=False), mat)
        assert np.allclose(out.value, ref, rtol=1e-12)

    def test_compact_faster_than_padded_on_skewed_input(self):
        """The jagged layout is the right call for power-law structure."""
        import scipy.sparse as sp
        from repro.workloads.graphs import rmat_graph
        g = rmat_graph(2 ** 10, edge_factor=8, seed=3)
        m = sp.csr_matrix(
            (np.ones(g.indices.shape[0]), g.indices, g.indptr),
            shape=(g.n, g.n),
        )
        from repro.kernels.spmv import spmv_vector as sv
        _, r_c = FpgaSdv().configure(max_vl=256).run(
            lambda sess, mm: sv(sess, mm, compact=True), m)
        _, r_p = FpgaSdv().configure(max_vl=256).run(
            lambda sess, mm: sv(sess, mm, compact=False), m)
        assert r_c.cycles < r_p.cycles

    def test_perm_is_permutation(self, mat):
        sell = build_sell(mat, chunk=32, sigma=128)
        assert sorted(sell.perm.tolist()) == list(range(mat.shape[0]))

    def test_rowlen_descending_within_sigma_window(self, mat):
        sigma = 128
        sell = build_sell(mat, chunk=32, sigma=sigma)
        for w0 in range(0, mat.shape[0], sigma):
            w = sell.rowlen[w0: w0 + sigma]
            assert (np.diff(w) <= 0).all()

    def test_chunk_ptr_consistent_compact(self, mat):
        sell = build_sell(mat, chunk=32, sigma=128, compact=True)
        assert sell.chunk_ptr[-1] == sell.vals.shape[0] == mat.nnz
        assert (np.diff(sell.slot_off) >= 0).all()
        assert (np.diff(sell.slot_off) <= 32).all()

    def test_chunk_ptr_consistent_padded(self, mat):
        sell = build_sell(mat, chunk=32, sigma=128, compact=False)
        assert sell.chunk_ptr[-1] == sell.vals.shape[0]
        assert (np.diff(sell.chunk_ptr) == sell.widths * 32).all()

    def test_slot_counts_non_increasing_within_chunk(self, mat):
        sell = build_sell(mat, chunk=32, sigma=128, compact=True)
        for c in range(sell.n_chunks):
            cnts = [sell.slot_count(c, j) for j in range(int(sell.widths[c]))]
            assert all(a >= b for a, b in zip(cnts, cnts[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([8, 16, 64]))
    def test_property_sell_spmv_matches_scipy(self, seed, chunk):
        rng = np.random.default_rng(seed)
        n = 48
        dense = rng.random((n, n))
        dense[dense < 0.8] = 0.0
        m = sp.csr_matrix(dense)
        if m.nnz == 0:
            return
        x = rng.random(n)
        sdv = FpgaSdv().configure(max_vl=chunk)
        out, _ = sdv.run(spmv_vector, m, x)
        assert np.allclose(out.value, m @ x, rtol=1e-10, atol=1e-12)


class TestPerformanceShape:
    def test_vector_beats_scalar_at_vl256(self, mat):
        _, rs = FpgaSdv().run(spmv_scalar, mat)
        _, rv = FpgaSdv().configure(max_vl=256).run(spmv_vector, mat)
        assert rv.cycles < rs.cycles

    def test_time_decreases_with_vl(self, mat):
        times = []
        for vl in (8, 64, 256):
            _, r = FpgaSdv().configure(max_vl=vl).run(spmv_vector, mat)
            times.append(r.cycles)
        assert times[0] > times[1] > times[2]
