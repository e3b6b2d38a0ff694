"""Correctness + trace-shape tests for the PageRank kernel."""

import networkx as nx
import numpy as np
import pytest

from repro.kernels.pagerank import (
    DAMPING,
    pagerank_reference,
    pagerank_scalar,
    pagerank_vector,
)
from repro.soc import FpgaSdv
from repro.trace.stats import summarize_trace
from repro.workloads.graphs import rmat_graph
from tests.oracles import graph_to_networkx


@pytest.fixture(scope="module")
def g():
    return rmat_graph(2 ** 9, edge_factor=4, seed=11)


@pytest.fixture(scope="module")
def ref2(g):
    return pagerank_reference(g, iters=2, damping=DAMPING)


class TestReference:
    def test_converges_to_networkx(self, g):
        r = pagerank_reference(g, iters=120, damping=DAMPING)
        G = graph_to_networkx(g)
        nxpr = nx.pagerank(G, alpha=DAMPING, max_iter=300, tol=1e-13)
        nxv = np.array([nxpr[i] for i in range(g.n)])
        assert np.abs(r - nxv).max() < 1e-9

    def test_mass_conserved(self, g):
        for iters in (1, 3, 10):
            r = pagerank_reference(g, iters=iters)
            assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_positive(self, g):
        assert (pagerank_reference(g, iters=3) > 0).all()


class TestScalar:
    def test_matches_reference(self, g, ref2):
        out, _ = FpgaSdv().run(
            lambda sess, wl: pagerank_scalar(sess, wl, iters=2), g)
        assert np.allclose(out.value, ref2, rtol=1e-12)

    def test_trace_scales_with_iterations(self, g):
        def mem_ops(iters):
            sess = FpgaSdv().session()
            pagerank_scalar(sess, g, iters=iters)
            return summarize_trace(sess.seal()).scalar_mem_ops

        assert mem_ops(4) == pytest.approx(2 * mem_ops(2), rel=0.01)


class TestVector:
    @pytest.mark.parametrize("vl", [8, 32, 128, 256])
    def test_matches_reference_at_all_vls(self, g, ref2, vl):
        sdv = FpgaSdv().configure(max_vl=vl)
        out, _ = sdv.run(lambda sess, wl: pagerank_vector(sess, wl, iters=2),
                         g)
        assert np.allclose(out.value, ref2, rtol=1e-10, atol=1e-14)

    def test_computed_through_isa_not_reference(self, g):
        """The vector kernel must produce its result via simulated memory."""
        sdv = FpgaSdv().configure(max_vl=64)
        sess = sdv.session()
        out = pagerank_vector(sess, g, iters=1)
        # r after one iteration from uniform start differs from the start
        assert not np.allclose(out.value, np.full(g.n, 1.0 / g.n))

    def test_dangling_mass_redistributed(self):
        g2 = rmat_graph(128, edge_factor=2, seed=3, symmetric=False)
        assert (g2.out_degrees == 0).any(), "fixture needs dangling nodes"
        ref = pagerank_reference(g2, iters=3)
        out, _ = FpgaSdv().run(
            lambda sess, wl: pagerank_vector(sess, wl, iters=3), g2)
        assert np.allclose(out.value, ref, rtol=1e-10)
        assert out.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uses_fp_heavy_ops(self, g):
        sess = FpgaSdv().session()
        pagerank_vector(sess, g, iters=1)
        stats = summarize_trace(sess.seal())
        assert stats.by_opclass.get("heavy", 0) > 0  # the vfdiv normalize
        assert stats.by_opclass.get("reduce", 0) >= 1  # dangling mass


class TestPerformanceShape:
    def test_vector_beats_scalar_at_vl256(self, g):
        _, rs = FpgaSdv().run(
            lambda sess, wl: pagerank_scalar(sess, wl, iters=2), g)
        _, rv = FpgaSdv().configure(max_vl=256).run(
            lambda sess, wl: pagerank_vector(sess, wl, iters=2), g)
        assert rv.cycles < rs.cycles

    def test_pr_more_fp_work_than_bfs(self, g):
        """Paper: 'PR presents slightly more computational intensity'."""
        from repro.kernels.bfs import bfs_vector
        s1 = FpgaSdv().session()
        pagerank_vector(s1, g, iters=1)
        pr_stats = summarize_trace(s1.seal())
        s2 = FpgaSdv().session()
        bfs_vector(s2, g)
        bfs_stats = summarize_trace(s2.seal())
        pr_fp = pr_stats.by_opclass.get("arith", 0) + \
            pr_stats.by_opclass.get("heavy", 0)
        bfs_fp = bfs_stats.by_opclass.get("heavy", 0)
        assert pr_fp > bfs_fp
