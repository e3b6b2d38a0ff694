"""Unit tests for the R-MAT graph generator and CSR container."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.graphs import CsrGraph, rmat_graph
from tests.oracles import graph_to_networkx


class TestRmat:
    @pytest.fixture(scope="class")
    def g(self):
        return rmat_graph(2 ** 10, edge_factor=8, seed=11)

    def test_node_count(self, g):
        assert g.n == 1024

    def test_edge_count_near_target(self, g):
        # dedupe + self-loop removal shrinks it; symmetric doubles it
        assert 0.5 * 2 * 8 * 1024 < g.m <= 2 * 8 * 1024

    def test_csr_invariants(self, g):
        assert g.indptr[0] == 0
        assert (np.diff(g.indptr) >= 0).all()
        assert g.indptr[-1] == g.indices.shape[0]
        assert g.indices.min() >= 0 and g.indices.max() < g.n

    def test_sorted_and_deduped_rows(self, g):
        for u in range(0, g.n, 97):
            nbrs = g.neighbors(u)
            assert (np.diff(nbrs) > 0).all()  # strictly increasing

    def test_no_self_loops(self, g):
        src = np.repeat(np.arange(g.n), np.diff(g.indptr))
        assert (src != g.indices).all()

    def test_symmetric_by_default(self, g):
        # every edge exists in both directions
        for u in range(0, g.n, 131):
            for v in g.neighbors(u)[:5]:
                assert u in g.neighbors(int(v))

    def test_transpose_consistent(self, g):
        assert g.t_indices.shape[0] == g.m
        assert (g.in_degrees == g.out_degrees).all()  # symmetric graph

    def test_skewed_degrees(self, g):
        degs = g.out_degrees
        assert degs.max() > 4 * max(degs.mean(), 1)  # heavy tail

    def test_deterministic(self):
        a = rmat_graph(256, edge_factor=4, seed=3)
        b = rmat_graph(256, edge_factor=4, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_directed_mode(self):
        g = rmat_graph(256, edge_factor=4, seed=3, symmetric=False)
        assert not (g.in_degrees == g.out_degrees).all()

    def test_non_pow2_rejected(self):
        with pytest.raises(WorkloadError):
            rmat_graph(1000)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(WorkloadError):
            rmat_graph(256, a=0.5, b=0.4, c=0.2)


class TestCsrGraphValidation:
    def test_bad_indptr_shape(self):
        with pytest.raises(WorkloadError):
            CsrGraph(n=4, indptr=np.zeros(3, dtype=np.int64),
                     indices=np.empty(0, dtype=np.int64),
                     t_indptr=np.zeros(5, dtype=np.int64),
                     t_indices=np.empty(0, dtype=np.int64))

    def test_indptr_terminator_mismatch(self):
        with pytest.raises(WorkloadError):
            CsrGraph(n=2, indptr=np.array([0, 1, 5]),
                     indices=np.array([1]),
                     t_indptr=np.array([0, 0, 1]),
                     t_indices=np.array([0]))


class TestNetworkxBridge:
    def test_roundtrip_edges(self):
        g = rmat_graph(128, edge_factor=4, seed=5)
        G = graph_to_networkx(g)
        assert G.number_of_nodes() == g.n
        assert G.number_of_edges() == g.m
        u = int(np.argmax(g.out_degrees))
        assert sorted(G.successors(u)) == sorted(g.neighbors(u).tolist())


class TestGridGraph:
    def test_structure(self):
        from repro.workloads.graphs import grid_graph
        g = grid_graph(5)
        assert g.n == 25
        assert g.m == 2 * 2 * 5 * 4  # 40 undirected edges, both directions
        # corner has degree 2, interior degree 4
        assert g.out_degrees[0] == 2
        assert g.out_degrees[12] == 4

    def test_symmetric(self):
        from repro.workloads.graphs import grid_graph
        g = grid_graph(6)
        assert (g.in_degrees == g.out_degrees).all()

    def test_diameter_via_bfs(self):
        from repro.kernels.bfs import bfs_reference
        from repro.workloads.graphs import grid_graph
        side = 8
        g = grid_graph(side)
        levels = bfs_reference(g, source=0)
        assert levels.max() == 2 * (side - 1)  # Manhattan diameter
        assert (levels >= 0).all()             # fully connected

    def test_too_small_rejected(self):
        from repro.errors import WorkloadError
        from repro.workloads.graphs import grid_graph
        with pytest.raises(WorkloadError):
            grid_graph(1)

    def test_bfs_kernels_handle_high_diameter(self):
        """Many tiny frontiers: the worst case for per-level overheads."""
        from repro.kernels.bfs import bfs_reference, bfs_scalar, bfs_vector
        from repro.soc import FpgaSdv
        from repro.workloads.graphs import grid_graph
        g = grid_graph(12)
        ref = bfs_reference(g, source=0)
        for build in (bfs_scalar, bfs_vector):
            out, _ = FpgaSdv().run(lambda s, wl: build(s, wl, 0), g)
            assert np.array_equal(out.value, ref), build.__name__
