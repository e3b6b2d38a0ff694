"""Correctness + trace-shape tests for the BFS kernel."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.bfs import (
    bfs_reference,
    bfs_scalar,
    bfs_vector,
    default_source,
)
from repro.soc import FpgaSdv
from repro.trace.stats import summarize_trace
from repro.workloads.graphs import rmat_graph
from tests.oracles import graph_to_networkx


@pytest.fixture(scope="module")
def g():
    return rmat_graph(2 ** 9, edge_factor=4, seed=11)


@pytest.fixture(scope="module")
def ref(g):
    return bfs_reference(g)


class TestReference:
    def test_matches_networkx(self, g, ref):
        src = default_source(g)
        G = graph_to_networkx(g)
        nx_levels = nx.single_source_shortest_path_length(G, src)
        for v, d in nx_levels.items():
            assert ref[v] == d
        assert int((ref >= 0).sum()) == len(nx_levels)

    def test_source_is_level_zero(self, g, ref):
        assert ref[default_source(g)] == 0

    def test_default_source_has_max_degree(self, g):
        s = default_source(g)
        assert g.out_degrees[s] == g.out_degrees.max()


class TestScalar:
    def test_levels_match_reference(self, g, ref):
        out, _ = FpgaSdv().run(bfs_scalar, g)
        assert np.array_equal(out.value, ref)

    def test_explicit_source(self, g):
        src = int(np.argsort(g.out_degrees)[-2])
        out, _ = FpgaSdv().run(bfs_scalar, g, src)
        assert np.array_equal(out.value, bfs_reference(g, src))

    def test_trace_scalar_only(self, g):
        sess = FpgaSdv().session()
        bfs_scalar(sess, g)
        assert summarize_trace(sess.seal()).vector_instrs == 0


class TestVector:
    @pytest.mark.parametrize("vl", [8, 32, 128, 256])
    def test_levels_match_reference_at_all_vls(self, g, ref, vl):
        out, _ = FpgaSdv().configure(max_vl=vl).run(bfs_vector, g)
        assert np.array_equal(out.value, ref)

    def test_explicit_source(self, g):
        src = int(np.argsort(g.out_degrees)[-2])
        out, _ = FpgaSdv().run(bfs_vector, g, src)
        assert np.array_equal(out.value, bfs_reference(g, src))

    def test_uses_gathers_and_scatters(self, g):
        sess = FpgaSdv().session()
        bfs_vector(sess, g)
        stats = summarize_trace(sess.seal())
        assert stats.by_opclass.get("mem", 0) > 0
        assert stats.by_opclass.get("permute", 0) > 0  # vcompress rebuild
        assert stats.by_opclass.get("mask", 0) > 0

    def test_level_count_in_meta(self, g, ref):
        out, _ = FpgaSdv().run(bfs_vector, g)
        assert out.meta["levels"] == ref.max() + 1

    def test_isolated_source(self):
        g2 = rmat_graph(64, edge_factor=2, seed=5)
        isolated = int(np.flatnonzero(g2.out_degrees == 0)[0])
        out, _ = FpgaSdv().run(bfs_vector, g2, isolated)
        expected = np.full(64, -1, dtype=np.int64)
        expected[isolated] = 0
        assert np.array_equal(out.value, expected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([8, 64]))
    def test_property_random_graphs(self, seed, vl):
        g2 = rmat_graph(128, edge_factor=3, seed=seed)
        ref2 = bfs_reference(g2)
        out, _ = FpgaSdv().configure(max_vl=vl).run(bfs_vector, g2)
        assert np.array_equal(out.value, ref2)


class TestPerformanceShape:
    def test_time_decreases_with_vl(self, g):
        times = []
        for vl in (8, 256):
            _, r = FpgaSdv().configure(max_vl=vl).run(bfs_vector, g)
            times.append(r.cycles)
        assert times[1] < times[0]

    def test_scalar_degrades_more_with_latency(self, g):
        def slowdown(build, vl=None):
            sdv = FpgaSdv()
            if vl:
                sdv.configure(max_vl=vl)
            sess = sdv.session()
            build(sess, g)
            tr = sess.seal()
            t0 = sdv.time(tr).cycles
            sdv.configure(extra_latency=1024)
            return sdv.time(tr).cycles / t0

        assert slowdown(bfs_vector, vl=256) < slowdown(bfs_scalar)
