"""Validate the columnar scalar-trace assembly against a straightforward
interpreter.

The scalar kernels build their address streams with vectorized position
arithmetic (offsets, cumsums, interleaves) for speed; these tests rebuild
the same streams one access at a time with the ScalarContext interpreter
and require byte-identical address/write sequences. Any off-by-one in the
columnar assembly shows up here immediately.
"""

import numpy as np

from repro.isa.scalar_ctx import ScalarContext
from repro.kernels.spmv.scalar import spmv_scalar
from repro.kernels.pagerank.scalar import pagerank_scalar
from repro.memory.address_space import MemoryImage
from repro.soc import FpgaSdv
from repro.trace.events import ScalarBlock, TraceBuffer
from repro.workloads.cage import scaled_cage_like
from repro.workloads.graphs import rmat_graph


def scalar_blocks(trace):
    return [r for r in trace if isinstance(r, ScalarBlock)]


class TestSpmvStream:
    def test_columnar_matches_interpreter(self):
        mat = scaled_cage_like(96, seed=7)
        n, nnz = mat.shape[0], mat.nnz

        # columnar (the production path)
        sess = FpgaSdv().session()
        spmv_scalar(sess, mat)
        columnar = scalar_blocks(sess.seal())[0]

        # interpreter: replay the loop using the *same* allocation layout
        mem = MemoryImage(1 << 22)
        trace = TraceBuffer()
        scl = ScalarContext(mem, trace)
        a_indptr = mem.alloc("spmv.indptr", np.asarray(mat.indptr,
                                                       dtype=np.int64))
        a_indices = mem.alloc("spmv.indices", np.asarray(mat.indices,
                                                         dtype=np.int64))
        a_vals = mem.alloc("spmv.vals", np.asarray(mat.data,
                                                   dtype=np.float64))
        a_x = mem.alloc("spmv.x", np.linspace(0.5, 1.5, n))
        a_y = mem.alloc("spmv.y", n, np.float64)
        for i in range(n):
            hi = scl.load_i64(a_indptr, i + 1)
            lo = int(mat.indptr[i])
            acc = 0.0
            for k in range(lo, hi):
                col = scl.load_i64(a_indices, k)
                v = scl.load_f64(a_vals, k)
                acc += v * scl.load_f64(a_x, col)
            scl.store_f64(a_y, i, acc)
        scl.flush()
        interp = scalar_blocks(trace.seal())[0]

        assert np.array_equal(columnar.mem_addrs, interp.mem_addrs)
        assert np.array_equal(columnar.mem_is_write, interp.mem_is_write)

    def test_stream_length_formula(self):
        mat = scaled_cage_like(128, seed=3)
        sess = FpgaSdv().session()
        spmv_scalar(sess, mat)
        blk = scalar_blocks(sess.seal())[0]
        assert blk.n_mem_ops == 3 * mat.nnz + 2 * mat.shape[0]


class TestPagerankStreams:
    def test_accumulate_pass_matches_interpreter(self):
        g = rmat_graph(64, edge_factor=3, seed=5)
        n = g.n

        sess = FpgaSdv().session()
        pagerank_scalar(sess, g, iters=1)
        blocks = scalar_blocks(sess.seal())
        columnar = next(b for b in blocks if b.label == "pr-accumulate")

        mem = MemoryImage(1 << 22)
        trace = TraceBuffer()
        scl = ScalarContext(mem, trace)
        a_tptr = mem.alloc("pr.t_indptr", g.t_indptr)
        a_tidx = mem.alloc("pr.t_indices", g.t_indices)
        mem.alloc("pr.outdeg", g.out_degrees.astype(np.float64))
        mem.alloc("pr.r", np.full(n, 1.0 / n))
        a_rnorm = mem.alloc("pr.rnorm", n, np.float64)
        a_y = mem.alloc("pr.y", n, np.float64)
        for i in range(n):
            hi = scl.load_i64(a_tptr, i + 1)
            for k in range(int(g.t_indptr[i]), hi):
                src = scl.load_i64(a_tidx, k)
                scl.load_f64(a_rnorm, src)
            scl.store_f64(a_y, i, 0.0)
        scl.flush()
        interp = scalar_blocks(trace.seal())[0]

        assert np.array_equal(columnar.mem_addrs, interp.mem_addrs)
        assert np.array_equal(columnar.mem_is_write, interp.mem_is_write)

    def test_pass_structure_per_iteration(self):
        g = rmat_graph(64, edge_factor=3, seed=5)
        sess = FpgaSdv().session()
        pagerank_scalar(sess, g, iters=2)
        labels = [b.label for b in scalar_blocks(sess.seal())]
        assert labels == ["pr-normalize", "pr-accumulate", "pr-damping"] * 2


class TestBfsStream:
    def test_level_blocks_cover_all_edges(self):
        from repro.kernels.bfs.scalar import bfs_scalar
        from repro.kernels.bfs.reference import bfs_reference, default_source
        g = rmat_graph(128, edge_factor=4, seed=9)
        sess = FpgaSdv().session()
        bfs_scalar(sess, g)
        blocks = scalar_blocks(sess.seal())
        levels = bfs_reference(g)
        # frontier nodes across all levels
        reached = int((levels >= 0).sum())
        # per node: 3 header loads; per traversed edge: 2 loads (+2 on
        # discovery); discoveries = reached-1
        total_mem = sum(b.n_mem_ops for b in blocks)
        src = default_source(g)
        traversed = int(g.out_degrees[levels >= 0].sum())
        expected = 3 * reached + 2 * traversed + 2 * (reached - 1)
        # the last frontier's nodes are enqueued but the loop ends when no
        # new nodes appear, so their header loads still occur
        assert total_mem == expected
