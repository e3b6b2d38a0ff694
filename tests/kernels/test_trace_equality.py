"""Equality grid: the two trace-generation paths are bit-identical.

The strip-mine templates exist purely for speed; correctness is defined
by the loops, the kernels' per-iteration code written against the ISA
contexts, which runs with templating off. For every kernel × VL this grid
regenerates the trace on both paths and checks that each satisfies the
trace format (``TraceColumns.problems() == []``), that the sealed column
sets match bit for bit, that both engines and both their specifications
report identical cycles, and that the attribution buckets agree exactly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.sweeps import run_implementation
from repro.engine import ENGINES, simulate_events, simulate_fast
from repro.kernels import KERNELS
from repro.kernels.spmv.formats import build_sell
from repro.memory.classify import classify_trace
from repro.obs import attribute
from repro.soc.sdv import FpgaSdv
from repro.trace import modes
from repro.workloads import get_scale
from repro.workloads.graphs import CsrGraph

# opcode_id/label_id are compared decoded: the templated emitters intern
# their opcodes up front (closure setup), so table *order* may differ
# between paths while every record still carries the same string
_COLS = ("kind", "n_alu", "mlp", "mem_bytes", "vl", "active", "opclass",
         "pattern", "is_write", "masked", "dep", "scalar_dest",
         "addr_off", "addrs", "writes")


def _generate(spec, workload, vl, *, templated):
    with modes.templating(templated):
        return run_implementation(spec, workload, vl, verify=False)


def _assert_same_trace(templated, loops):
    """Both traces are well formed and equal column for column."""
    assert templated.cols.problems() == []
    assert loops.cols.problems() == []
    ct, cl = templated.cols, loops.cols
    for col in _COLS:
        np.testing.assert_array_equal(getattr(ct, col), getattr(cl, col),
                                      err_msg=f"column {col}")
    for col in ("opcode_id", "label_id"):
        np.testing.assert_array_equal(
            np.array(ct.strings)[getattr(ct, col)],
            np.array(cl.strings)[getattr(cl, col)],
            err_msg=f"column {col} (decoded)")


@pytest.mark.parametrize("vl", [None, 8, 64],
                         ids=["scalar", "vl8", "vl64"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_generation_paths_bit_identical(name, vl):
    spec = KERNELS[name]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, templated = _generate(spec, workload, vl, templated=True)
    _, loops = _generate(spec, workload, vl, templated=False)
    _assert_same_trace(templated, loops)

    # identical traces must also time and attribute identically — this
    # pins the full path from the emitters through every engine and
    # every specification
    ct_t = classify_trace(templated, sdv.config)
    ct_l = classify_trace(loops, sdv.config)
    timings = sorted(ENGINES.items()) + [("fast", simulate_fast),
                                         ("event-ref", simulate_events)]
    for engine, fn in timings:
        assert fn(ct_t).cycles == fn(ct_l).cycles, engine
    at, al = attribute(ct_t), attribute(ct_l)
    assert at.total == al.total
    assert at.buckets == al.buckets


# ------------------------------------------- shapes the default inputs miss
#
# Every default graph has a power-of-two node count and every default
# matrix row is populated, so the grid above never reaches a scan or
# normalize/damping tail strip, a scan over fewer nodes than the VL, an
# empty SELL chunk or an edge-free frontier strip. These inputs do; the
# coverage test below pins that they keep doing so.

_ODD_NS = (37, 203, 517)      # none a multiple of 8; 37 < 64 < 256
_ODD_VLS = (8, 64, 256)


def _odd_graph(n: int, seed: int) -> CsrGraph:
    """Random digraph: a hub (the BFS source) with spokes both ways, a
    quarter of the nodes sinks (no out-edges), a fifth isolated."""
    rng = np.random.default_rng(seed)
    hub = int(rng.integers(0, n))
    spokes = rng.choice(n, size=n // 2, replace=False)
    src = np.concatenate([rng.integers(0, n, 2 * n), np.full_like(spokes, hub),
                          spokes])
    dst = np.concatenate([rng.integers(0, n, 2 * n), spokes,
                          np.full_like(spokes, hub)])
    others = np.setdiff1d(np.arange(n), [hub])
    sinks = rng.choice(others, size=n // 4, replace=False)
    isolated = rng.choice(np.setdiff1d(others, sinks), size=n // 5,
                          replace=False)
    keep = ((src != dst) & ~np.isin(src, sinks)
            & ~np.isin(src, isolated) & ~np.isin(dst, isolated))
    adj = sp.csr_matrix((np.ones(int(keep.sum())), (src[keep], dst[keep])),
                        shape=(n, n))
    adj.sum_duplicates()
    t = adj.T.tocsr()
    t.sum_duplicates()
    i64 = np.int64
    return CsrGraph(n=n, indptr=adj.indptr.astype(i64),
                    indices=adj.indices.astype(i64),
                    t_indptr=t.indptr.astype(i64),
                    t_indices=t.indices.astype(i64))


def _odd_matrix(n: int, seed: int) -> sp.csr_matrix:
    """Random sparse matrix: a third of the rows empty, a third with one
    entry, one dense hub row."""
    rng = np.random.default_rng(seed)
    lens = rng.choice([0, 1, 2, 3, 5], size=n, p=[0.35, 0.3, 0.15, 0.1, 0.1])
    lens[int(rng.integers(0, n))] = n // 2
    rows = np.repeat(np.arange(n), lens)
    cols = np.concatenate([rng.choice(n, size=k, replace=False)
                           for k in lens])
    return sp.csr_matrix((rng.uniform(-1.0, 1.0, rows.shape[0]),
                          (rows, cols)), shape=(n, n))


def _odd_workload(name: str, n: int):
    seed = 1000 + n
    if name == "spmv":
        return _odd_matrix(n, seed)
    if name == "pagerank":
        return {"graph": _odd_graph(n, seed), "iters": 2}
    return _odd_graph(n, seed)


def _vector_run(spec, workload, vl, *, templated):
    with modes.templating(templated):
        session = FpgaSdv().configure(max_vl=vl).session()
        out = spec.vector(session, workload)
        return out, session.seal()


@pytest.mark.parametrize("vl", _ODD_VLS)
@pytest.mark.parametrize("n", _ODD_NS)
@pytest.mark.parametrize("name", ["bfs", "pagerank", "spmv"])
def test_odd_shapes_templated_equals_object_path(name, n, vl):
    """The templated trace equals the loops' trace: the reference this
    test's name calls the object path, without its dataclass checks,
    which ``problems()`` states."""
    spec = KERNELS[name]
    workload = _odd_workload(name, n)
    out_t, templated = _vector_run(spec, workload, vl, templated=True)
    out_l, loops = _vector_run(spec, workload, vl, templated=False)
    _assert_same_trace(templated, loops)
    assert out_t.value.dtype == out_l.value.dtype
    assert out_t.value.tobytes() == out_l.value.tobytes()


def test_odd_shapes_reach_every_tail_and_edge_case():
    """The inputs above reach each shape the default workloads never do."""
    from repro.kernels.bfs.reference import bfs_reference, default_source
    from repro.kernels.bfs.vector import _bucket_by_degree
    from repro.kernels.pagerank.vector import SIGMA
    from repro.kernels.spmv.vector import DEFAULT_SIGMA

    seen = set()
    for n in _ODD_NS:
        mat = _odd_workload("spmv", n)
        g = _odd_workload("bfs", n)
        pattern = sp.csr_matrix((np.ones(g.t_indices.shape[0]), g.t_indices,
                                 g.t_indptr), shape=(n, n))
        levels = bfs_reference(g, default_source(g))
        for vl in _ODD_VLS:
            for sell in (build_sell(mat, chunk=vl, sigma=min(DEFAULT_SIGMA, n)),
                         build_sell(pattern, chunk=vl, sigma=min(SIGMA, n))):
                seen |= {f"width-{w} SELL chunk"
                         for w in (0, 1) if (sell.widths == w).any()}
            if n < vl:
                seen.add("scan over fewer nodes than the VL")
            if n % vl:
                seen.add("tail strip")
            for lvl in range(int(levels.max()) + 1):
                frontier = np.flatnonzero(levels == lvl)
                degs = g.indptr[frontier + 1] - g.indptr[frontier]
                order = _bucket_by_degree(frontier, degs)
                strip_degs = np.diff(g.indptr)[order]
                starts = np.arange(0, order.shape[0], vl)
                if (np.maximum.reduceat(strip_degs, starts) == 0).any():
                    seen.add("frontier strip with only degree-0 nodes")
                # nodes first visited at lvl+1, reached from >= 2 strips
                strip = np.repeat(np.arange(order.shape[0]) // vl,
                                  strip_degs)
                nbrs = g.indices[np.concatenate(
                    [np.arange(g.indptr[u], g.indptr[u + 1])
                     for u in order] or [np.empty(0, np.int64)])]
                new = levels[nbrs] == lvl + 1
                pairs = np.unique(np.stack([nbrs[new], strip[new]]), axis=1)
                if (np.bincount(pairs[0]) >= 2).any():
                    seen.add("node reached from two strips in one level")
                hit_strips = np.unique(np.flatnonzero(levels == lvl + 1) // vl)
                if hit_strips.shape[0] < -(-n // vl):
                    seen.add("scan strip with no hit")
    assert seen == {
        "width-0 SELL chunk", "width-1 SELL chunk",
        "scan over fewer nodes than the VL", "tail strip",
        "frontier strip with only degree-0 nodes",
        "node reached from two strips in one level",
        "scan strip with no hit",
    }
