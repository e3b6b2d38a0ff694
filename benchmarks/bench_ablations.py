"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's figures, these quantify how much each modeled mechanism
contributes — useful both as regression anchors for the simulator and as
the "why does the machine behave like this" companion to Figure 3/4:

* VPU lane count (8 in the paper; 4 and 16 for contrast),
* decoupled memory-queue depth (latency tolerance across instructions),
* line-MSHR pool size (sustained DRAM parallelism, the residual VL=256
  latency sensitivity),
* gather coalescing on/off,
* chaining on/off,
* out-of-order vs strict in-order memory issue,
* compact (jagged) vs padded SELL slots on a power-law input.
"""

import dataclasses

import numpy as np
import pytest

from conftest import write_result
from repro.config import SdvConfig, VpuConfig
from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS
from repro.util.tables import TextTable


def _time(spec, workload, *, vl=256, config=None, extra_latency=0):
    sdv, trace = run_implementation(spec, workload, vl, config=config,
                                    verify=False)
    if extra_latency:
        sdv.configure(extra_latency=extra_latency)
    return sdv.time(trace).cycles


def test_ablation_lanes(workloads, benchmark):
    """More lanes shorten arithmetic occupancy (FFT is compute-rich)."""
    spec, wl = KERNELS["fft"], workloads["fft"]
    rows = []
    times = {}
    for lanes in (4, 8, 16):
        cfg = SdvConfig(vpu=VpuConfig(lanes=lanes)).validate()
        times[lanes] = _time(spec, wl, config=cfg)
        rows.append((lanes, times[lanes]))
    t = TextTable(["lanes", "kcycles"])
    for lanes, cyc in rows:
        t.add_row([lanes, f"{cyc / 1e3:.1f}"])
    write_result("ablation_lanes", "FFT vl256 vs lane count\n" + t.render())
    assert times[16] < times[4]
    benchmark(lambda: _time(spec, wl))


def test_ablation_queue_depth(workloads, benchmark):
    """A deeper decoupled queue buys latency tolerance at short VL."""
    spec, wl = KERNELS["spmv"], workloads["spmv"]
    times = {}
    for depth in (1, 4, 32):
        cfg = SdvConfig(vpu=VpuConfig(mem_queue_depth=depth)).validate()
        times[depth] = _time(spec, wl, vl=8, config=cfg, extra_latency=1024)
    t = TextTable(["queue depth", "kcycles @ +1024"])
    for d in (1, 4, 32):
        t.add_row([d, f"{times[d] / 1e3:.1f}"])
    write_result("ablation_queue",
                 "SpMV vl8 +1024 vs memory-queue depth\n" + t.render())
    assert times[32] < times[4] < times[1]
    benchmark(lambda: _time(spec, wl, vl=8, extra_latency=1024))


def test_ablation_line_mshrs(workloads, benchmark):
    """The line-MSHR pool bounds VL=256's residual latency sensitivity."""
    spec, wl = KERNELS["spmv"], workloads["spmv"]
    slow = {}
    for mshrs in (32, 128, 512):
        cfg = SdvConfig(vpu=VpuConfig(line_mshrs=mshrs)).validate()
        base = _time(spec, wl, config=cfg)
        plus = _time(spec, wl, config=cfg, extra_latency=1024)
        slow[mshrs] = plus / base
    t = TextTable(["line MSHRs", "vl256 slowdown @ +1024"])
    for m in (32, 128, 512):
        t.add_row([m, f"{slow[m]:.2f}x"])
    write_result("ablation_mshrs",
                 "SpMV vl256 slowdown vs line-MSHR pool\n" + t.render())
    assert slow[512] < slow[128] < slow[32]
    benchmark(lambda: _time(spec, wl, extra_latency=1024))


def test_ablation_gather_coalescing(workloads, benchmark):
    """Coalescing same-line gather elements saves DRAM transactions."""
    spec, wl = KERNELS["spmv"], workloads["spmv"]
    on = SdvConfig(vpu=VpuConfig(coalesce_gathers=True)).validate()
    off = SdvConfig(vpu=VpuConfig(coalesce_gathers=False)).validate()
    t_on = _time(spec, wl, config=on)
    t_off = _time(spec, wl, config=off)
    write_result("ablation_coalescing",
                 f"SpMV vl256: coalescing on {t_on / 1e3:.1f}k vs "
                 f"off {t_off / 1e3:.1f}k cycles")
    assert t_on <= t_off
    benchmark(lambda: _time(spec, wl, config=on))


def test_ablation_chaining(workloads, benchmark):
    """Chaining lets dependent ops start before producers complete."""
    spec, wl = KERNELS["fft"], workloads["fft"]
    on = SdvConfig(vpu=VpuConfig(chaining=True)).validate()
    off = SdvConfig(vpu=VpuConfig(chaining=False)).validate()
    t_on = _time(spec, wl, config=on)
    t_off = _time(spec, wl, config=off)
    write_result("ablation_chaining",
                 f"FFT vl256: chaining on {t_on / 1e3:.1f}k vs "
                 f"off {t_off / 1e3:.1f}k cycles")
    assert t_on < t_off
    benchmark(lambda: _time(spec, wl, config=on))


def test_ablation_ooo_mem_issue(workloads, benchmark):
    """OoO memory issue keeps independent loads flowing past a stalled
    gather — essential at short VL."""
    spec, wl = KERNELS["spmv"], workloads["spmv"]
    ooo = SdvConfig(vpu=VpuConfig(ooo_mem_issue=True)).validate()
    ino = SdvConfig(vpu=VpuConfig(ooo_mem_issue=False)).validate()
    t_ooo = _time(spec, wl, vl=8, config=ooo)
    t_ino = _time(spec, wl, vl=8, config=ino)
    write_result("ablation_ooo",
                 f"SpMV vl8: OoO issue {t_ooo / 1e3:.1f}k vs "
                 f"in-order {t_ino / 1e3:.1f}k cycles")
    assert t_ooo < t_ino
    benchmark(lambda: _time(spec, wl, vl=8, config=ooo))


def test_ablation_sell_compact_vs_padded(benchmark):
    """Compact (jagged) slots vs padded ELLPACK on a power-law matrix."""
    from repro.kernels.spmv import spmv_vector
    from repro.soc import FpgaSdv
    from repro.workloads.csr import CsrMatrix
    from repro.workloads.graphs import rmat_graph

    g = rmat_graph(2 ** 11, edge_factor=8, seed=3)
    mat = CsrMatrix(shape=(g.n, g.n), indptr=g.indptr, indices=g.indices,
                    data=np.ones(g.indices.shape[0]))
    out = {}
    for compact in (True, False):
        sdv = FpgaSdv().configure(max_vl=256)
        res, report = sdv.run(
            lambda sess, m: spmv_vector(sess, m, compact=compact), mat)
        out[compact] = (report.cycles, res.meta["padding_overhead"])
    write_result(
        "ablation_sell_layout",
        "SpMV vl256 on an R-MAT matrix (power-law rows)\n"
        f"compact: {out[True][0] / 1e3:.1f}k cycles "
        f"(padding {out[True][1]:.2f}x)\n"
        f"padded : {out[False][0] / 1e3:.1f}k cycles "
        f"(padding {out[False][1]:.2f}x)",
    )
    assert out[True][0] < out[False][0]
    assert out[True][1] == pytest.approx(1.0)

    sdv = FpgaSdv().configure(max_vl=256)
    sess = sdv.session()
    spmv_vector(sess, mat)
    trace = sess.seal()
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))


def test_ablation_fft_layout(workloads, benchmark):
    """SoA vs interleaved-AoS complex layout: segment accesses keep the
    cost of the interleaved layout near the SoA baseline."""
    from repro.kernels.fft import fft_vector, fft_vector_aos
    from repro.soc import FpgaSdv

    sig = workloads["fft"]
    _, soa = FpgaSdv().run(fft_vector, sig)
    _, aos = FpgaSdv().run(fft_vector_aos, sig)
    write_result(
        "ablation_fft_layout",
        f"FFT vl256: SoA {soa.cycles / 1e3:.1f}k vs "
        f"AoS+vlseg {aos.cycles / 1e3:.1f}k cycles "
        f"({aos.cycles / soa.cycles:.2f}x)",
    )
    assert aos.cycles < soa.cycles * 1.3

    sdv = FpgaSdv()
    sess = sdv.session()
    fft_vector_aos(sess, sig)
    trace = sess.seal()
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))


def test_ablation_direction_optimizing_bfs(workloads, benchmark):
    """The Beamer-style bottom-up switch on top of the vectorized BFS —
    the paper's future-work direction for graph kernels."""
    from repro.kernels.bfs import bfs_vector, bfs_vector_directopt
    from repro.soc import FpgaSdv

    g = workloads["bfs"]
    dopt_out, dopt = FpgaSdv().run(bfs_vector_directopt, g)
    _, td = FpgaSdv().run(bfs_vector, g)
    write_result(
        "ablation_direction_bfs",
        f"BFS vl256: top-down {td.cycles / 1e3:.1f}k vs "
        f"direction-optimizing {dopt.cycles / 1e3:.1f}k cycles "
        f"({td.cycles / dopt.cycles:.2f}x, "
        f"{dopt_out.meta['bottom_up_steps']} bottom-up steps)",
    )
    assert dopt.cycles < td.cycles

    sdv = FpgaSdv()
    sess = sdv.session()
    bfs_vector_directopt(sess, g)
    trace = sess.seal()
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))


def test_ablation_l1_prefetcher(workloads, benchmark):
    """A next-2-line L1 stream prefetcher on the scalar core: how much of
    the paper's scalar latency sensitivity would it mask? (The FPGA core
    measured in the paper has none — default off.)"""
    from repro.config import CoreConfig

    spec, wl = KERNELS["spmv"], workloads["spmv"]
    rows = {}
    for depth in (0, 2):
        cfg = SdvConfig(core=CoreConfig(l1_prefetch_depth=depth)).validate()
        sdv, trace = run_implementation(spec, wl, None, config=cfg,
                                        verify=False)
        base = sdv.time(trace).cycles
        sdv.configure(extra_latency=1024)
        plus = sdv.time(trace).cycles
        rows[depth] = (base, plus, plus / base)
    write_result(
        "ablation_prefetcher",
        "scalar SpMV with an L1 stream prefetcher\n"
        f"off     : base {rows[0][0] / 1e3:.1f}k, +1024 slowdown "
        f"{rows[0][2]:.2f}x\n"
        f"depth=2 : base {rows[2][0] / 1e3:.1f}k, +1024 slowdown "
        f"{rows[2][2]:.2f}x\n"
        "(a prefetcher masks stream misses but not the x-gathers, so the\n"
        " scalar core remains far more latency-sensitive than VL=256)",
    )
    assert rows[2][0] <= rows[0][0]          # base no worse
    assert rows[2][2] < rows[0][2]           # slope shallower
    # ...but still steeper than the long-vector implementation
    sdv_v, trace_v = run_implementation(spec, wl, 256, verify=False)
    v_base = sdv_v.time(trace_v).cycles
    sdv_v.configure(extra_latency=1024)
    v_slow = sdv_v.time(trace_v).cycles / v_base
    assert rows[2][2] > v_slow

    cfg = SdvConfig(core=CoreConfig(l1_prefetch_depth=2)).validate()
    sdv, trace = run_implementation(spec, wl, None, config=cfg, verify=False)
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))


def test_ablation_spmv_formulation(workloads, benchmark):
    """CSR-vector (row at a time) vs SELL-C-sigma: why the paper's SpMV
    lineage uses sliced formats on short-row matrices."""
    from repro.kernels.spmv import spmv_vector, spmv_vector_csr
    from repro.soc import FpgaSdv

    mat = workloads["spmv"]
    _, naive = FpgaSdv().run(spmv_vector_csr, mat)
    _, sell = FpgaSdv().run(spmv_vector, mat)
    write_result(
        "ablation_spmv_formulation",
        f"SpMV vl256: CSR-vector {naive.cycles / 1e3:.1f}k vs "
        f"SELL-C-sigma {sell.cycles / 1e3:.1f}k cycles "
        f"({naive.cycles / sell.cycles:.1f}x)",
    )
    assert sell.cycles < naive.cycles

    sdv = FpgaSdv()
    sess = sdv.session()
    spmv_vector_csr(sess, mat)
    trace = sess.seal()
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))


def test_ablation_lmul(workloads, benchmark):
    """LMUL register grouping at short max-VL: RVV's lever for longer
    strips without wider registers (the paper's VPU implements v0.7.1,
    which includes it)."""
    import numpy as np
    from repro.soc import FpgaSdv

    def stream(session, lmul, n=1 << 13):
        mem, vec = session.mem, session.vector
        a = mem.alloc("x", np.arange(n, dtype=np.float64))
        b = mem.alloc("y", n, np.float64)
        i = 0
        while i < n:
            vl = vec.vsetvl(n - i, lmul=lmul)
            vec.vse(vec.vle(a, i), b, i)
            i += vl

    times = {}
    for lmul in (1, 2, 8):
        sdv = FpgaSdv().configure(max_vl=8, extra_latency=1024)
        sess = sdv.session()
        stream(sess, lmul)
        times[lmul] = sdv.time(sess.seal()).cycles
    write_result(
        "ablation_lmul",
        "streaming copy at max VL=8, +1024 latency, by LMUL\n"
        + "\n".join(f"LMUL={k}: {v / 1e3:.1f}k cycles" for k, v in
                    times.items()),
    )
    assert times[8] < times[2] < times[1]

    sdv = FpgaSdv().configure(max_vl=8)
    sess = sdv.session()
    stream(sess, 8)
    trace = sess.seal()
    sdv.classify(trace)
    benchmark(lambda: sdv.time(trace))
