"""Vectorized pull-style PageRank (SELL pattern-only accumulate).

Per iteration:

1. **normalize** (streaming): ``rnorm = r / safe_deg`` with the dangling
   mass accumulated in a vector register (``vfmacc`` against a 0/1
   dangling-indicator stream) and reduced once per iteration — no per-strip
   scalar syncs;
2. **accumulate**: compact SELL-C-sigma sweep over the transpose adjacency
   — unit loads of the column slots (compact jagged layout: R-MAT in-degree
   skew would make padded slots explode), gathers of ``rnorm``,
   tail-undisturbed ``vfadd`` accumulation (values are implicitly 1, so no
   vals stream at all), scatter to ``y`` through the row permutation; column
   loads are software-pipelined one slot ahead, as in SpMV. The templated
   path is SpMV's :func:`~repro.kernels.spmv.vector.sell_sweep` without a
   value stream;
3. **damping** (streaming): ``r = (1-d)/n + d*(y + dmass)``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelOutput
from repro.kernels.spmv.formats import build_sell
from repro.kernels.spmv.vector import ALU_PER_CHUNK, ALU_PER_SLOT, sell_sweep
from repro.soc.sdv import Session
from repro.trace import modes
from repro.trace.events import VMemPattern, VOpClass
from repro.trace.template import Dep, RecordBatch, TraceTemplate
from repro.workloads.csr import CsrMatrix
from repro.workloads.graphs import CsrGraph

ALU_PER_STRIP = 3

#: sigma window for the SELL conversion of the transpose adjacency
SIGMA = 4096

_I64 = np.int64
#: interned up front, in a fixed order, so the string table does not
#: depend on which records a graph produces
_STRINGS = ("vsetvl", "vfmv.v.f", "vle", "vse", "vlxe", "vsxe", "vfdiv",
            "vfmul", "vfadd", "vfmacc", "vfredsum", "pr-norm-tail",
            "pr-chunk", "pr-slot-ptrs", "pr-damp")


def _normalize_batch(trace, allocs, n: int, maxvl: int) -> float:
    """The normalize pass as one record batch; returns the dangling mass.

    The full strips replicate one template; the reduction after them and
    the tail strip are placed by position.
    """
    _, _, _, a_safedeg, a_dang, a_r, a_rnorm, _ = allocs
    rv, ddv = a_r.view, a_dang.view
    np.divide(rv, a_safedeg.view, out=a_rnorm.view)
    n_strips = n // maxvl
    n_full = n_strips * maxvl
    head = 3 + 7 * n_strips if n_strips else 0
    batch = RecordBatch(trace, head + (9 if n_full < n else 0))
    b = batch.start
    dmass_parts: list[float] = []
    if n_strips:
        batch.vector(b, VOpClass.CSR, maxvl, "vsetvl", scalar_dest=True)
        batch.vector(b + 1, VOpClass.ARITH, maxvl, "vfmv.v.f")
        lane8 = np.arange(maxvl, dtype=_I64)
        offs = np.arange(n_strips, dtype=_I64) * (maxvl * 8)
        tpl = TraceTemplate(trace)
        tpl.scalar_block(ALU_PER_STRIP, label="pr-norm")
        tpl.vector(VOpClass.MEM, maxvl, "vle", pattern=VMemPattern.UNIT,
                   base_addrs=a_r.addr(lane8), iter_offsets=offs)
        s_dg = tpl.vector(VOpClass.MEM, maxvl, "vle",
                          pattern=VMemPattern.UNIT,
                          base_addrs=a_safedeg.addr(lane8),
                          iter_offsets=offs)
        s_rn = tpl.vector(VOpClass.ARITH_HEAVY, maxvl, "vfdiv",
                          dep=Dep.local(s_dg))
        tpl.vector(VOpClass.MEM, maxvl, "vse", pattern=VMemPattern.UNIT,
                   base_addrs=a_rnorm.addr(lane8), iter_offsets=offs,
                   is_write=True, dep=Dep.local(s_rn))
        s_dd = tpl.vector(VOpClass.MEM, maxvl, "vle",
                          pattern=VMemPattern.UNIT,
                          base_addrs=a_dang.addr(lane8), iter_offsets=offs)
        s_acc = tpl.vector(VOpClass.ARITH, maxvl, "vfmacc",
                           dep=Dep.local(s_dd))
        tpl.expand(batch, [n_strips], [b + 2])
        batch.vector(b + head - 1, VOpClass.REDUCE, maxvl, "vfredsum",
                     dep=b + head - 8 + s_acc, scalar_dest=True)
        # the strip-order lane accumulate: every product is >= +0.0 (ranks
        # and the 0/1 dangling stream are non-negative), so strips with no
        # dangling node add exactly +0.0 — an identity on the non-negative
        # accumulator — and only the strips containing dangling nodes join
        # the per-lane vfmacc chain, which add.accumulate runs in strip
        # order (0.0 + p == p for p >= +0.0)
        prods = (rv[:n_full] * ddv[:n_full]).reshape(n_strips, maxvl)
        has = ddv[:n_full].reshape(n_strips, maxvl).any(axis=1)
        dacc = (np.add.accumulate(prods[has], axis=0)[-1] if has.any()
                else np.zeros(maxvl, dtype=np.float64))
        dmass_parts.append(float(dacc.sum() + 0.0))
    if n_full < n:
        t = b + head
        vl_t = n - n_full
        lane_t = np.arange(n_full, n, dtype=_I64)
        batch.vector(t, VOpClass.CSR, vl_t, "vsetvl", scalar_dest=True)
        batch.scalar_block(t + 1, ALU_PER_STRIP, label="pr-norm-tail")
        batch.vector(t + 2, VOpClass.MEM, vl_t, "vle",
                     pattern=VMemPattern.UNIT, addrs=a_r.addr(lane_t))
        batch.vector(t + 3, VOpClass.MEM, vl_t, "vle",
                     pattern=VMemPattern.UNIT, addrs=a_safedeg.addr(lane_t))
        batch.vector(t + 4, VOpClass.ARITH_HEAVY, vl_t, "vfdiv", dep=t + 3)
        batch.vector(t + 5, VOpClass.MEM, vl_t, "vse",
                     pattern=VMemPattern.UNIT, addrs=a_rnorm.addr(lane_t),
                     is_write=True, dep=t + 4)
        batch.vector(t + 6, VOpClass.MEM, vl_t, "vle",
                     pattern=VMemPattern.UNIT, addrs=a_dang.addr(lane_t))
        batch.vector(t + 7, VOpClass.ARITH, vl_t, "vfmul", dep=t + 6)
        batch.vector(t + 8, VOpClass.REDUCE, vl_t, "vfredsum", dep=t + 7,
                     scalar_dest=True)
        dmass_parts.append(float((rv[n_full:] * ddv[n_full:]).sum() + 0.0))
    batch.commit()
    return sum(dmass_parts) / n


def _damping_batch(trace, allocs, n: int, maxvl: int, dmass: float,
                   damping: float) -> None:
    """The damping pass as one record batch: the full strips replicate
    one template, the tail strip is placed by position."""
    a_r, a_y = allocs[5], allocs[7]
    np.add((a_y.view + dmass) * damping, (1.0 - damping) / n,
           out=a_r.view)
    n_strips = n // maxvl
    n_full = n_strips * maxvl
    batch = RecordBatch(trace, 7 * n_strips + (7 if n_full < n else 0))
    if n_strips:
        lane8 = np.arange(maxvl, dtype=_I64)
        offs = np.arange(n_strips, dtype=_I64) * (maxvl * 8)
        tpl = TraceTemplate(trace)
        tpl.vector(VOpClass.CSR, maxvl, "vsetvl", scalar_dest=True)
        tpl.scalar_block(ALU_PER_STRIP, label="pr-damp")
        s_y = tpl.vector(VOpClass.MEM, maxvl, "vle",
                         pattern=VMemPattern.UNIT,
                         base_addrs=a_y.addr(lane8), iter_offsets=offs)
        s_t = tpl.vector(VOpClass.ARITH, maxvl, "vfadd", dep=Dep.local(s_y))
        s_t = tpl.vector(VOpClass.ARITH, maxvl, "vfmul", dep=Dep.local(s_t))
        s_t = tpl.vector(VOpClass.ARITH, maxvl, "vfadd", dep=Dep.local(s_t))
        tpl.vector(VOpClass.MEM, maxvl, "vse", pattern=VMemPattern.UNIT,
                   base_addrs=a_r.addr(lane8), iter_offsets=offs,
                   is_write=True, dep=Dep.local(s_t))
        tpl.expand(batch, [n_strips], [batch.start])
    if n_full < n:
        t = batch.start + 7 * n_strips
        vl_t = n - n_full
        lane_t = np.arange(n_full, n, dtype=_I64)
        batch.vector(t, VOpClass.CSR, vl_t, "vsetvl", scalar_dest=True)
        batch.scalar_block(t + 1, ALU_PER_STRIP, label="pr-damp")
        batch.vector(t + 2, VOpClass.MEM, vl_t, "vle",
                     pattern=VMemPattern.UNIT, addrs=a_y.addr(lane_t))
        batch.vector(t + 3, VOpClass.ARITH, vl_t, "vfadd", dep=t + 2)
        batch.vector(t + 4, VOpClass.ARITH, vl_t, "vfmul", dep=t + 3)
        batch.vector(t + 5, VOpClass.ARITH, vl_t, "vfadd", dep=t + 4)
        batch.vector(t + 6, VOpClass.MEM, vl_t, "vse",
                     pattern=VMemPattern.UNIT, addrs=a_r.addr(lane_t),
                     is_write=True, dep=t + 5)
    batch.commit()


def _pr_iteration_templated(session: Session, sell, allocs, n: int,
                            damping: float) -> None:
    """One templated PR iteration: identical trace + memory effects.

    Each pass is one record batch (strip and slot loop bodies expanded as
    templates, the records around them placed by position; the accumulate
    pass is :func:`~repro.kernels.spmv.vector.sell_sweep`); the
    functional math runs on whole arrays with the same elementwise
    operation sequence as the interpreter path (division, multiply-then-add
    for vfmacc, per-slot accumulate order), so results are bit-identical.
    """
    trace = session.trace
    scl = session.scalar
    maxvl = session.vector.max_vl
    for s in _STRINGS:
        trace.intern(s)
    dmass = _normalize_batch(trace, allocs, n, maxvl)
    scl.barrier("pr-normalize-end")
    a_cols, a_slot_off, a_perm, _, _, _, a_rnorm, a_y = allocs
    sell_sweep(trace, sell, n, cols=a_cols, vals=None, slot_off=a_slot_off,
               perm=a_perm, x=a_rnorm, y=a_y, label="pr")
    scl.barrier("pr-accumulate-end")
    _damping_batch(trace, allocs, n, maxvl, dmass, damping)
    scl.barrier("pr-iter-end")


def pagerank_vector(session: Session, g: CsrGraph, *, iters: int,
                    damping: float = 0.85) -> KernelOutput:
    """Run ``iters`` vectorized PR iterations; returns the rank vector."""
    n = g.n
    mem, scl, vec = session.mem, session.scalar, session.vector
    chunk = vec.max_vl

    # host-side data preparation (one-time, untimed — same for both variants)
    pattern = CsrMatrix(shape=(n, n), indptr=g.t_indptr, indices=g.t_indices,
                        data=np.ones(g.t_indices.shape[0]))
    sell = build_sell(pattern, chunk=chunk, sigma=min(SIGMA, n))
    outdeg = g.out_degrees.astype(np.float64)
    dangling = (outdeg == 0).astype(np.float64)
    safe_deg = np.where(outdeg == 0, 1.0, outdeg)

    a_cols = mem.alloc("pr.cols_sell", sell.cols)
    a_slot_off = mem.alloc("pr.slot_off", sell.slot_off)
    a_perm = mem.alloc("pr.perm", sell.perm)
    a_safedeg = mem.alloc("pr.safe_deg", safe_deg)
    a_dang = mem.alloc("pr.dangling", dangling)
    a_r = mem.alloc("pr.r", np.full(n, 1.0 / n))
    a_rnorm = mem.alloc("pr.rnorm", n, np.float64)
    a_y = mem.alloc("pr.y", n, np.float64)

    if modes.templating_enabled():
        allocs = (a_cols, a_slot_off, a_perm, a_safedeg, a_dang,
                  a_r, a_rnorm, a_y)
        for _ in range(iters):
            _pr_iteration_templated(session, sell, allocs, n, damping)
        return KernelOutput(
            value=a_r.view.copy(),
            meta={"iters": iters, "n": n, "m": int(g.t_indices.shape[0]),
                  "padding_overhead": sell.padding_overhead},
        )

    for _ in range(iters):
        # --- normalize pass ----------------------------------------------
        dmass_parts: list[float] = []
        off = 0
        maxvl = vec.max_vl
        n_full = (n // maxvl) * maxvl
        if n_full:
            vec.vsetvl(maxvl)
            dacc = vec.vfmv(0.0)
            while off < n_full:
                scl.emit_alu(ALU_PER_STRIP, label="pr-norm")
                r_v = vec.vle(a_r, off)
                dg = vec.vle(a_safedeg, off)
                rn = vec.vfdiv(r_v, dg)
                vec.vse(rn, a_rnorm, off)
                dd = vec.vle(a_dang, off)
                dacc = vec.vfmacc(dacc, r_v, dd)
                off += maxvl
            dmass_parts.append(vec.vfredsum(dacc))
        if off < n:
            vec.vsetvl(n - off)
            scl.emit_alu(ALU_PER_STRIP, label="pr-norm-tail")
            r_v = vec.vle(a_r, off)
            dg = vec.vle(a_safedeg, off)
            rn = vec.vfdiv(r_v, dg)
            vec.vse(rn, a_rnorm, off)
            dd = vec.vle(a_dang, off)
            prod = vec.vfmul(r_v, dd)
            dmass_parts.append(vec.vfredsum(prod))
        dmass = sum(dmass_parts) / n
        scl.barrier("pr-normalize-end")

        # --- accumulate pass (pattern-only compact SELL sweep) -------------
        for c in range(sell.n_chunks):
            base_row = c * chunk
            rows_here = min(chunk, n - base_row)
            vec.vsetvl(rows_here)
            scl.emit_alu(ALU_PER_CHUNK, label="pr-chunk")
            acc = vec.vfmv(0.0)
            base_slot = int(sell.chunk_slot[c])
            width = int(sell.widths[c])
            if width > 0:
                scl.emit_block(
                    a_slot_off.addr(
                        np.arange(base_slot, base_slot + width + 1)),
                    False, 2 * width, label="pr-slot-ptrs",
                )

            def slot_load(j: int):
                start = int(sell.slot_off[base_slot + j])
                cnt = sell.slot_count(c, j)
                vec.vsetvl(cnt)
                return vec.vle(a_cols, start), cnt

            if width > 0:
                cols_next, cnt_next = slot_load(0)
            for j in range(width):
                scl.emit_alu(ALU_PER_SLOT)
                cols, cnt = cols_next, cnt_next
                if j + 1 < width:
                    cols_next, cnt_next = slot_load(j + 1)
                # restore this slot's vl for the compute below — the second
                # vsetvl per slot is the (real) price of software pipelining
                # across slots of different counts
                vec.vsetvl(cnt)
                gath = vec.vlxe(a_rnorm, cols)
                accp = vec.with_vl(acc)
                accp = vec.vfadd(accp, gath)
                acc = vec.merge_tail(accp, acc)
            vec.vsetvl(rows_here)
            acc = vec.with_vl(acc)
            pi = vec.vle(a_perm, base_row)
            vec.vsxe(acc, a_y, pi)
        scl.barrier("pr-accumulate-end")

        # --- damping pass --------------------------------------------------
        base = (1.0 - damping) / n
        off = 0
        while off < n:
            vl = vec.vsetvl(n - off)
            scl.emit_alu(ALU_PER_STRIP, label="pr-damp")
            y_v = vec.vle(a_y, off)
            t = vec.vfadd(y_v, dmass)
            t = vec.vfmul(t, damping)
            t = vec.vfadd(t, base)
            vec.vse(t, a_r, off)
            off += vl
        scl.barrier("pr-iter-end")

    # the rank vector was computed *through* the vector ISA; tests compare
    # it against pagerank_reference
    return KernelOutput(
        value=a_r.view.copy(),
        meta={"iters": iters, "n": n, "m": int(g.t_indices.shape[0]),
              "padding_overhead": sell.padding_overhead},
    )
