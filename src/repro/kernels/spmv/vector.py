"""Vectorized SELL-C-sigma SpMV (long-vector formulation).

Per chunk of ``C = max VL`` rows (one lane per row), with *compact* slots
(see :mod:`repro.kernels.spmv.formats`)::

    vsetvl(rows_in_chunk)
    acc = vfmv(0.0)
    for j in 0 .. chunk_width-1:
        vsetvl(slot_count[j])                 # active-prefix length
        cols = vle(cols_sell, slot_off[j])    # unit stride! (column-major)
        vals = vle(vals_sell, slot_off[j])
        xg   = vlxe(x, cols)                  # the gather
        acc[0:vl] = vfmacc(acc, vals, xg)     # tail-undisturbed accumulate
    vsetvl(rows_in_chunk)
    pi = vle(perm, chunk_base)
    vsxe(acc, y, pi)                          # scatter to original row order

The sigma-sort makes the active rows of every slot a chunk prefix, so the
compact layout needs no masks and no padded lanes; all streaming accesses
are unit stride and the only gathers are the irregular ``x`` reads — the
same structure as the NEC SX-Aurora SpMV the paper's reference describes.
Column/value loads are software-pipelined one slot ahead so the indexed
load never stalls the in-order memory pipe waiting for its index register.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelOutput
from repro.kernels.spmv.formats import SellMatrix, build_sell
from repro.memory.address_space import Allocation
from repro.soc.sdv import Session
from repro.trace import modes
from repro.trace.events import TraceBuffer, VMemPattern, VOpClass
from repro.trace.template import (
    Dep,
    RecordBatch,
    TraceTemplate,
    ragged_arange,
    record_starts,
)
from repro.workloads.csr import CsrMatrix

#: scalar loop-control ops per chunk and per slot (pointer bumps, branches)
ALU_PER_CHUNK = 6
ALU_PER_SLOT = 2

#: default sigma window (rows) for the SELL conversion
DEFAULT_SIGMA = 4096

_I64 = np.int64
#: interned up front, in a fixed order, so the string table does not
#: depend on which records a matrix produces
_STRINGS = ("vsetvl", "vfmv.v.f", "vle", "vlxe", "vfmacc", "vsxe",
            "spmv-chunk", "spmv-slot-ptrs")


def sell_sweep(trace: TraceBuffer, sell: SellMatrix, n: int, *,
               cols: Allocation, vals: Allocation | None,
               slot_off: Allocation, perm: Allocation, x: Allocation,
               y: Allocation, label: str) -> None:
    """``y = A x`` over a compact SELL matrix, as one record batch.

    The loop in this module's docstring, for every chunk at once. The
    records of each chunk are placed by position: the prologue, the
    slot-0 loads, the non-pipelined last slot and the scatter epilogue,
    one placement per record across all chunks. The software-pipelined
    slot-loop body (slots 0..width-2) is one template expanded over every
    chunk of width >= 2. ``vals=None`` is the pattern-only sweep of
    PageRank's accumulate pass: every value is 1, so there is no value
    stream and ``vfadd`` accumulates instead of ``vfmacc``. ``label``
    prefixes the scalar blocks' labels (``<label>-chunk``,
    ``<label>-slot-ptrs``).

    ``y`` comes from one ``np.bincount`` over the stored entries: it adds
    each lane's terms in storage order, which is slot order, from +0.0 —
    the interpreter path's per-slot accumulate sequence, so traces and
    ``y`` are bit-identical.
    """
    chunk, widths = sell.chunk, sell.widths
    n_chunks = sell.n_chunks
    cnt = np.diff(sell.slot_off)                      # per slot
    # every stored entry's chunk lane (its sorted row) and slot
    chunk_of_slot = np.repeat(np.arange(n_chunks, dtype=_I64), widths)
    slot_of = np.repeat(np.arange(cnt.shape[0], dtype=_I64), cnt)
    lane = (np.arange(slot_of.shape[0], dtype=_I64)
            - sell.slot_off[slot_of] + chunk_of_slot[slot_of] * chunk)
    nz = widths > 0
    first_slot = sell.chunk_slot[:-1][nz]
    last_slot = sell.chunk_slot[1:][nz] - 1
    is_first = np.zeros(cnt.shape[0], dtype=bool)
    is_first[first_slot] = True
    is_last = np.zeros(cnt.shape[0], dtype=bool)
    is_last[last_slot] = True

    # ---- functional: every chunk's accumulate + scatter -------------------
    terms = x.view[sell.cols]
    if vals is not None:
        terms = vals.view * terms
    y.view[sell.perm] = np.bincount(lane, weights=terms, minlength=n)

    # ---- trace: the record layout of every chunk --------------------------
    streams = (cols,) if vals is None else (cols, vals)   # loaded per slot
    acc_op = "vfadd" if vals is None else "vfmacc"
    k = len(streams)
    pipe = np.maximum(widths - 1, 0)    # pipelined slot-loop iterations
    sizes = 6 + (6 + k) * nz + (5 + k) * pipe
    c0 = record_starts(len(trace), sizes)
    rows = np.minimum(chunk, n - np.arange(n_chunks, dtype=_I64) * chunk)
    batch = RecordBatch(trace, int(sizes.sum()))

    # prologue
    batch.vector(c0, VOpClass.CSR, rows, "vsetvl", scalar_dest=True)
    batch.scalar_block(c0 + 1, ALU_PER_CHUNK, label=f"{label}-chunk")
    batch.vector(c0 + 2, VOpClass.ARITH, rows, "vfmv.v.f")

    # slot-pointer walk and the slot-0 loads that prime the pipeline
    s0, w = c0[nz], widths[nz]
    batch.scalar_block(
        s0 + 3, 2 * w, counts=w + 1,
        addrs=slot_off.addr(ragged_arange(first_slot, w + 1)),
        label=f"{label}-slot-ptrs")
    cnt0 = cnt[first_slot]
    slot0 = ragged_arange(sell.slot_off[first_slot], cnt0)
    batch.vector(s0 + 4, VOpClass.CSR, cnt0, "vsetvl", scalar_dest=True)
    for i, a in enumerate(streams):
        batch.vector(s0 + 5 + i, VOpClass.MEM, cnt0, "vle",
                     pattern=VMemPattern.UNIT, addrs=a.addr(slot0))

    # pipelined slot loop: iteration j loads slot j+1, computes slot j
    nxt = np.flatnonzero(~is_first[slot_of])          # entries of slots 1..
    nxt_cnts = cnt[~is_first].astype(np.int32)
    cur_cnts = cnt[~is_last].astype(np.int32)
    tpl = TraceTemplate(trace)
    tpl.scalar_block(ALU_PER_SLOT)
    tpl.vector(VOpClass.CSR, nxt_cnts, "vsetvl", scalar_dest=True)
    s_cols = len(tpl)                                 # the column load
    for a in streams:
        tpl.vector(VOpClass.MEM, nxt_cnts, "vle", pattern=VMemPattern.UNIT,
                   flat_addrs=a.addr(nxt), counts=nxt_cnts)
    tpl.vector(VOpClass.CSR, cur_cnts, "vsetvl", scalar_dest=True)
    s_xg = tpl.vector(VOpClass.MEM, cur_cnts, "vlxe",
                      pattern=VMemPattern.INDEXED,
                      flat_addrs=x.addr(sell.cols[~is_last[slot_of]]),
                      counts=cur_cnts,
                      dep=Dep.prev(s_cols, first=c0 + 5))
    tpl.vector(VOpClass.ARITH, cur_cnts, acc_op, dep=Dep.local(s_xg))
    tpl.expand(batch, pipe, c0 + 5 + k)

    # last slot (nothing left to prefetch): its gather waits on the
    # column load of the last pipelined iteration, or on slot 0's
    p = s0 + (5 + k) * w
    cnt_l = cnt[last_slot]
    batch.scalar_block(p, ALU_PER_SLOT)
    batch.vector(p + 1, VOpClass.CSR, cnt_l, "vsetvl", scalar_dest=True)
    batch.vector(p + 2, VOpClass.MEM, cnt_l, "vlxe",
                 pattern=VMemPattern.INDEXED,
                 addrs=x.addr(sell.cols[is_last[slot_of]]),
                 dep=np.where(w >= 2, p - (5 + k) + s_cols, s0 + 5))
    batch.vector(p + 3, VOpClass.ARITH, cnt_l, acc_op, dep=p + 2)

    # scatter epilogue
    e = c0 + sizes - 3
    batch.vector(e, VOpClass.CSR, rows, "vsetvl", scalar_dest=True)
    batch.vector(e + 1, VOpClass.MEM, rows, "vle", pattern=VMemPattern.UNIT,
                 addrs=perm.addr(np.arange(n, dtype=_I64)))
    batch.vector(e + 2, VOpClass.MEM, rows, "vsxe",
                 pattern=VMemPattern.INDEXED, addrs=y.addr(sell.perm),
                 is_write=True, dep=e + 1)
    batch.commit()


def spmv_vector(session: Session, mat: CsrMatrix,
                x_in: np.ndarray | None = None,
                sigma: int = DEFAULT_SIGMA, *,
                compact: bool = True) -> KernelOutput:
    """Run SELL-C-sigma SpMV with C = the session's max VL; returns y.

    ``compact=False`` selects the padded-slot layout (ablation).
    """
    n = mat.shape[0]
    mem, scl, vec = session.mem, session.scalar, session.vector
    chunk = vec.max_vl
    sell = build_sell(mat, chunk=chunk, sigma=min(sigma, n), compact=compact)

    x = (np.asarray(x_in, dtype=np.float64) if x_in is not None
         else np.linspace(0.5, 1.5, n))

    a_vals = mem.alloc("spmv.vals_sell", sell.vals)
    a_cols = mem.alloc("spmv.cols_sell", sell.cols)
    a_slot_off = mem.alloc("spmv.slot_off", sell.slot_off)
    a_rowlen = mem.alloc("spmv.rowlen", sell.rowlen)
    a_perm = mem.alloc("spmv.perm", sell.perm)
    a_x = mem.alloc("spmv.x", x)
    a_y = mem.alloc("spmv.y", n, np.float64)

    if compact and modes.templating_enabled():
        for name in _STRINGS:
            session.trace.intern(name)
        sell_sweep(session.trace, sell, n, cols=a_cols, vals=a_vals,
                   slot_off=a_slot_off, perm=a_perm, x=a_x, y=a_y,
                   label="spmv")
        scl.barrier("spmv-vector-end")
        return KernelOutput(
            value=a_y.view.copy(),
            meta={
                "nnz": sell.nnz,
                "n": n,
                "chunk": chunk,
                "sigma": sell.sigma,
                "padding_overhead": sell.padding_overhead,
            },
        )

    for c in range(sell.n_chunks):
        base_row = c * chunk
        rows_here = min(chunk, n - base_row)
        vec.vsetvl(rows_here)
        scl.emit_alu(ALU_PER_CHUNK, label="spmv-chunk")

        acc = vec.vfmv(0.0)
        base_slot = int(sell.chunk_slot[c])
        width = int(sell.widths[c])
        # the scalar core walks the slot-offset table (sequential loads)
        if width > 0:
            scl.emit_block(
                a_slot_off.addr(np.arange(base_slot, base_slot + width + 1)),
                False, 2 * width, label="spmv-slot-ptrs",
            )
        lens = None
        if not compact:
            lens = vec.vle(a_rowlen, base_row)

        def slot_loads(j: int):
            start = int(sell.slot_off[base_slot + j])
            cnt = sell.slot_count(c, j)
            vl_here = cnt if compact else rows_here
            vec.vsetvl(vl_here)
            return (vec.vle(a_cols, start), vec.vle(a_vals, start), vl_here)

        # Software pipelining: fetch slot j+1's column indices while slot
        # j's gather executes, so the indexed load never blocks the
        # in-order memory pipe waiting for its index register (the standard
        # hand-optimization in long-vector SpMV kernels).
        if width > 0:
            cols_next, vals_next, vl_next = slot_loads(0)
        for j in range(width):
            scl.emit_alu(ALU_PER_SLOT)
            cols, vals, vl_here = cols_next, vals_next, vl_next
            if j + 1 < width:
                cols_next, vals_next, vl_next = slot_loads(j + 1)
            # restore this slot's vl for the compute below — the second
            # vsetvl per slot is the (real) price of software pipelining
            # across slots of different counts
            vec.vsetvl(vl_here)
            if compact:
                xg = vec.vlxe(a_x, cols)
                accp = vec.with_vl(acc)
                accp = vec.vfmacc(accp, vals, xg)
                acc = vec.merge_tail(accp, acc)
            else:
                m = vec.vmsgt(lens, j)
                xg = vec.vlxe(a_x, cols, mask=m)
                acc = vec.vfmacc(acc, vals, xg, mask=m)

        vec.vsetvl(rows_here)
        acc = vec.with_vl(acc)
        pi = vec.vle(a_perm, base_row)
        vec.vsxe(acc, a_y, pi)

    scl.barrier("spmv-vector-end")
    y = a_y.view.copy()
    return KernelOutput(
        value=y,
        meta={
            "nnz": sell.nnz,
            "n": n,
            "chunk": chunk,
            "sigma": sell.sigma,
            "padding_overhead": sell.padding_overhead,
        },
    )
