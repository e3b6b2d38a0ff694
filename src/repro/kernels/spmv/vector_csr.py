"""CSR-vector SpMV: the naive long-vector formulation (one row at a time).

Each row's nonzeros are strip-mined directly from CSR::

    for i in rows:
        acc = vfmv(0)
        for strips of row i:
            vsetvl(row_nnz remaining)
            cols = vle(indices, k);  vals = vle(vals, k)
            acc += vfmacc(vals, gather x[cols])
        y[i] = vfredsum(acc)            # scalar-destination sync per row!

This is what one writes first — and what the SELL-C-sigma formulation
(:mod:`repro.kernels.spmv.vector`) exists to beat: with cage10's ~13
nonzeros per row, a 256-lane machine runs at ~5% lane occupancy and pays a
reduction + scalar sync per row. Kept as an ablation variant so the
benchmark suite can show *why* the paper's SpMV lineage uses sliced
formats.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelOutput
from repro.soc.sdv import Session
from repro.workloads.csr import CsrMatrix

ALU_PER_ROW = 6
ALU_PER_STRIP = 2


def spmv_vector_csr(session: Session, mat: CsrMatrix,
                    x_in: np.ndarray | None = None) -> KernelOutput:
    """Run row-at-a-time CSR-vector SpMV; returns y."""
    n = mat.shape[0]
    mem, scl, vec = session.mem, session.scalar, session.vector

    indptr = np.asarray(mat.indptr, dtype=np.int64)
    indices = np.asarray(mat.indices, dtype=np.int64)
    data = np.asarray(mat.data, dtype=np.float64)
    x = (np.asarray(x_in, dtype=np.float64) if x_in is not None
         else np.linspace(0.5, 1.5, n))

    a_indptr = mem.alloc("spmv.indptr", indptr)
    a_indices = mem.alloc("spmv.indices", indices)
    a_vals = mem.alloc("spmv.vals", data)
    a_x = mem.alloc("spmv.x", x)
    a_y = mem.alloc("spmv.y", n, np.float64)

    y_host = np.zeros(n)
    rows = np.arange(n, dtype=np.int64)
    # the row-pointer walk is a scalar unit stream
    scl.emit_block(a_indptr.addr(rows), False, ALU_PER_ROW * n,
                   label="spmv-csrv-rowptrs")

    for i in range(n):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        acc_sum = 0.0
        k = lo
        while k < hi:
            vl = vec.vsetvl(hi - k)
            scl.emit_alu(ALU_PER_STRIP)
            cols = vec.vle(a_indices, k)
            vals = vec.vle(a_vals, k)
            xg = vec.vlxe(a_x, cols)
            prod = vec.vfmul(vals, xg)
            acc_sum += vec.vfredsum(prod)   # scalar sync every strip
            k += vl
        y_host[i] = acc_sum
        scl.store_f64(a_y, i, acc_sum)
        scl.flush(label="spmv-csrv-store")

    scl.barrier("spmv-csrv-end")
    return KernelOutput(
        value=a_y.view.copy(),
        meta={"nnz": int(mat.nnz), "n": n, "formulation": "csr-vector"},
    )
