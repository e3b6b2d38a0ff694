"""Scalar CSR SpMV.

The classic double loop::

    for i in rows:
        acc = 0
        for k in indptr[i] .. indptr[i+1]:
            acc += vals[k] * x[cols[k]]
        y[i] = acc

Functional result comes from the CSR arrays directly; the trace is the
loop's exact access stream, built columnar: per nonzero the triple
``cols[k]``, ``vals[k]``, ``x[cols[k]]`` in that order, with the row's
``indptr`` load before its nonzeros and the ``y`` store after — assembled
with vectorized position arithmetic instead of a Python loop (see the
scalar-context docs).

``mlp_hint`` stays unbounded: consecutive ``x[cols[k]]`` gathers are
independent, so the core's MSHRs are the only MLP limit — SpMV is the
best case for scalar latency overlap, and the paper still measures a steep
latency slope for it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelOutput
from repro.soc.sdv import Session
from repro.workloads.csr import CsrMatrix

#: scalar ALU/branch ops per inner-loop iteration (fma counts 2: mul+add on
#: a single-FPU core, plus index increment and loop branch)
ALU_PER_NNZ = 4
#: per-row overhead ops (pointer compare, accumulator reset, store setup)
ALU_PER_ROW = 4


def spmv_scalar(session: Session, mat: CsrMatrix,
                x_in: np.ndarray | None = None) -> KernelOutput:
    """Run scalar CSR SpMV on the SDV session; returns y."""
    n = mat.shape[0]
    nnz = int(mat.nnz)
    mem, scl = session.mem, session.scalar

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

    # functional result (the semantics of the loop above)
    y = np.zeros(n)
    np.add.at(y, np.repeat(np.arange(n), np.diff(indptr)), data * x[indices])
    a_y.view[:] = y

    # --- columnar trace assembly -----------------------------------------
    rowlens = np.diff(indptr)
    k = np.arange(nnz, dtype=np.int64)
    row_of_k = np.repeat(np.arange(n, dtype=np.int64), rowlens)

    stream_len = 3 * nnz + 2 * n
    addrs = np.empty(stream_len, dtype=np.int64)
    writes = np.zeros(stream_len, dtype=bool)

    # position of each row's header (indptr[i+1] load) in the stream
    row_off = 3 * indptr[:-1] + 2 * np.arange(n, dtype=np.int64)
    addrs[row_off] = a_indptr.addr(np.arange(1, n + 1))
    # y[i] store closes each row
    y_pos = row_off + 1 + 3 * rowlens
    addrs[y_pos] = a_y.addr(np.arange(n))
    writes[y_pos] = True
    # per-nonzero triple: cols[k], vals[k], x[cols[k]]
    base_k = row_off[row_of_k] + 1 + 3 * (k - indptr[row_of_k])
    addrs[base_k] = a_indices.addr(k)
    addrs[base_k + 1] = a_vals.addr(k)
    addrs[base_k + 2] = a_x.addr(indices)

    scl.emit_block(
        addrs, writes,
        n_alu_ops=ALU_PER_NNZ * nnz + ALU_PER_ROW * n,
        label="spmv-scalar-csr",
    )
    scl.barrier("spmv-scalar-end")
    return KernelOutput(value=y, meta={"nnz": nnz, "n": n})
