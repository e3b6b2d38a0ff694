"""Sparse-matrix storage formats for the SpMV kernel.

The scalar implementation uses plain CSR. The vector implementation uses
**SELL-C-sigma** (sliced ELLPACK with row sorting), the format family the
paper's SpMV reference [Gomez et al. 2020, NEC SX-Aurora] builds on:

* rows are sorted by descending length within windows of ``sigma`` rows
  (bounded permutation keeps x-access locality);
* consecutive ``C`` rows form a *chunk* stored column-major: slot ``j``
  holds element ``j`` of each of the chunk's rows. A unit-stride vector
  load of a slot feeds one lane per row — exactly what a long-vector unit
  wants.

Two slot layouts are supported:

* ``compact=True`` (default) — jagged-diagonal style: because rows within a
  chunk are sorted by descending length, the rows active at slot ``j`` are
  a *prefix* of the chunk; each slot stores exactly that prefix, back to
  back, with a ``slot_off`` pointer array. Zero padding, zero masks: the
  kernel just ``vsetvl``\\ s to the slot's count and relies on RVV's
  tail-undisturbed accumulator semantics. This is what keeps power-law
  inputs (PageRank's transpose graph) from drowning in padded lanes.
* ``compact=False`` — classic padded ELLPACK slots of ``C`` entries,
  retained as an ablation (the padding-overhead benchmark measures what
  compaction buys).

``C`` is chosen equal to the machine's max VL, so a single ``vle`` fills a
whole register with one slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.workloads.csr import CsrMatrix


@dataclass(frozen=True)
class SellMatrix:
    """SELL-C-sigma storage derived from a CSR matrix."""

    n: int
    nnz: int                # original nonzeros (excluding padding)
    chunk: int              # C
    sigma: int
    compact: bool
    perm: np.ndarray        # perm[r] = original row stored at sorted slot r
    rowlen: np.ndarray      # int64[n], lengths in sorted order
    chunk_ptr: np.ndarray   # int64[n_chunks+1], element offsets into vals/cols
    widths: np.ndarray      # int64[n_chunks], max row length per chunk
    vals: np.ndarray        # float64, column-major per chunk
    cols: np.ndarray        # int64, column-major per chunk
    #: compact layout only: index of chunk c's first slot in slot_off
    chunk_slot: np.ndarray  # int64[n_chunks+1]
    #: compact layout only: element offset of each slot (len total_slots+1);
    #: slot k holds elements [slot_off[k], slot_off[k+1])
    slot_off: np.ndarray    # int64

    @property
    def n_chunks(self) -> int:
        return int(self.widths.shape[0])

    @property
    def total_slots(self) -> int:
        return int(self.widths.sum())

    @property
    def padded_nnz(self) -> int:
        return int(self.vals.shape[0])

    @property
    def padding_overhead(self) -> float:
        """Stored/true nonzero ratio (1.0 = no waste; compact is always 1)."""
        return self.padded_nnz / self.nnz if self.nnz else 1.0

    def slot_count(self, chunk_index: int, j: int) -> int:
        """Active lanes of slot ``j`` of chunk ``chunk_index`` (compact)."""
        k = int(self.chunk_slot[chunk_index]) + j
        return int(self.slot_off[k + 1] - self.slot_off[k])


def build_sell(mat: CsrMatrix, chunk: int, sigma: int | None = None,
               *, compact: bool = True) -> SellMatrix:
    """Convert CSR to SELL-C-sigma. ``sigma=None`` sorts globally."""
    if mat.shape[0] != mat.shape[1]:
        raise KernelError(f"SpMV expects a square matrix, got {mat.shape}")
    if chunk < 1:
        raise KernelError(f"chunk must be >= 1, got {chunk}")
    n = mat.shape[0]
    sigma = n if sigma is None else max(chunk, sigma)
    indptr = np.asarray(mat.indptr, dtype=np.int64)
    lens = np.diff(indptr)

    # sigma-window descending sort (stable, so ties keep original order)
    perm = np.empty(n, dtype=np.int64)
    for w0 in range(0, n, sigma):
        w1 = min(n, w0 + sigma)
        order = np.argsort(-lens[w0:w1], kind="stable")
        perm[w0:w1] = w0 + order

    rowlen = lens[perm]
    n_chunks = -(-n // chunk)
    padded = np.zeros(n_chunks * chunk, dtype=np.int64)
    padded[:n] = rowlen
    widths = padded.reshape(n_chunks, chunk).max(axis=1)

    data = np.asarray(mat.data, dtype=np.float64)
    indices = np.asarray(mat.indices, dtype=np.int64)

    chunk_slot = np.zeros(n_chunks + 1, dtype=np.int64)
    np.cumsum(widths, out=chunk_slot[1:])

    if compact:
        total_slots = int(widths.sum())
        # per-slot active counts via a difference array: each row adds one
        # lane to slots [chunk_slot[c], chunk_slot[c] + rowlen) of its
        # chunk; rowlen <= width keeps every run inside its chunk, so one
        # global cumsum recovers all counts at once
        row_start = chunk_slot[np.arange(n, dtype=np.int64) // chunk]
        delta = np.zeros(total_slots + 1, dtype=np.int64)
        np.add.at(delta, row_start, 1)
        np.add.at(delta, row_start + rowlen, -1)
        slot_off = np.zeros(total_slots + 1, dtype=np.int64)
        np.cumsum(np.cumsum(delta[:-1]), out=slot_off[1:])
        chunk_ptr = slot_off[chunk_slot]
        vals = np.zeros(slot_off[-1], dtype=np.float64)
        cols = np.zeros(slot_off[-1], dtype=np.int64)
        # scatter row elements into their slot prefixes, all rows at once:
        # element j of row r is the (r % chunk)-th entry of slot
        # chunk_slot[r // chunk] + j — rows are sorted descending inside a
        # chunk, so active lanes form a prefix and the chunk lane is the
        # slot lane
        nnz_total = int(rowlen.sum())
        if nnz_total:
            rows_rep = np.repeat(np.arange(n, dtype=np.int64), rowlen)
            elem_start = np.zeros(n, dtype=np.int64)
            np.cumsum(rowlen[:-1], out=elem_start[1:])
            j_idx = np.arange(nnz_total, dtype=np.int64) \
                - np.repeat(elem_start, rowlen)
            dst = slot_off[row_start[rows_rep] + j_idx] + rows_rep % chunk
            src = np.repeat(indptr[perm], rowlen) + j_idx
            vals[dst] = data[src]
            cols[dst] = indices[src]
    else:
        chunk_ptr = np.zeros(n_chunks + 1, dtype=np.int64)
        np.cumsum(widths * chunk, out=chunk_ptr[1:])
        vals = np.zeros(chunk_ptr[-1], dtype=np.float64)
        cols = np.zeros(chunk_ptr[-1], dtype=np.int64)
        slot_off = np.zeros(int(widths.sum()) + 1, dtype=np.int64)
        k = 0
        for c in range(n_chunks):
            base = chunk_ptr[c]
            for j in range(int(widths[c])):
                slot_off[k + 1] = slot_off[k] + chunk
                k += 1
            for lane in range(chunk):
                r = c * chunk + lane
                if r >= n:
                    break
                src0 = indptr[perm[r]]
                ln = rowlen[r]
                dst = base + lane + chunk * np.arange(ln)
                vals[dst] = data[src0: src0 + ln]
                cols[dst] = indices[src0: src0 + ln]

    return SellMatrix(
        n=n, nnz=int(mat.nnz), chunk=chunk, sigma=sigma, compact=compact,
        perm=perm, rowlen=rowlen, chunk_ptr=chunk_ptr, widths=widths,
        vals=vals, cols=cols, chunk_slot=chunk_slot, slot_off=slot_off,
    )


def sell_to_dense(sell: SellMatrix) -> np.ndarray:
    """Reconstruct the dense matrix (tests only; O(n^2) memory)."""
    out = np.zeros((sell.n, sell.n))
    for c in range(sell.n_chunks):
        base_slot = int(sell.chunk_slot[c])
        for j in range(int(sell.widths[c])):
            k = base_slot + j
            start = int(sell.slot_off[k])
            cnt = int(sell.slot_off[k + 1] - start)
            for lane in range(cnt if sell.compact else sell.chunk):
                r = c * sell.chunk + lane
                if r >= sell.n or sell.rowlen[r] <= j:
                    continue
                pos = start + lane
                out[sell.perm[r], sell.cols[pos]] += sell.vals[pos]
    return out
