"""Trace-order memory classification.

Walks a sealed trace once through the cache hierarchy (private L1D for the
scalar side, banked shared L2HN for everything) and labels every memory
reference with the level that served it. The result — a
:class:`ClassifiedTrace` — is **independent of the latency and bandwidth
knobs**, so one classification pass serves an entire Figure-3/Figure-5
sweep; only the (cheap) timing stage reruns per sweep point.

Hierarchy rules (single core+VPU agent):

* scalar loads/stores: L1D → L2 → DRAM; write-allocate, write-back.
  A dirty L1 victim is written back into L2 (full line, no DRAM fill);
  a dirty L2 victim becomes one DRAM write transaction.
* vector loads/stores bypass L1 and access the L2HN directly (the decoupled
  VPU has its own memory path in Vitruvius). Element addresses of one
  instruction are coalesced into line requests (configurable for gathers).
* unit-stride vector stores that cover whole lines allocate without a DRAM
  fill (streaming-store behaviour); gather/scatter and strided store misses
  fetch the line first.
* lines resident in L1 that the VPU touches are recalled (home-node
  coherence): invalidated in L1 and, if dirty, written back into L2 first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.config import SdvConfig
from repro.errors import TraceError
from repro.trace.events import (
    TraceBuffer,
    VMemPattern,
    VOpClass,
)
from repro.util.mathx import log2_int
from repro.util.units import LINE_BYTES

LINE_SHIFT = log2_int(LINE_BYTES)


class AccessLevel(enum.IntEnum):
    """Which level served a memory reference."""

    L1 = 0
    L2 = 1
    DRAM = 2


# Row dtype of the columnar classified trace consumed by the fast engine.
ROW_DTYPE = np.dtype(
    [
        ("kind", np.uint8),        # 0 scalar block, 1 vector arith, 2 vector mem,
                                   # 3 barrier
        ("n_alu", np.int64),       # scalar block ALU ops
        ("n_mem", np.int64),       # scalar block memory ops
        ("l1_hits", np.int64),
        ("l2_hits", np.int64),
        ("dram_reads", np.int64),
        ("dram_writes", np.int64),  # writebacks + store traffic to DRAM
        ("vl", np.int32),
        ("active", np.int32),
        ("opclass", np.uint8),      # VOpClass ordinal (255 for scalar rows)
        ("pattern", np.uint8),      # VMemPattern ordinal (255 if N/A)
        ("n_line_reqs", np.int64),  # vector mem: line requests after coalescing
        ("mlp_hint", np.int64),
        ("is_write", np.uint8),
        ("dep", np.int64),          # producing record index (-1 none)
        ("scalar_dest", np.uint8),  # instruction writes a scalar register
        ("pf_dram_reads", np.int64),  # prefetcher-issued DRAM fills (non-
                                      # blocking: bandwidth, not stall)
    ]
)

KIND_SCALAR, KIND_VARITH, KIND_VMEM, KIND_BARRIER = 0, 1, 2, 3

_OPCLASS_ID = {c: i for i, c in enumerate(VOpClass)}
_PATTERN_ID = {p: i for i, p in enumerate(VMemPattern)}


@dataclass
class ClassifiedTrace:
    """Per-record classified view of a trace.

    ``rows`` is a structured array with one row per trace record (columnar,
    for the fast engine); ``levels`` holds, per record, the
    :class:`AccessLevel` of each line/element request in order (for the
    event engine). ``trace`` is the original buffer.
    """

    rows: np.ndarray
    levels: list[np.ndarray | None]
    trace: TraceBuffer
    config: SdvConfig

    # aggregate convenience
    totals: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.levels) != self.rows.shape[0]:
            raise TraceError("levels list misaligned with rows")
        if not self.totals:
            r = self.rows
            self.totals = {
                "l1_hits": int(r["l1_hits"].sum()),
                "l2_hits": int(r["l2_hits"].sum()),
                "dram_reads": int(r["dram_reads"].sum()),
                "dram_writes": int(r["dram_writes"].sum()),
                "scalar_mem_ops": int(r["n_mem"].sum()),
                "vector_line_reqs": int(r["n_line_reqs"].sum()),
                "pf_dram_reads": int(r["pf_dram_reads"].sum()),
            }

    @property
    def dram_transactions(self) -> int:
        return (self.totals["dram_reads"] + self.totals["dram_writes"]
                + self.totals.get("pf_dram_reads", 0))

    @property
    def dram_bytes(self) -> int:
        return self.dram_transactions * LINE_BYTES


def _coalesce_lines(addrs: np.ndarray, pattern: VMemPattern,
                    coalesce_gathers: bool) -> np.ndarray:
    """Element byte addresses of one vector instruction → line requests.

    Unit-stride/strided accesses always coalesce adjacent same-line elements
    (the memory unit buffers a line's worth). Indexed accesses coalesce only
    when the hardware supports it (``coalesce_gathers``), and then only
    duplicate lines anywhere in the instruction (CAM over the open requests),
    preserving first-touch order.
    """
    lines = addrs >> LINE_SHIFT
    if lines.size == 0:
        return lines
    if pattern is VMemPattern.INDEXED and not coalesce_gathers:
        return lines
    if pattern is VMemPattern.INDEXED:
        # unique, stable order of first occurrence
        _, first_idx = np.unique(lines, return_index=True)
        return lines[np.sort(first_idx)]
    # unit/strided: drop consecutive duplicates
    keep = np.empty(lines.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


def _coalesced_spans(cols, coalesce_gathers: bool
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce every vector-mem record's arena span at once.

    Returns ``(vm_mask, coal_lines, c_off)``: a per-record bool mask of
    vector-mem records, the concatenated coalesced line requests, and
    ``(n+1,)`` offsets into them (empty spans for non-vmem records). The
    per-record results match :func:`_coalesce_lines` exactly; doing the
    whole arena in a handful of NumPy passes avoids a Python round-trip
    per record.
    """
    from repro.trace.events import NO_ID, OPCLASS_ID, PATTERN_ID, REC_VECTOR

    mem_id = OPCLASS_ID[VOpClass.MEM]
    idx_id = PATTERN_ID[VMemPattern.INDEXED]
    off = cols.addr_off
    lines_all = cols.addrs >> LINE_SHIFT
    A = lines_all.shape[0]
    vm_mask = (cols.kind == REC_VECTOR) & (cols.opclass == mem_id)
    keep = np.zeros(A, dtype=bool)

    def span_mask(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # +1/-1 edge histogram; bincount beats np.add.at by a wide margin
        edges = (np.bincount(lo, minlength=A + 1)
                 - np.bincount(hi, minlength=A + 1))
        return np.cumsum(edges[:A]) > 0

    seq_idx = np.flatnonzero(vm_mask & (cols.pattern != idx_id))
    if seq_idx.size:
        lo, hi = off[seq_idx], off[seq_idx + 1]
        diff = np.empty(A, dtype=bool)
        diff[0] = True
        np.not_equal(lines_all[1:], lines_all[:-1], out=diff[1:])
        keep |= span_mask(lo, hi) & diff
        keep[lo[hi > lo]] = True  # first element of a span always survives
    idx_idx = np.flatnonzero(vm_mask & (cols.pattern == idx_id))
    if idx_idx.size:
        lo, hi = off[idx_idx], off[idx_idx + 1]
        if not coalesce_gathers:
            keep |= span_mask(lo, hi)
        else:
            # unique-first-occurrence per span, all spans at once: make the
            # (span, line) pair a single sortable key
            lens = hi - lo
            total = int(lens.sum())
            pos = np.repeat(lo, lens) + (
                np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(lens) - lens, lens)
            )
            sub = lines_all[pos]
            span_id = np.repeat(np.arange(lens.shape[0], dtype=np.int64),
                                lens)
            m = int(sub.max()) + 1 if total else 1
            # first occurrence per (span, line) key: a stable (radix)
            # argsort puts the smallest original index first in each key
            # group — np.unique(return_index) would mergesort instead
            key = span_id * m + sub
            order = np.argsort(key, kind="stable")
            ks = key[order]
            grp = np.ones(ks.shape[0], dtype=bool)
            np.not_equal(ks[1:], ks[:-1], out=grp[1:])
            keep[pos[order[grp]]] = True

    coal_idx = np.flatnonzero(keep)
    coal_lines = lines_all[coal_idx]
    c_off = np.searchsorted(coal_idx, off).astype(np.int64)
    return vm_mask, coal_lines, c_off


def _prepare_rows(cols, config: SdvConfig
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized prep shared by both classification engines.

    Coalesces every vector-mem span and fills every knob-independent row
    field — everything except the hit/miss counters and levels the cache
    walk itself produces. Returns
    ``(rows, vm_mask, coal_lines, c_off, span_len, is_scalar)``.
    """
    from repro.trace.events import REC_BARRIER, REC_SCALAR, REC_VECTOR

    n = cols.n
    vm_mask, coal_lines, c_off = _coalesced_spans(
        cols, config.vpu.coalesce_gathers)
    off = cols.addr_off
    span_len = off[1:] - off[:-1]
    is_scalar = cols.kind == REC_SCALAR

    rows = np.zeros(n, dtype=ROW_DTYPE)
    rows["kind"] = np.where(
        cols.kind == REC_BARRIER, KIND_BARRIER,
        np.where(cols.kind == REC_VECTOR,
                 np.where(vm_mask, KIND_VMEM, KIND_VARITH),
                 KIND_SCALAR))
    rows["n_alu"] = cols.n_alu
    rows["n_mem"] = np.where(is_scalar, span_len, 0)
    rows["mlp_hint"] = cols.mlp
    rows["vl"] = cols.vl
    rows["active"] = cols.active
    rows["opclass"] = cols.opclass
    rows["pattern"] = cols.pattern
    rows["is_write"] = cols.is_write
    rows["dep"] = cols.dep
    rows["scalar_dest"] = cols.scalar_dest
    rows["n_line_reqs"] = c_off[1:] - c_off[:-1]
    return rows, vm_mask, coal_lines, c_off, span_len, is_scalar


def classify_trace(trace: TraceBuffer, config: SdvConfig) -> ClassifiedTrace:
    """Classify every memory reference of ``trace`` against fresh caches.

    Consumes the trace's columns directly (zero-copy). The cache walk
    below inlines the exact hit/LRU/victim decisions of
    :class:`SetAssocCache` and :class:`L2HomeNode` — minus their stats and
    directory bookkeeping, which classification never exposes — because a
    method call per line request dominates the sweep wall-clock otherwise;
    ``tests/memory`` pin the two implementations against each other. This
    sequential walker is the reference spec; the array-backed engine in
    :mod:`repro.memory.classify_fast` reproduces it bit-for-bit.
    """
    if not trace.sealed:
        raise TraceError("classify_trace requires a sealed trace")
    config.validate()
    from repro.obs.record import get_recorder

    get_recorder().count("classify.walk_runs")

    cols = trace.cols
    n = cols.n
    unit_id = _PATTERN_ID[VMemPattern.UNIT]
    prefetch_depth = config.core.l1_prefetch_depth

    # ---- vectorized prep: coalescing + bulk row fields -------------------
    rows, vm_mask, coal_lines, c_off, span_len, is_scalar = _prepare_rows(
        cols, config)
    off = cols.addr_off

    levels_per_record: list[np.ndarray | None] = [None] * n

    # only records that touch memory interact with the cache state
    work = np.flatnonzero((is_scalar & (span_len > 0)) | vm_mask)
    w_scalar = is_scalar[work].tolist()
    w_lo = off[work].tolist()
    w_hi = off[work + 1].tolist()
    w_clo = c_off[work].tolist()
    w_chi = c_off[work + 1].tolist()
    w_write = cols.is_write[work].tolist()
    w_fill = (cols.pattern[work] != unit_id).tolist()  # fill_on_store_miss
    lines_all = cols.addrs >> LINE_SHIFT
    writes_all = cols.writes

    l1_hits_a = np.zeros(n, dtype=np.int64)
    l2_hits_a = np.zeros(n, dtype=np.int64)
    dram_reads_a = np.zeros(n, dtype=np.int64)
    dram_writes_a = np.zeros(n, dtype=np.int64)
    pf_a = np.zeros(n, dtype=np.int64)

    # ---- cache state, same geometry/policy as SetAssocCache/L2HomeNode --
    # LRU sets as insertion-ordered dicts: oldest key first (the eviction
    # victim), most-recent last; a hit moves to the end via del+reinsert.
    # Same true-LRU policy as SetAssocCache, with O(1) membership and
    # reordering instead of list scans.
    l1_ways = config.core.l1d_ways
    n_sets1 = config.core.l1d_bytes // (l1_ways * LINE_BYTES)
    mask1 = n_sets1 - 1
    l1_tags: list[dict[int, None]] = [{} for _ in range(n_sets1)]
    l1_dirty: list[set[int]] = [set() for _ in range(n_sets1)]

    l2cfg = config.l2
    bank_mask = l2cfg.banks - 1
    bank_bits = log2_int(l2cfg.banks)
    l2_ways = l2cfg.ways
    n_sets2 = l2cfg.bank_bytes // (l2_ways * LINE_BYTES)
    mask2 = n_sets2 - 1
    # flat [bank * n_sets2 + set] indexing across all banks
    l2_tags: list[dict[int, None]] = [{} for _ in range(l2cfg.banks * n_sets2)]
    l2_dirty: list[set[int]] = [set() for _ in range(l2cfg.banks * n_sets2)]

    L1, L2, DRAM = (int(AccessLevel.L1), int(AccessLevel.L2),
                    int(AccessLevel.DRAM))

    def l2_ref(line: int, write: bool) -> tuple[bool, bool]:
        """L2 access; returns (hit, dirty_victim_evicted)."""
        local = line >> bank_bits
        si = (line & bank_mask) * n_sets2 + (local & mask2)
        tags = l2_tags[si]
        if local in tags:
            del tags[local]
            tags[local] = None
            if write:
                l2_dirty[si].add(local)
            return True, False
        tags[local] = None
        if write:
            l2_dirty[si].add(local)
        if len(tags) > l2_ways:
            victim = next(iter(tags))
            del tags[victim]
            d = l2_dirty[si]
            if victim in d:
                d.discard(victim)
                return False, True
        return False, False

    def l2_writeback(line: int) -> bool:
        """Dirty install from L1 (no fill); returns dirty_victim_evicted."""
        local = line >> bank_bits
        si = (line & bank_mask) * n_sets2 + (local & mask2)
        tags = l2_tags[si]
        d = l2_dirty[si]
        if local in tags:
            del tags[local]
            tags[local] = None
            d.add(local)
            return False
        tags[local] = None
        d.add(local)
        if len(tags) > l2_ways:
            victim = next(iter(tags))
            del tags[victim]
            if victim in d:
                d.discard(victim)
                return True
        return False

    # ---- the walk --------------------------------------------------------
    for w, i in enumerate(work.tolist()):
        if w_scalar[w]:
            lo, hi = w_lo[w], w_hi[w]
            lines = lines_all[lo:hi].tolist()
            wr = writes_all[lo:hi].tolist()
            m = hi - lo
            lv = np.empty(m, dtype=np.uint8)
            dram_writes = dram_reads = pf_reads = l1h = l2h = 0
            for j in range(m):
                line = lines[j]
                # L1 access (write-allocate, write-back, true LRU)
                si = line & mask1
                tags = l1_tags[si]
                if line in tags:
                    del tags[line]
                    tags[line] = None
                    if wr[j]:
                        l1_dirty[si].add(line)
                    lv[j] = L1
                    l1h += 1
                    continue
                tags[line] = None
                if wr[j]:
                    l1_dirty[si].add(line)
                if len(tags) > l1_ways:
                    victim = next(iter(tags))
                    del tags[victim]
                    d = l1_dirty[si]
                    if victim in d:
                        d.discard(victim)
                        if l2_writeback(victim):
                            dram_writes += 1
                hit2, dirty_victim = l2_ref(line, False)
                if dirty_victim:
                    dram_writes += 1
                if hit2:
                    lv[j] = L2
                    l2h += 1
                else:
                    lv[j] = DRAM
                    dram_reads += 1
                # next-N-line stream prefetch: fill L1 (and L2 on the way)
                # with the following lines; prefetch fills consume DRAM
                # bandwidth but, being non-blocking, add no demand stall
                for p_ in range(1, prefetch_depth + 1):
                    pline = line + p_
                    psi = pline & mask1
                    ptags = l1_tags[psi]
                    if pline in ptags:
                        continue
                    ph2, pdirty = l2_ref(pline, False)
                    if pdirty:
                        dram_writes += 1
                    if not ph2:
                        pf_reads += 1
                    ptags[pline] = None
                    if len(ptags) > l1_ways:
                        victim = next(iter(ptags))
                        del ptags[victim]
                        d = l1_dirty[psi]
                        if victim in d:
                            d.discard(victim)
                            if l2_writeback(victim):
                                dram_writes += 1
            l1_hits_a[i] = l1h
            l2_hits_a[i] = l2h
            dram_reads_a[i] = dram_reads
            dram_writes_a[i] = dram_writes
            pf_a[i] = pf_reads
            levels_per_record[i] = lv
            continue

        # vector memory record
        lines = coal_lines[w_clo[w]:w_chi[w]].tolist()
        is_write = w_write[w]
        # unit-stride stores allocate whole lines without fetching
        no_fill_store = is_write and not w_fill[w]
        lv = np.empty(len(lines), dtype=np.uint8)
        dram_writes = dram_reads = l2h = 0
        for j, line in enumerate(lines):
            # home-node recall of lines the scalar side holds
            si = line & mask1
            tags = l1_tags[si]
            if line in tags:
                del tags[line]
                d = l1_dirty[si]
                if line in d:
                    d.discard(line)
                    if l2_writeback(line):
                        dram_writes += 1
            # L2 access, inlined (== l2_ref): this is the hottest loop of
            # a sweep, and the call overhead alone is measurable
            local = line >> bank_bits
            si2 = (line & bank_mask) * n_sets2 + (local & mask2)
            tags2 = l2_tags[si2]
            if local in tags2:
                del tags2[local]
                tags2[local] = None
                if is_write:
                    l2_dirty[si2].add(local)
                lv[j] = L2
                l2h += 1
                continue
            tags2[local] = None
            if is_write:
                l2_dirty[si2].add(local)
            if len(tags2) > l2_ways:
                victim = next(iter(tags2))
                del tags2[victim]
                d2 = l2_dirty[si2]
                if victim in d2:
                    d2.discard(victim)
                    dram_writes += 1
            if no_fill_store:
                lv[j] = L2
                l2h += 1
            else:
                lv[j] = DRAM
                dram_reads += 1
        l2_hits_a[i] = l2h
        dram_reads_a[i] = dram_reads
        dram_writes_a[i] = dram_writes
        levels_per_record[i] = lv

    rows["l1_hits"] = l1_hits_a
    rows["l2_hits"] = l2_hits_a
    rows["dram_reads"] = dram_reads_a
    rows["dram_writes"] = dram_writes_a
    rows["pf_dram_reads"] = pf_a

    return ClassifiedTrace(rows=rows, levels=levels_per_record, trace=trace,
                           config=config)
