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

import ctypes
import enum
from dataclasses import dataclass, field

import numpy as np

from repro import native
from repro.config import SdvConfig
from repro.errors import TraceError
from repro.trace.events import (
    REC_SCALAR,
    REC_VECTOR,
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


#: one record's row of :attr:`ClassifiedTrace.rows`: the five counts the
#: cache walk decides for it
COUNT_DTYPE = np.dtype([
    ("l1_hits", np.int64),
    ("l2_hits", np.int64),
    ("dram_reads", np.int64),     # demand fills
    ("dram_writes", np.int64),    # writebacks + store traffic to DRAM
    ("pf_dram_reads", np.int64),  # prefetcher-issued DRAM fills (non-
                                  # blocking: bandwidth, not stall)
])

_OPCLASS_ID = {c: i for i, c in enumerate(VOpClass)}
_PATTERN_ID = {p: i for i, p in enumerate(VMemPattern)}


@dataclass
class ClassifiedTrace:
    """What the cache walk decided about each record of a trace.

    ``rows`` holds one :data:`COUNT_DTYPE` row per trace record.
    ``(req_off, lines)`` is the trace's line-request arena
    (:func:`line_requests`): record ``i`` requests
    ``lines[req_off[i]:req_off[i + 1]]``, and ``levels`` holds the
    :class:`AccessLevel` that served each request. Every other record
    field (kind, operation counts, VL, pattern, deps) is ``trace.cols``'
    own column; ``trace`` is the original buffer.
    """

    rows: np.ndarray
    req_off: np.ndarray
    lines: np.ndarray
    levels: np.ndarray
    trace: TraceBuffer
    config: SdvConfig

    # aggregate convenience
    totals: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.rows.shape[0]
        if (self.rows.dtype != COUNT_DTYPE or self.rows.shape != (n,)
                or self.req_off.shape != (n + 1,)
                or not (self.req_off[-1] == self.levels.shape[0]
                        == self.lines.shape[0])):
            raise TraceError("counts, levels and line requests misaligned")
        if not self.totals:
            r = self.rows
            cols = self.trace.cols
            scalar = cols.kind == REC_SCALAR
            self.totals = {
                "l1_hits": int(r["l1_hits"].sum()),
                "l2_hits": int(r["l2_hits"].sum()),
                "dram_reads": int(r["dram_reads"].sum()),
                "dram_writes": int(r["dram_writes"].sum()),
                "scalar_mem_ops": int(np.diff(cols.addr_off)[scalar].sum()),
                "vector_line_reqs": int(
                    np.diff(self.req_off)[~scalar].sum()),
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


# per-record rules of the compiled line requests (R_* in classify.c)
R_NONE, R_ALL, R_SEQ, R_GATHER = range(4)

_i64, _u8 = native.ndarray(np.int64), native.ndarray(np.uint8)
_o64 = native.ndarray(np.int64, writeable=True)
_ou8 = native.ndarray(np.uint8, writeable=True)
_c_i64 = ctypes.c_int64
#: argument types of ``repro_line_requests`` in ``classify.c``
_LINE_REQUESTS_ARGTYPES = [
    _c_i64, _u8, _i64, _i64, _c_i64,   # n, rule, off, addrs, line shift
    _c_i64, _o64, _o64,                # gather table: bits, lines, records
    _o64, _o64,                        # req_off, lines
]


def line_requests(cols, coalesce_gathers: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """A trace's 64-byte line requests in program order, as an arena.

    Returns ``(req_off, lines)``: record ``i`` requests
    ``lines[req_off[i]:req_off[i + 1]]``. A scalar block requests the line
    of each of its memory ops, a vector memory instruction its coalesced
    lines (the per-instruction rule of :func:`_coalesce_lines`), and every
    other record nothing. Classification, the event engines' plan and
    reuse profiles all read this one stream.

    The arena is built in ``classify.c``; where no compiler can build it,
    :func:`_numpy_line_requests`, its specification, runs instead. Either
    way the record spans must tile the address arena
    (:class:`TraceError` otherwise).
    """
    off = cols.addr_off
    n = cols.n
    # the compiled kernel reads the arena through these spans unchecked
    if not (off.shape == (n + 1,) and off[0] == 0
            and off[-1] == cols.addrs.shape[0]
            and (off[1:] >= off[:-1]).all()):
        raise TraceError("trace spans do not tile its address arena")
    fn = native.function("repro_line_requests", _LINE_REQUESTS_ARGTYPES,
                         _c_i64)
    if fn is None:
        return _numpy_line_requests(cols, coalesce_gathers)

    vm = ((cols.kind == REC_VECTOR)
          & (cols.opclass == _OPCLASS_ID[VOpClass.MEM]))
    gather = vm & (cols.pattern == _PATTERN_ID[VMemPattern.INDEXED])
    rule = np.zeros(n, dtype=np.uint8)
    rule[cols.kind == REC_SCALAR] = R_ALL
    rule[vm] = R_SEQ
    rule[gather] = R_GATHER if coalesce_gathers else R_ALL
    # a dedup table at most half full for the widest gather span
    widest = int((off[1:] - off[:-1])[gather].max(initial=0)
                 if coalesce_gathers else 0)
    bits = max(1, (2 * widest - 1).bit_length())
    req_off = np.empty(n + 1, dtype=np.int64)
    lines = np.empty(cols.addrs.shape[0], dtype=np.int64)
    m = fn(n, rule, off, cols.addrs, LINE_SHIFT, bits,
           np.empty(1 << bits, dtype=np.int64),
           np.full(1 << bits, -1, dtype=np.int64), req_off, lines)
    lines.resize(m, refcheck=False)  # in place: no arena-sized tail stays
    return req_off, lines


def _numpy_line_requests(cols, coalesce_gathers: bool
                         ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`line_requests` in NumPy, every span at once: the
    specification of ``repro_line_requests`` and its fallback. The spans
    must tile the arena."""
    mem_id = _OPCLASS_ID[VOpClass.MEM]
    idx_id = _PATTERN_ID[VMemPattern.INDEXED]
    off = cols.addr_off
    lines_all = cols.addrs >> LINE_SHIFT
    A = lines_all.shape[0]
    vm_mask = (cols.kind == REC_VECTOR) & (cols.opclass == mem_id)

    def span_mask(records: np.ndarray) -> np.ndarray:
        # the spans tile the arena in record order, so a per-record mask
        # repeats into a per-element one
        return np.repeat(records, off[1:] - off[:-1])

    keep = span_mask(cols.kind == REC_SCALAR)
    seq_rec = vm_mask & (cols.pattern != idx_id)
    if seq_rec.any():
        seq_idx = np.flatnonzero(seq_rec)
        lo, hi = off[seq_idx], off[seq_idx + 1]
        diff = np.empty(A, dtype=bool)
        diff[:1] = True  # the arena may be empty: all spans of length 0
        np.not_equal(lines_all[1:], lines_all[:-1], out=diff[1:])
        keep |= span_mask(seq_rec) & diff
        keep[lo[hi > lo]] = True  # first element of a span always survives
    idx_rec = vm_mask & (cols.pattern == idx_id)
    if idx_rec.any():
        idx_idx = np.flatnonzero(idx_rec)
        lo, hi = off[idx_idx], off[idx_idx + 1]
        if not coalesce_gathers:
            keep |= span_mask(idx_rec)
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

    req_idx = np.flatnonzero(keep)
    return (np.searchsorted(req_idx, off).astype(np.int64),
            lines_all[req_idx])


# per-record modes of the cache walks (M_* in classify.c)
M_NONE, M_SCALAR, M_VLOAD, M_VSTORE, M_VSTORE_NOFILL = range(5)

#: argument types of ``repro_classify`` in ``classify.c``
_CLASSIFY_ARGTYPES = [
    _c_i64, _u8,                                    # n, mode
    _i64, _i64, _c_i64, native.ndarray(np.bool_),   # off .. writes
    _i64, _i64,                                     # req_off, lines
    _c_i64, _c_i64, _c_i64,                         # L1 geometry, prefetch
    _c_i64, _c_i64, _c_i64, _c_i64,                 # L2 geometry
    _o64, _ou8, _o64, _o64, _ou8, _o64,             # L1 and L2 set state
    native.ndarray(COUNT_DTYPE, writeable=True), _ou8,  # rows, levels
]


def _geometry(config: SdvConfig) -> tuple[int, int, int, int, int, int]:
    """``(l1 sets, l1 ways, banks, bank bits, sets per bank, l2 ways)``:
    the L1D and each L2 bank are :class:`SetAssocCache`-shaped, and lines
    interleave across the banks by their low address bits."""
    l1_ways = config.core.l1d_ways
    l2cfg = config.l2
    return (config.core.l1d_bytes // (l1_ways * LINE_BYTES), l1_ways,
            l2cfg.banks, log2_int(l2cfg.banks),
            l2cfg.bank_bytes // (l2cfg.ways * LINE_BYTES), l2cfg.ways)


def _modes(cols) -> np.ndarray:
    """Each record's ``M_*`` mode: what it does to the caches. A scalar
    block with memory ops walks the L1D; a vector load, store or
    unit-stride store (which allocates without a fill) goes to the L2;
    anything else does nothing."""
    vm = ((cols.kind == REC_VECTOR)
          & (cols.opclass == _OPCLASS_ID[VOpClass.MEM]))
    store = cols.is_write != 0
    unit = cols.pattern == _PATTERN_ID[VMemPattern.UNIT]
    off = cols.addr_off
    mode = np.zeros(cols.n, dtype=np.uint8)
    mode[(cols.kind == REC_SCALAR) & (off[1:] > off[:-1])] = M_SCALAR
    mode[vm] = np.where(store, np.where(unit, M_VSTORE_NOFILL, M_VSTORE),
                        M_VLOAD)[vm]
    return mode


def classify_backend() -> str:
    """The walk classification runs on in this process: ``"compiled"``
    or ``"python"``."""
    return "python" if native.library() is None else "compiled"


def classify_trace(trace: TraceBuffer, config: SdvConfig) -> ClassifiedTrace:
    """Classify every memory reference of ``trace`` against fresh caches.

    Consumes the trace's columns directly (zero-copy). The line requests
    (:func:`line_requests`) and the cache walk run in a small C kernel,
    ``classify.c``, built and loaded by :mod:`repro.native`, which writes
    each record's counts straight into its row. Where no compiler can
    build it, the NumPy line requests and the dict walk
    (:func:`_dict_walk`) run instead, which are the specification: the
    two agree bit-for-bit on rows, levels and totals, and
    ``tests/memory`` pins that on both paths. A trace whose deps do not
    all name earlier records is rejected (:class:`TraceError`).
    """
    if not trace.sealed:
        raise TraceError("classify_trace requires a sealed trace")
    config.validate()
    from repro.obs.record import get_recorder

    cols = trace.cols
    # the compiled walk reads the write flags through the arena spans,
    # which line_requests checks before either kernel runs
    if cols.writes.shape != cols.addrs.shape:
        raise TraceError("trace write flags do not match its address arena")
    # every engine walks deps backward, from this classification on
    cols.check_deps()
    req_off, lines = line_requests(cols, config.vpu.coalesce_gathers)
    mode = _modes(cols)
    fn = native.function("repro_classify", _CLASSIFY_ARGTYPES)
    if fn is None:
        rows, levels = _dict_walk(cols, config, mode, req_off, lines)
    else:
        rows, levels = _c_walk(fn, cols, config, mode, req_off, lines)
    ct = ClassifiedTrace(rows=rows, req_off=req_off, lines=lines,
                         levels=levels, trace=trace, config=config)

    rec = get_recorder()
    if rec.on:
        n_sets1, _, banks, _, n_sets2, _ = _geometry(config)
        rec.count("classify.runs")
        rec.count("classify.units", ct.totals["scalar_mem_ops"]
                  + ct.totals["vector_line_reqs"])
        rec.high("classify.l1_sets", n_sets1)
        rec.high("classify.l2_sets", banks * n_sets2)
    return ct


def _c_walk(fn, cols, config: SdvConfig, mode: np.ndarray,
            req_off: np.ndarray, lines: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The cache walk in the compiled kernel; returns the
    :data:`COUNT_DTYPE` rows and the flat levels."""
    n = cols.n
    # the kernel indexes without bounds checks: classify_trace checked
    # the arena spans, and the request spans must tile their lines too
    if not (req_off.shape == (n + 1,) and req_off[0] == 0
            and req_off[-1] == lines.shape[0]
            and (req_off[1:] >= req_off[:-1]).all()):
        raise TraceError("line-request spans do not tile their lines")

    n_sets1, l1_ways, banks, bank_bits, n_sets2, l2_ways = _geometry(config)
    n_sets2_all = banks * n_sets2
    rows = np.zeros(n, dtype=COUNT_DTYPE)
    # one level per request: a scalar block's requests are its arena span
    levels = np.empty(lines.shape[0], dtype=np.uint8)
    fn(n, mode, cols.addr_off, cols.addrs, LINE_SHIFT, cols.writes, req_off,
       lines, n_sets1, l1_ways, config.core.l1_prefetch_depth,
       banks, bank_bits, n_sets2, l2_ways,
       np.zeros(n_sets1 * l1_ways, dtype=np.int64),
       np.zeros(n_sets1 * l1_ways, dtype=np.uint8),
       np.zeros(n_sets1, dtype=np.int64),
       np.zeros(n_sets2_all * l2_ways, dtype=np.int64),
       np.zeros(n_sets2_all * l2_ways, dtype=np.uint8),
       np.zeros(n_sets2_all, dtype=np.int64),
       rows, levels)
    return rows, levels


def _dict_walk(cols, config: SdvConfig, mode: np.ndarray,
               req_off: np.ndarray, lines: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The cache walk in Python: the specification of ``classify.c``.

    The L1D and every L2 bank are true-LRU, write-allocate, write-back
    sets, the policy of :class:`SetAssocCache`. ``tests/memory`` pin the
    compiled walk to this one. Returns what :func:`_c_walk` returns.
    """
    n = cols.n
    prefetch_depth = config.core.l1_prefetch_depth
    off = cols.addr_off
    levels = np.empty(lines.shape[0], dtype=np.uint8)

    # only records that touch memory interact with the cache state
    work = np.flatnonzero(mode != M_NONE)
    w_mode = mode[work].tolist()
    w_lo = off[work].tolist()
    w_hi = off[work + 1].tolist()
    w_rlo = req_off[work].tolist()
    w_rhi = req_off[work + 1].tolist()
    writes_all = cols.writes

    rows = np.zeros(n, dtype=COUNT_DTYPE)
    l1_hits_a, l2_hits_a, dram_reads_a, dram_writes_a, pf_a = (
        rows[name] for name in COUNT_DTYPE.names)

    # ---- cache state: the L1D and the banked L2 ---------------------------
    # LRU sets as insertion-ordered dicts: oldest key first (the eviction
    # victim), most-recent last; a hit moves to the end via del+reinsert.
    # Same true-LRU policy as SetAssocCache, with O(1) membership and
    # reordering instead of list scans.
    n_sets1, l1_ways, banks, bank_bits, n_sets2, l2_ways = _geometry(config)
    mask1 = n_sets1 - 1
    l1_tags: list[dict[int, None]] = [{} for _ in range(n_sets1)]
    l1_dirty: list[set[int]] = [set() for _ in range(n_sets1)]

    bank_mask = banks - 1
    mask2 = n_sets2 - 1
    # flat [bank * n_sets2 + set] indexing across all banks
    l2_tags: list[dict[int, None]] = [{} for _ in range(banks * n_sets2)]
    l2_dirty: list[set[int]] = [set() for _ in range(banks * n_sets2)]

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
        # the record's line requests, and where their levels go
        refs = lines[w_rlo[w]:w_rhi[w]].tolist()
        lv = levels[w_rlo[w]:w_rhi[w]]
        if w_mode[w] == M_SCALAR:
            wr = writes_all[w_lo[w]:w_hi[w]].tolist()
            m = len(refs)
            dram_writes = dram_reads = pf_reads = l1h = l2h = 0
            for j in range(m):
                line = refs[j]
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
            continue

        # vector memory record
        is_write = w_mode[w] != M_VLOAD
        # unit-stride stores allocate whole lines without fetching
        no_fill_store = w_mode[w] == M_VSTORE_NOFILL
        dram_writes = dram_reads = l2h = 0
        for j, line in enumerate(refs):
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

    return rows, levels
