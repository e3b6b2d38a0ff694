"""Array-backed trace classification (the stack-distance engine).

Produces a **bit-identical** :class:`repro.memory.classify.ClassifiedTrace`
to the sequential walker :func:`repro.memory.classify.classify_trace`,
orders of magnitude faster at paper scale. The walker steps dict-based
LRU sets one line request at a time; this engine exploits the fact that
in a set-associative true-LRU cache **every set is independent**: a
reference hits iff fewer than ``ways`` distinct lines touched its set
since the previous touch of the same line (its per-set stack distance).

The pipeline is staged (see ``docs/memory-model.md``):

1. **Unit stream** — flatten the trace into one global, program-ordered
   stream of cache "units": scalar elements (L1 demand accesses) and
   coalesced vector line requests (L1 recalls + L2 references).
2. **L1 pass** — only scalar units and the vector units whose line the
   scalar side ever touched can interact with L1 (vector traffic
   bypasses L1; a recall of a never-scalar-touched line is a provable
   no-op). These are partitioned by L1 set and stepped through a
   *lockstep* bounded-LRU kernel: per-set streams advance in rounds, one
   op per set per round, with the LRU stacks of all sets held in one
   ``(sets, ways)`` matrix so every round is a handful of NumPy ops.
   With a stream prefetcher enabled (``l1_prefetch_depth > 0``, an
   ablation — prefetch fills depend on the *demand miss* outcome, which
   couples sets) the L1 pass falls back to an exact sequential sub-walk
   over this filtered stream, which is still tiny for vector kernels.
3. **L2 op stream** — L1 outcomes expand into the exact L2 operation
   sequence of the walker: dirty-victim writebacks *before* their demand
   reference, recall writebacks before the vector reference, prefetch
   references before their own victim writebacks. Every op carries a
   global sort key preserving the walker's per-set interleaving.
4. **L2 pass** — every L2 op (reference or writeback) is a pure
   LRU touch-or-install, so one lockstep run over the banked L2 sets
   yields hits and dirty-victim evictions; levels and per-record
   counters then fall out of vectorized scatters.

The walker remains the reference/spec (same pattern as the ``event`` vs
``event-ref`` engines); ``tests/memory/test_classify_fast.py`` pins the
two bit-identical across kernels, geometries, prefetch depths and
coalescing settings. The lockstep kernel is shared with
:meth:`repro.memory.cache.SetAssocCache.access_lines` and the partition
helpers with :mod:`repro.memory.reuse`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.config import SdvConfig
from repro.errors import TraceError
from repro.memory.classify import (
    LINE_SHIFT,
    AccessLevel,
    ClassifiedTrace,
    _PATTERN_ID,
    _prepare_rows,
    classify_trace,
)
from repro.trace.events import TraceBuffer, VMemPattern
from repro.util.mathx import log2_int
from repro.util.units import LINE_BYTES

_L1, _L2, _DRAM = (int(AccessLevel.L1), int(AccessLevel.L2),
                   int(AccessLevel.DRAM))


# --------------------------------------------------------------- partition

def ragged_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat gather indices for a batch of spans: ``concat(arange(s, s+l))``.

    The standard ragged-range construction shared by the unit-stream
    builder and :func:`repro.memory.reuse.line_stream`.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return (
        np.repeat(starts.astype(np.int64), lens)
        + np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(lens) - lens, lens)
    )


def prev_occurrence(lines: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (-1 for first touch).

    Vectorized (one stable sort); the shared compulsory-miss accounting
    of the classifier and :func:`repro.memory.reuse.reuse_distances`.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(lines, kind="stable")
    ls = lines[order]
    same = np.zeros(n, dtype=bool)
    np.equal(ls[1:], ls[:-1], out=same[1:])
    prev[order[same]] = order[np.flatnonzero(same) - 1]
    return prev


def first_touch_mask(lines: np.ndarray) -> np.ndarray:
    """True at every compulsory (first-touch) access of a line stream."""
    return prev_occurrence(lines) < 0


def schedule_rounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a per-row op stream into lockstep rounds.

    ``rows[i]`` is the state-row (set) of op ``i``, ops in stream order.
    Returns ``(order, bounds)``: round ``r`` is the op slice
    ``order[bounds[r]:bounds[r+1]]``, containing at most one op per row,
    and every row's ops appear in stream order across rounds.
    """
    n = rows.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    new_grp = np.zeros(n, dtype=bool)
    new_grp[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=new_grp[1:])
    idx = np.arange(n, dtype=np.int64)
    grp_start = np.maximum.accumulate(np.where(new_grp, idx, 0))
    pos_sorted = idx - grp_start
    pos = np.empty(n, dtype=np.int64)
    pos[by_row] = pos_sorted
    order = np.argsort(pos, kind="stable")
    counts = np.bincount(pos_sorted)
    bounds = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return order, bounds


# ---------------------------------------------------------- lockstep kernel

#: packed timestamp of an empty way — even (clean) and below any real
#: stamp, so ``argmin`` fills empty ways before evicting the LRU way
_EMPTY_TS = -(1 << 50)
#: subtracted from a tag-matching way's timestamp so one fused ``argmin``
#: picks the hit way when present, else the LRU/empty way
_HIT_OFF = 1 << 62
#: picked-way values below this are hits (real/empty stamps stay above)
_HIT_CUT = -(1 << 61)
#: rounds with fewer active rows than this finish in the sequential tail
#: (a round's fixed vectorization overhead ~ hundreds of dict-walk ops)
_TAIL_MIN = 128


class LockstepLru:
    """Bounded true-LRU sets for many independent rows, stepped in rounds.

    Rather than physically keeping each set's recency *order* (which
    would mean shifting a ``(rows, ways)`` matrix every round), state is
    tag + last-touch timestamp per way, interleaved in one
    ``(rows, 2*ways)`` matrix so a round gathers each active row once:
    LRU order is "oldest timestamp", move-to-front is a single timestamp
    store, and the eviction victim is an ``argmin`` over timestamps
    (empty ways carry ``_EMPTY_TS`` so they are always filled first).
    The dirty bit rides in the timestamp's parity bit (stamps are
    ``2*time + dirty``; recency order is unaffected). :meth:`run`
    replays an op stream — at most one op per row per round — with every
    round a handful of vectorized ops across the active rows. Semantics
    match :class:`repro.memory.cache.SetAssocCache` / the dict walk of
    :func:`repro.memory.classify.classify_trace` exactly.
    """

    def __init__(self, n_rows: int, ways: int) -> None:
        self.ways = ways
        self.state = np.empty((n_rows, 2 * ways), dtype=np.int64)
        self.state[:, :ways] = -1
        self.state[:, ways:] = _EMPTY_TS
        self._now = 0  # monotone across run() calls on the same instance

    def load_row(self, row: int, tags: list[int], dirty: set[int]) -> None:
        """Warm-start one row from MRU-first tag list + dirty tag set."""
        k = len(tags)
        W = self.ways
        self.state[row, :k] = tags
        # MRU-first list -> descending (negative) pre-run stamps, with
        # the dirty bit packed into the parity
        self.state[row, W:W + k] = [
            -2 * (i + 1) + (1 if t in dirty else 0)
            for i, t in enumerate(tags)
        ]

    def dump_row(self, row: int) -> tuple[list[int], set[int]]:
        """Final MRU-first tags + dirty tags of one row."""
        W = self.ways
        ts = self.state[row, W:]
        k = int((ts != _EMPTY_TS).sum())
        order = np.argsort(-ts, kind="stable")[:k]
        tags = self.state[row, order].tolist()
        d = ts[order] & 1
        return tags, {t for t, bit in zip(tags, d.tolist()) if bit}

    def run(self, rows: np.ndarray, tags: np.ndarray, writes: np.ndarray,
            recalls: np.ndarray | None = None,
            want_victims: bool = False,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Replay an op stream; returns per-op outcome arrays.

        Ops are *touches* (demand access: LRU move-to-front or install,
        ``writes`` marks the line dirty) unless flagged in ``recalls``
        (coherence recall: remove the line if present, report whether it
        was present and dirty; no install). Returns
        ``(hit, hit_dirty, evict_dirty, victim_tag)``:

        * ``hit`` — touch: present before the access; recall: present;
        * ``hit_dirty`` — the hit way's dirty bit *before* the op (the
          recall-writeback predicate);
        * ``evict_dirty`` — a touch-miss evicted a dirty victim;
        * ``victim_tag`` — the evicted tag (-1 = none), only built when
          ``want_victims`` (L1 victims become L2 writeback ops; L2
          victims only matter through their dirty bit).
        """
        n = rows.shape[0]
        hit = np.zeros(n, dtype=bool)
        hit_dirty = np.zeros(n, dtype=bool)
        evict_dirty = np.zeros(n, dtype=bool)
        victim_tag = np.full(n, -1, dtype=np.int64) if want_victims else None
        if n == 0:
            return hit, hit_dirty, evict_dirty, victim_tag

        # ---- per-row substreams + MRU-run collapse ------------------------
        # Sorting stably by row lays every row's ops out contiguously in
        # stream order. Within a row, a *run* of consecutive touches of
        # the same tag is all guaranteed hits after the first op with no
        # state change other than OR-ing their dirty marks (the line is
        # already MRU; nothing else intervenes in that row), so only run
        # heads enter the simulated stream — this collapse is what tames
        # rows hammered by a hot line. Recalls never collapse and always
        # break the run around them. Row indices fit int32 (set counts
        # are small), halving the radix-sort passes.
        by_row = np.argsort(rows.astype(np.int32, copy=False),
                            kind="stable")
        r_s = rows[by_row]
        t_s = tags[by_row]
        start = np.ones(n, dtype=bool)
        start[1:] = (r_s[1:] != r_s[:-1]) | (t_s[1:] != t_s[:-1])
        if recalls is not None:
            rc_s = recalls[by_row]
            start |= rc_s
            start[1:] |= rc_s[:-1]
        kidx = np.flatnonzero(start)
        m = kidx.shape[0]
        w_run = np.logical_or.reduceat(writes[by_row], kidx)
        k_rows = r_s[kidx]
        k_tags = t_s[kidx]
        k_rc = rc_s[kidx] if recalls is not None else None

        # collapsed ops are guaranteed touch hits (scattered back at the end)
        hit_s = ~start

        # ---- rounds over the collapsed stream (already row-sorted) --------
        idx = np.arange(m, dtype=np.int32)
        new_grp = np.ones(m, dtype=bool)
        new_grp[1:] = k_rows[1:] != k_rows[:-1]
        grp_start = np.maximum.accumulate(
            np.where(new_grp, idx, np.int32(0)))
        pos = idx - grp_start
        order = np.argsort(pos, kind="stable")
        cnt = np.bincount(pos)
        bounds = np.zeros(cnt.shape[0] + 1, dtype=np.int64)
        np.cumsum(cnt, out=bounds[1:])
        slices = bounds.tolist()

        W = self.ways
        state = self.state
        now0 = self._now
        n_rounds = len(slices) - 1

        # hybrid tail: per-round counts are non-increasing, and a round's
        # fixed vectorization overhead swamps its per-op work once few
        # rows stay active — finish those long per-row tails with an
        # exact dict walk seeded from (and written back to) matrix state
        tail_at = np.flatnonzero(cnt < _TAIL_MIN)
        c = int(tail_at[0]) if tail_at.shape[0] else n_rounds
        self._now = now0 + (c + W if c < n_rounds else n_rounds)
        ar_all = np.arange(int(cnt[0]) if c else 0, dtype=np.int64)

        # pre-permute the streams into round order so every round reads
        # contiguous views and writes contiguous outcome buffers; one
        # scatter per output at the end undoes the permutation
        kr = k_rows[order]
        kt = k_tags[order]
        kw = w_run[order]
        krc = k_rc[order] if k_rc is not None else None
        hit_o = np.zeros(m, dtype=bool)
        hd_o = np.zeros(m, dtype=bool)
        ev_o = np.zeros(m, dtype=bool)
        vt_o = np.full(m, -1, dtype=np.int64) if want_victims else None

        for r in range(c):
            a, b = slices[r], slices[r + 1]
            rw = kr[a:b]
            tg = kt[a:b]
            g = state[rw]                         # (K, 2W) snapshot
            st = g[:, :W]
            tr = g[:, W:]
            # fused hit-way / LRU-way pick: a matching way's stamp drops
            # below every real or empty stamp; else argmin lands on the
            # first empty (or LRU) way
            sel = tr - (st == tg[:, None]) * _HIT_OFF
            way = sel.argmin(axis=1)
            ar = ar_all[:b - a]
            minv = sel[ar, way]
            hit_r = minv < _HIT_CUT
            odd = (minv & 1).astype(bool)         # picked way's dirty bit
            hd_r = hit_r & odd
            hit_o[a:b] = hit_r
            hd_o[a:b] = hd_r
            wv = kw[a:b]

            if krc is not None:
                rc = krc[a:b]
                # ---- recalls: delete-if-present
                r_idx = np.flatnonzero(rc & hit_r)
                if r_idx.shape[0]:
                    rwr, wr_ = rw[r_idx], way[r_idx]
                    state[rwr, wr_] = -1
                    state[rwr, wr_ + W] = _EMPTY_TS
                t_idx = np.flatnonzero(~rc)
                if t_idx.shape[0] == 0:
                    continue
                ebuf = ev_o[a:b]
                vbuf = vt_o[a:b] if vt_o is not None else None
                rw, tg, wv = rw[t_idx], tg[t_idx], wv[t_idx]
                hit_r, way, odd, hd_r = (hit_r[t_idx], way[t_idx],
                                         odd[t_idx], hd_r[t_idx])
                minv, st = minv[t_idx], st[t_idx]
                # ---- touches: recall and touch rows are disjoint, so
                # the pre-recall snapshot stays valid
                ev = ~hit_r & (minv != _EMPTY_TS)
                ebuf[t_idx] = ev & odd
                if vbuf is not None and ev.any():
                    e = np.flatnonzero(ev)
                    vbuf[t_idx[e]] = st[e, way[e]]
                state[rw, way] = tg
                state[rw, way + W] = ((now0 + r) << 1) + (hd_r | wv)
                continue

            # ---- touches: timestamp bump / install over the picked way.
            # A miss's pick is an empty way unless the row is full, so a
            # non-empty pick on a miss is an eviction; the victim's dirty
            # bit is the picked stamp's parity (empties are even).
            ev = ~hit_r & (minv != _EMPTY_TS)
            ev_o[a:b] = ev & odd
            if vt_o is not None and ev.any():
                e = np.flatnonzero(ev)
                vt_o[a:b][e] = st[e, way[e]]
            state[rw, way] = tg
            state[rw, way + W] = ((now0 + r) << 1) + (hd_r | wv)

        # undo the round permutation, then let the tail fill kept-space
        hit_k = np.zeros(m, dtype=bool)
        hd_k = np.zeros(m, dtype=bool)
        ev_k = np.zeros(m, dtype=bool)
        hit_k[order] = hit_o
        hd_k[order] = hd_o
        ev_k[order] = ev_o
        vt_k = None
        if vt_o is not None:
            vt_k = np.full(m, -1, dtype=np.int64)
            vt_k[order] = vt_o

        if c < n_rounds:
            self._run_tail(c, new_grp, k_rows, k_tags, w_run, k_rc,
                           now0 + c, hit_k, hd_k, ev_k, vt_k)

        # ---- scatter collapsed-stream outcomes back to stream order -------
        hit_s[kidx] = hit_k
        hit[by_row] = hit_s
        hd_full = np.zeros(n, dtype=bool)
        hd_full[kidx] = hd_k
        hit_dirty[by_row] = hd_full
        ev_full = np.zeros(n, dtype=bool)
        ev_full[kidx] = ev_k
        evict_dirty[by_row] = ev_full
        if want_victims and victim_tag is not None and vt_k is not None:
            vt_full = np.full(n, -1, dtype=np.int64)
            vt_full[kidx] = vt_k
            victim_tag[by_row] = vt_full
        return hit, hit_dirty, evict_dirty, victim_tag

    def _run_tail(self, c: int, new_grp: np.ndarray, k_rows: np.ndarray,
                  k_tags: np.ndarray, w_run: np.ndarray,
                  k_rc: np.ndarray | None, ts_base: int,
                  hit_k: np.ndarray, hd_k: np.ndarray, ev_k: np.ndarray,
                  vt_k: np.ndarray | None) -> None:
        """Finish ops past round ``c`` with an exact per-row dict walk.

        Rows are independent, so each row's leftover ops (position >= c
        in its collapsed substream) replay sequentially against an
        insertion-ordered dict seeded from the row's matrix state —
        LRU-first, matching the walker's ``next(iter(t))`` victim pick —
        and the final stack is written back with fresh timestamps.
        """
        m = k_rows.shape[0]
        W = self.ways
        state = self.state
        starts_g = np.flatnonzero(new_grp)
        ends_g = np.append(starts_g[1:], m)
        long_g = np.flatnonzero(ends_g - starts_g > c)
        for s0, s1 in zip((starts_g[long_g] + c).tolist(),
                          ends_g[long_g].tolist()):
            row = int(k_rows[s0])
            trow = state[row, :W]
            tsrow = state[row, W:]
            occ = int((tsrow != _EMPTY_TS).sum())
            t: dict[int, None] = {}
            d: set[int] = set()
            if occ:
                # ascending-timestamp order: empty ways first, then
                # occupied oldest -> newest
                ways_lru = np.argsort(tsrow, kind="stable")[W - occ:]
                for wi in ways_lru.tolist():
                    tg = int(trow[wi])
                    t[tg] = None
                    if tsrow[wi] & 1:
                        d.add(tg)
            tg_l = k_tags[s0:s1].tolist()
            wr_l = w_run[s0:s1].tolist()
            rc_l = k_rc[s0:s1].tolist() if k_rc is not None else None
            for jj, tag in enumerate(tg_l):
                j = s0 + jj
                if rc_l is not None and rc_l[jj]:
                    if tag in t:
                        hit_k[j] = True
                        del t[tag]
                        if tag in d:
                            hd_k[j] = True
                            d.discard(tag)
                    continue
                if tag in t:
                    hit_k[j] = True
                    if tag in d:
                        hd_k[j] = True
                    del t[tag]
                    t[tag] = None
                    if wr_l[jj]:
                        d.add(tag)
                    continue
                t[tag] = None
                if wr_l[jj]:
                    d.add(tag)
                if len(t) > W:
                    victim = next(iter(t))
                    del t[victim]
                    if victim in d:
                        d.discard(victim)
                        ev_k[j] = True
                    if vt_k is not None:
                        vt_k[j] = victim
            trow.fill(-1)
            tsrow.fill(_EMPTY_TS)
            for i2, tg in enumerate(t):
                trow[i2] = tg
                tsrow[i2] = ((ts_base + i2) << 1) + (1 if tg in d else 0)


# ------------------------------------------------------------- unit stream

def _build_units(cols: Any, work: np.ndarray, is_scalar: np.ndarray,
                 span_len: np.ndarray, coal_lines: np.ndarray,
                 c_off: np.ndarray, unit_pattern_id: int
                 ) -> dict[str, np.ndarray]:
    """Flatten work records into the global, program-ordered unit stream.

    A *unit* is one cache interaction slot: a scalar memory element or a
    coalesced vector line request. Unit ``u`` is also level slot ``u`` of
    the flat per-record levels arena.
    """
    sc_w = is_scalar[work]
    cnt = np.where(sc_w, span_len[work],
                   c_off[work + 1] - c_off[work]).astype(np.int64)
    u_off = np.zeros(work.shape[0] + 1, dtype=np.int64)
    np.cumsum(cnt, out=u_off[1:])
    total = int(u_off[-1])

    starts = np.where(sc_w, cols.addr_off[work], c_off[work])
    src = ragged_indices(starts, cnt)
    is_scalar_u = np.repeat(sc_w, cnt)
    rec_u = np.repeat(work, cnt)

    lines_all = cols.addrs >> LINE_SHIFT
    line_u = np.empty(total, dtype=np.int64)
    line_u[is_scalar_u] = lines_all[src[is_scalar_u]]
    line_u[~is_scalar_u] = coal_lines[src[~is_scalar_u]]

    write_u = np.empty(total, dtype=bool)
    write_u[is_scalar_u] = cols.writes[src[is_scalar_u]]
    rec_write = np.repeat(cols.is_write[work].astype(bool), cnt)
    write_u[~is_scalar_u] = rec_write[~is_scalar_u]

    # unit-stride vector stores allocate whole lines without fetching
    nofill_w = (cols.is_write[work].astype(bool) & ~sc_w
                & (cols.pattern[work] == unit_pattern_id))
    nofill_u = np.repeat(nofill_w, cnt)

    return {"line": line_u, "write": write_u, "rec": rec_u,
            "is_scalar": is_scalar_u, "nofill": nofill_u,
            "u_off": u_off, "cnt": cnt}


# ------------------------------------------------------- the staged engine

def classify_trace_fast(trace: TraceBuffer,
                        config: SdvConfig) -> ClassifiedTrace:
    """Classify ``trace`` with the array-backed stack-distance engine.

    Bit-identical to :func:`repro.memory.classify.classify_trace` (rows,
    per-record levels, totals); see the module docstring for the staged
    pipeline.
    """
    if not trace.sealed:
        raise TraceError("classify_trace_fast requires a sealed trace")
    config.validate()
    from repro.obs.engine_stats import get_engine_stats, \
        introspection_enabled

    stats = get_engine_stats() if introspection_enabled() else None
    if stats is not None:
        stats.count("classify.stack_runs")

    cols = trace.cols
    n = cols.n
    rows, vm_mask, coal_lines, c_off, span_len, is_scalar = _prepare_rows(
        cols, config)
    levels: list[np.ndarray | None] = [None] * n

    work = np.flatnonzero((is_scalar & (span_len > 0)) | vm_mask)
    if work.shape[0] == 0:
        return ClassifiedTrace(rows=rows, levels=levels, trace=trace,
                               config=config)

    unit_id = _PATTERN_ID[VMemPattern.UNIT]
    units = _build_units(cols, work, is_scalar, span_len, coal_lines,
                         c_off, unit_id)
    line_u, write_u = units["line"], units["write"]
    rec_u, is_scalar_u = units["rec"], units["is_scalar"]
    nofill_u, u_off = units["nofill"], units["u_off"]
    U = line_u.shape[0]
    if stats is not None:
        stats.count("classify.units", U)

    # geometry (same derivations as the walker)
    core, l2cfg = config.core, config.l2
    l1_ways = core.l1d_ways
    n_sets1 = core.l1d_bytes // (l1_ways * LINE_BYTES)
    mask1 = n_sets1 - 1
    bank_mask = l2cfg.banks - 1
    bank_bits = log2_int(l2cfg.banks)
    l2_ways = l2cfg.ways
    n_sets2 = l2cfg.bank_bytes // (l2_ways * LINE_BYTES)
    mask2 = n_sets2 - 1
    depth = core.l1_prefetch_depth

    # ---------------- stage 2: the L1 pass --------------------------------
    scalar_u = np.flatnonzero(is_scalar_u)
    vec_u = np.flatnonzero(~is_scalar_u)
    l1_hit = np.zeros(U, dtype=bool)
    recall_dirty = np.zeros(U, dtype=bool)
    victim_line = np.full(U, -1, dtype=np.int64)
    victim_dirty = np.zeros(U, dtype=bool)
    seq_ops: list[tuple[int, int, bool, bool, int, int, bool, bool]] | None
    seq_ops = None

    if scalar_u.shape[0] == 0:
        pass  # pure vector stream: L1 stays empty, recalls are no-ops
    elif depth == 0:
        # only lines the scalar side demanded can ever be L1-resident;
        # membership via a dense line-range table when compact (the
        # common case for the paper kernels), else sort-based isin
        sc_lines = line_u[scalar_u]
        v_lines = line_u[vec_u]
        lo = int(sc_lines.min())
        span = int(sc_lines.max()) - lo + 1
        if span <= 4 * (sc_lines.shape[0] + v_lines.shape[0]) + 4096:
            present = np.zeros(span, dtype=bool)
            present[sc_lines - lo] = True
            in_range = (v_lines >= lo) & (v_lines < lo + span)
            cand = np.zeros(v_lines.shape[0], dtype=bool)
            cand[in_range] = present[v_lines[in_range] - lo]
        else:
            cand = np.isin(v_lines, sc_lines)
        # scalar_u and vec_u[cand] are sorted and disjoint: merge by
        # scatter instead of sorting the concatenation
        a, b = scalar_u, vec_u[cand]
        l1_u = np.empty(a.shape[0] + b.shape[0], dtype=np.int64)
        l1_u[np.arange(a.shape[0]) + np.searchsorted(b, a)] = a
        l1_u[np.arange(b.shape[0]) + np.searchsorted(a, b)] = b
        if stats is not None:
            stats.count("classify.recall_candidates", int(cand.sum()))
        rows1 = line_u[l1_u] & mask1
        lru = LockstepLru(n_sets1, l1_ways)
        hit, hd, ev, vic = lru.run(rows1, line_u[l1_u], write_u[l1_u],
                                   recalls=~is_scalar_u[l1_u],
                                   want_victims=True)
        l1_hit[l1_u] = hit & is_scalar_u[l1_u]
        recall_dirty[l1_u] = hd & ~is_scalar_u[l1_u]
        victim_dirty[l1_u] = ev
        if vic is not None:
            victim_line[l1_u] = vic
        if stats is not None:
            stats.high("classify.l1_sets", n_sets1)
    else:
        # stream prefetch couples sets through the demand-miss outcome:
        # exact sequential sub-walk over the filtered stream, emitting
        # the L2 op list in walker order (sub-keys documented below)
        seq_ops = _sequential_l1(line_u, write_u, rec_u, is_scalar_u,
                                 nofill_u, scalar_u, vec_u, mask1, l1_ways,
                                 depth, l1_hit)
        if stats is not None:
            stats.count("classify.seq_l1_walks")

    # ---------------- stage 3: the L2 op stream ---------------------------
    # per-unit sub-op order (matching the walker): a dirty-victim (or
    # recall) writeback precedes its reference; prefetch references
    # precede their own victim writebacks. Key = unit * stride + sub.
    if seq_ops is None:
        ref_u = np.flatnonzero((is_scalar_u & ~l1_hit) | ~is_scalar_u)
        wb_mask = victim_dirty | recall_dirty
        wb_u = np.flatnonzero(wb_mask)
        wb_line = np.where(is_scalar_u[wb_u], victim_line[wb_u],
                           line_u[wb_u])
        # keys are unit*2 (writeback) / unit*2+1 (reference); both id
        # streams are already sorted, so the key-ordered op stream is a
        # two-way merge realized by scattering each stream to its final
        # position (rank within itself + rank across the other stream)
        nw, nr = wb_u.shape[0], ref_u.shape[0]
        pw = np.arange(nw) + np.searchsorted(ref_u, wb_u, side="left")
        pr = np.arange(nr) + np.searchsorted(wb_u, ref_u, side="right")
        n_tot = nw + nr
        op_line = np.empty(n_tot, dtype=np.int64)
        op_line[pw] = wb_line
        op_line[pr] = line_u[ref_u]
        op_is_wb = np.zeros(n_tot, dtype=bool)
        op_is_wb[pw] = True
        op_mark = np.ones(n_tot, dtype=bool)
        op_mark[pr] = write_u[ref_u] & ~is_scalar_u[ref_u]
        op_rec = np.empty(n_tot, dtype=np.int64)
        op_rec[pw] = rec_u[wb_u]
        op_rec[pr] = rec_u[ref_u]
        op_slot = np.full(n_tot, -1, dtype=np.int64)
        op_slot[pr] = ref_u
        op_nofill = np.zeros(n_tot, dtype=bool)
        op_nofill[pr] = nofill_u[ref_u]
        op_pf = np.zeros(n_tot, dtype=bool)
    else:
        # vector units never probed by the sequential walk still emit
        # their REF op (key sub=1); merge with the sequential list
        stride = 2 * depth + 2
        arr = np.array(seq_ops, dtype=np.int64) if seq_ops else \
            np.empty((0, 8), dtype=np.int64)
        nc_mask = np.ones(U, dtype=bool)
        nc_mask[scalar_u] = False
        if arr.shape[0]:
            probed = arr[arr[:, 7] == 1, 5]
            nc_mask[probed] = False
        nc = np.flatnonzero(nc_mask & ~is_scalar_u)
        key = np.concatenate([arr[:, 0], nc * stride + 1])
        op_line = np.concatenate([arr[:, 1], line_u[nc]])
        op_is_wb = np.concatenate([arr[:, 2].astype(bool),
                                   np.zeros(nc.shape[0], bool)])
        op_mark = np.concatenate([arr[:, 3].astype(bool), write_u[nc]])
        op_rec = np.concatenate([arr[:, 4], rec_u[nc]])
        op_slot = np.concatenate([arr[:, 5], nc])
        op_nofill = np.concatenate([arr[:, 6].astype(bool), nofill_u[nc]])
        op_pf = np.concatenate([arr[:, 7] == 2,
                                np.zeros(nc.shape[0], bool)])
        order = np.argsort(key)
        op_line, op_is_wb, op_mark = (op_line[order], op_is_wb[order],
                                      op_mark[order])
        op_rec, op_slot = op_rec[order], op_slot[order]
        op_nofill, op_pf = op_nofill[order], op_pf[order]

    # ---------------- stage 4: the L2 lockstep pass -----------------------
    n_ops = op_line.shape[0]
    if stats is not None:
        stats.count("classify.l2_ops", n_ops)
    if n_ops:
        local = op_line >> bank_bits
        rows2 = (op_line & bank_mask) * n_sets2 + (local & mask2)
        lru2 = LockstepLru(l2cfg.banks * n_sets2, l2_ways)
        hit2, _hd2, ev2, _ = lru2.run(rows2, local, op_mark)
        if stats is not None:
            stats.high("classify.l2_sets", l2cfg.banks * n_sets2)
    else:
        hit2 = np.zeros(0, dtype=bool)
        ev2 = np.zeros(0, dtype=bool)

    # ---------------- accounting: vectorized scatters ---------------------
    levels_flat = np.zeros(U, dtype=np.uint8)
    sc_hit = scalar_u[l1_hit[scalar_u]] if scalar_u.shape[0] else scalar_u
    levels_flat[sc_hit] = _L1
    demand = ~op_is_wb & ~op_pf
    served_l2 = demand & (hit2 | op_nofill)
    dram_read = demand & ~hit2 & ~op_nofill
    if n_ops:
        levels_flat[op_slot[served_l2]] = _L2
        levels_flat[op_slot[dram_read]] = _DRAM
    rows["l1_hits"] = np.bincount(rec_u[sc_hit], minlength=n)
    rows["l2_hits"] = np.bincount(op_rec[served_l2], minlength=n)
    rows["dram_reads"] = np.bincount(op_rec[dram_read], minlength=n)
    rows["dram_writes"] = np.bincount(op_rec[ev2], minlength=n)
    rows["pf_dram_reads"] = np.bincount(op_rec[op_pf & ~hit2], minlength=n)

    lo_hi = u_off.tolist()
    for rec, lo, hi in zip(work.tolist(), lo_hi, lo_hi[1:]):
        levels[rec] = levels_flat[lo:hi]

    return ClassifiedTrace(rows=rows, levels=levels, trace=trace,
                           config=config)


def _sequential_l1(line_u: np.ndarray, write_u: np.ndarray,
                   rec_u: np.ndarray, is_scalar_u: np.ndarray,
                   nofill_u: np.ndarray, scalar_u: np.ndarray,
                   vec_u: np.ndarray, mask1: int, l1_ways: int, depth: int,
                   l1_hit: np.ndarray
                   ) -> list[tuple[int, int, bool, bool, int, int, bool,
                                   bool]]:
    """Exact sequential L1 sub-walk for the prefetch ablation.

    Replays the walker's L1 (demand + stream prefetch + recall) logic
    over scalar units and the vector units whose line the scalar side
    could ever have installed, emitting L2 ops as
    ``(key, line, is_wb, mark_dirty, rec, slot, nofill, kind)`` tuples
    — ``kind`` 0 = writeback, 1 = demand/recall reference (slot = unit),
    2 = prefetch reference. Sub-key order per unit: demand victim-WB(0),
    REF(1), then per prefetch step p: REF(2p), victim-WB(2p+1).
    """
    stride = 2 * depth + 2
    cand_lines = np.unique(np.concatenate(
        [line_u[scalar_u] + p for p in range(depth + 1)]))
    vc = vec_u[np.isin(line_u[vec_u], cand_lines)]
    walk_u = np.sort(np.concatenate([scalar_u, vc]))

    tags: list[dict[int, None]] = [{} for _ in range(mask1 + 1)]
    dirty: list[set[int]] = [set() for _ in range(mask1 + 1)]
    ops: list[tuple[int, int, bool, bool, int, int, bool, bool]] = []
    w_line = line_u[walk_u].tolist()
    w_write = write_u[walk_u].tolist()
    w_rec = rec_u[walk_u].tolist()
    w_scal = is_scalar_u[walk_u].tolist()
    w_nofill = nofill_u[walk_u].tolist()

    for j, u in enumerate(walk_u.tolist()):
        line, rec = w_line[j], w_rec[j]
        base = u * stride
        if not w_scal[j]:
            # vector unit: home-node recall, then the L2 reference
            si = line & mask1
            t = tags[si]
            if line in t:
                del t[line]
                d = dirty[si]
                if line in d:
                    d.discard(line)
                    ops.append((base, line, True, True, rec, -1, False,
                                False))
            ops.append((base + 1, line, False, bool(w_write[j]), rec, u,
                        bool(w_nofill[j]), True))
            continue
        # scalar demand access
        si = line & mask1
        t = tags[si]
        if line in t:
            del t[line]
            t[line] = None
            if w_write[j]:
                dirty[si].add(line)
            l1_hit[u] = True
            continue
        t[line] = None
        if w_write[j]:
            dirty[si].add(line)
        if len(t) > l1_ways:
            victim = next(iter(t))
            del t[victim]
            d = dirty[si]
            if victim in d:
                d.discard(victim)
                ops.append((base, victim, True, True, rec, -1, False,
                            False))
        ops.append((base + 1, line, False, False, rec, u, False, True))
        for p in range(1, depth + 1):
            pline = line + p
            psi = pline & mask1
            pt = tags[psi]
            if pline in pt:
                continue
            ops.append((base + 2 * p, pline, False, False, rec, -1, False,
                        2))
            pt[pline] = None
            if len(pt) > l1_ways:
                victim = next(iter(pt))
                del pt[victim]
                d = dirty[psi]
                if victim in d:
                    d.discard(victim)
                    ops.append((base + 2 * p + 1, victim, True, True, rec,
                                -1, False, False))
    return ops


# ------------------------------------------------- level-span (de)flattening

def pack_levels(levels: list[np.ndarray | None]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a ragged per-record ``levels`` list into ``(lens, flat)``.

    ``lens[i]`` is the i-th record's level count, ``-1`` for records
    that carry no level data (barriers, vector arithmetic); ``flat`` is
    the uint8 concatenation of the present arrays in record order: the
    wire format of the on-disk classified sidecar.
    """
    lens = np.fromiter(
        ((-1 if lv is None else lv.shape[0]) for lv in levels),
        dtype=np.int64, count=len(levels))
    parts = [np.ascontiguousarray(lv, dtype=np.uint8)
             for lv in levels if lv is not None]
    flat = (np.concatenate(parts) if parts
            else np.zeros(0, dtype=np.uint8))
    return lens, flat


def unpack_levels(lens: np.ndarray,
                  flat: np.ndarray) -> list[np.ndarray | None]:
    """Inverse of :func:`pack_levels`; the returned arrays are views
    into ``flat``."""
    present = np.maximum(lens, 0)
    ends = np.cumsum(present)
    starts = ends - present
    # single list comprehension over pre-materialized scalars: ~25% less
    # per-record overhead than scattering into a preallocated list, and
    # this loop is the dominant cost of a sidecar load
    return [flat[s:e] if keep >= 0 else None
            for s, e, keep in zip(starts.tolist(), ends.tolist(),
                                  lens.tolist())]


# ------------------------------------------------------ the engine registry

#: classification engines, same selector pattern as ``repro.engine.ENGINES``
#: ("stack" is the production engine, "walk" the sequential reference/spec)
CLASSIFIERS: dict[str, Callable[[TraceBuffer, SdvConfig], ClassifiedTrace]]
CLASSIFIERS = {
    "stack": classify_trace_fast,
    "walk": classify_trace,
}

#: the engine an :class:`repro.soc.FpgaSdv` classifies with unless it is
#: built with ``classify="walk"`` (results are bit-identical either way)
DEFAULT_CLASSIFIER = "stack"
