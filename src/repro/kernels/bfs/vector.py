"""Vectorized level-synchronous BFS (long-vector frontier expansion).

Per level, three phases (the structure of the graph-algorithms thesis the
paper cites):

1. **Degree bucketing** (scalar): the frontier is reordered into descending
   degree-class buckets so that rows sharing a vector strip have similar
   lengths — the SELL-sigma idea applied to frontiers; without it one hub
   node would pad every lane of its strip to the hub's degree.
2. **Expansion** (vector): for each strip of the bucketed frontier, gather
   row bounds, then sweep edge slots ``j`` under the mask ``deg > j``:
   gather neighbor ids, gather their levels, and scatter ``level+1`` to the
   unvisited ones. The neighbor gather is software-pipelined one slot ahead
   so the in-order memory pipe never waits for an index register.
3. **Frontier rebuild** (vector): scan the levels array, ``vmseq`` against
   ``level+1``, ``vcompress`` the node ids, ``vpopc`` + ``vse`` to append —
   the canonical RVV stream-compaction idiom.

Barriers separate phases (scatters must drain before dependent gathers; the
machine has no inter-instruction memory disambiguation).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelOutput
from repro.kernels.bfs.reference import default_source
from repro.memory.address_space import Allocation
from repro.soc.sdv import Session
from repro.trace import modes
from repro.trace.events import TraceBuffer, VMemPattern, VOpClass
from repro.trace.template import (
    Dep,
    RecordBatch,
    TraceTemplate,
    record_starts,
)
from repro.workloads.graphs import CsrGraph

#: scalar ops per frontier node during bucketing (load, classify, store)
ALU_PER_BUCKETED_NODE = 6
ALU_PER_STRIP = 6
ALU_PER_SLOT = 2

_I64 = np.int64
#: each phase interns its strings up front, in a fixed order, so the
#: string table does not depend on which records a level produces
_EXPAND_STRINGS = ("vsetvl", "vle", "vlxe", "vadd", "vsub", "vmv.v.x",
                   "vmsgt", "vmseq", "vmand", "vsxe", "bfs-strip")
_SCAN_STRINGS = ("vsetvl", "vle", "vse", "vmseq", "vid.v", "vadd",
                 "vcompress", "vpopc", "bfs-scan", "bfs-scan-tail")


def _bucket_by_degree(frontier: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Stable reorder into descending log2-degree buckets."""
    klass = np.zeros(frontier.shape[0], dtype=np.int64)
    nz = degs > 0
    klass[nz] = np.int64(np.floor(np.log2(degs[nz]))) + 1
    order = np.argsort(-klass, kind="stable")
    return frontier[order]


def _expand_templated(trace: TraceBuffer, maxvl: int,
                      a_indptr: Allocation, a_indices: Allocation,
                      a_levels: Allocation, q_cur: Allocation,
                      nf: int, level: int) -> None:
    """Phase-2 frontier expansion of one level as one record batch.

    Every strip's header, slot-0 neighbor load and non-pipelined last
    slot are placed by position; the slot loop body (9 records, slots
    0..maxd-2) is one template expanded over every strip of two or more
    slots. The functional side is computed for the whole level at once:
    an edge occurrence scatters iff its node was unvisited at the start
    of the level and its (strip, slot) group is the first to reach the
    node in (strip, slot, lane) order — slot ``j``'s scatters are seen by
    slot ``j+1``'s gathers and by later strips, and duplicates within one
    group all scatter, exactly as the strip-by-strip slot walk does.
    """
    for name in _EXPAND_STRINGS:
        trace.intern(name)
    ipv = a_indptr.view.reshape(-1)
    idv = a_indices.view.reshape(-1)
    lvv = a_levels.view.reshape(-1)
    f = q_cur.view.reshape(-1)[:nf]
    rb = ipv[f]
    ln = ipv[f + 1] - rb                           # per frontier lane
    n_strips = -(-nf // maxvl)
    vl = np.minimum(maxvl, nf - np.arange(n_strips, dtype=_I64) * maxvl)
    maxd = np.maximum.reduceat(ln, np.arange(0, nf, maxvl))
    hz = maxd > 0
    pipe = np.maximum(maxd - 1, 0)    # pipelined slot-loop iterations

    # edge occurrences in (strip, slot, lane) order: group g = (strip,
    # slot) for every slot below the strip's max degree, lanes ascending
    g_off = np.cumsum(maxd) - maxd                 # first group of a strip
    n_groups = int(maxd.sum())
    occ_lane = np.repeat(np.arange(nf, dtype=_I64), ln)
    occ_slot = (np.arange(occ_lane.shape[0], dtype=_I64)
                - np.repeat(np.cumsum(ln) - ln, ln))
    occ_grp = g_off[occ_lane // maxvl] + occ_slot
    order = np.argsort(occ_grp, kind="stable")
    grp = occ_grp[order]
    eidx = (rb[occ_lane] + occ_slot)[order]
    nbr = idv[eidx]
    c_grp = np.bincount(grp, minlength=n_groups)
    grp_strip = np.repeat(np.arange(n_strips, dtype=_I64), maxd)
    grp_slot = np.arange(n_groups, dtype=_I64) - g_off[grp_strip]
    grp_last = grp_slot == maxd[grp_strip] - 1

    # functional: the first group to reach each node (groups run in
    # order, so it is the smallest), unvisited at level start
    first_grp = np.full(lvv.shape[0], n_groups, dtype=_I64)
    np.minimum.at(first_grp, nbr, grp)
    sel = (lvv[nbr] == -1) & (grp == first_grp[nbr])
    lvv[nbr[sel]] = level + 1
    sc_grp = grp[sel]
    c_sc = np.bincount(sc_grp, minlength=n_groups)
    sc_last = grp_last[sc_grp]

    # the record layout of every strip
    sizes = 8 + 8 * hz + 9 * pipe
    s0 = record_starts(len(trace), sizes)
    batch = RecordBatch(trace, int(sizes.sum()))
    ipa_f = a_indptr.addr(f)
    batch.vector(s0, VOpClass.CSR, vl, "vsetvl", scalar_dest=True)
    batch.scalar_block(s0 + 1, ALU_PER_STRIP, label="bfs-strip")
    batch.vector(s0 + 2, VOpClass.MEM, vl, "vle", pattern=VMemPattern.UNIT,
                 addrs=q_cur.addr(np.arange(nf, dtype=_I64)))
    batch.vector(s0 + 3, VOpClass.MEM, vl, "vlxe",
                 pattern=VMemPattern.INDEXED, addrs=ipa_f, dep=s0 + 2)
    batch.vector(s0 + 4, VOpClass.ARITH, vl, "vadd", dep=s0 + 2)
    # addr(f + 1) is addr(f) shifted one element; f + 1 <= n is always a
    # valid indptr index so the bounds check on f covers it
    batch.vector(s0 + 5, VOpClass.MEM, vl, "vlxe",
                 pattern=VMemPattern.INDEXED,
                 addrs=ipa_f + a_indptr.itemsize, dep=s0 + 4)
    batch.vector(s0 + 6, VOpClass.ARITH, vl, "vsub", dep=s0 + 5)
    batch.vector(s0 + 7, VOpClass.ARITH, vl, "vmv.v.x")

    # strips with edges: slot-0 neighbor load priming the pipeline
    s, vl_h = s0[hz], vl[hz]
    is_slot0 = grp_slot[grp] == 0
    ind_addrs = a_indices.addr(eidx)
    batch.vector(s + 8, VOpClass.MASK, vl_h, "vmsgt", dep=s + 6)
    batch.vector(s + 9, VOpClass.MEM, vl_h, "vlxe",
                 pattern=VMemPattern.INDEXED, addrs=ind_addrs[is_slot0],
                 masked=True, active=c_grp[g_off[hz]], dep=s + 8)

    # the most recent levels scatter: slot j+1's levels gather must be
    # ordered after slot j's scatter (no memory disambiguation in the
    # machine), so it threads through the slot walk and across strips
    p = s + 10 + 9 * (maxd[hz] - 1)                # each strip's last slot
    prev_store = np.full(n_strips, -1, dtype=_I64)
    prev_store[np.flatnonzero(hz)[1:]] = p[:-1] + 5

    lv_addrs = a_levels.addr(nbr)
    sc_addrs = a_levels.addr(nbr[sel])
    occ_last = grp_last[grp]
    body = ~grp_last                       # groups of pipelined iterations
    vl_it = vl[grp_strip[body]]
    t = TraceTemplate(trace)
    t.scalar_block(ALU_PER_SLOT)
    t.vector(VOpClass.MASK, vl_it, "vmsgt", dep=Dep.at(s0 + 6))
    t.vector(VOpClass.MASK, vl_it, "vmsgt", dep=Dep.at(s0 + 6))
    t.vector(VOpClass.ARITH, vl_it, "vadd", dep=Dep.at(s0 + 3))
    t.vector(VOpClass.MEM, vl_it, "vlxe",
             pattern=VMemPattern.INDEXED, flat_addrs=ind_addrs[~is_slot0],
             counts=c_grp[grp_slot > 0], masked=True,
             active=c_grp[grp_slot > 0], dep=Dep.local(3))
    t.vector(VOpClass.MEM, vl_it, "vlxe",
             pattern=VMemPattern.INDEXED, flat_addrs=lv_addrs[~occ_last],
             counts=c_grp[body], masked=True, active=c_grp[body],
             dep=Dep.prev(8, prev_store))
    t.vector(VOpClass.MASK, vl_it, "vmseq", dep=Dep.local(5))
    t.vector(VOpClass.MASK, vl_it, "vmand", dep=Dep.local(6))
    t.vector(VOpClass.MEM, vl_it, "vsxe",
             pattern=VMemPattern.INDEXED, flat_addrs=sc_addrs[~sc_last],
             counts=c_sc[body], is_write=True, masked=True,
             active=c_sc[body], dep=Dep.local(7))
    t.expand(batch, pipe, s0 + 10)

    # last slot: no pipelined next-neighbor load; its levels gather waits
    # on this strip's last pipelined scatter, or on the previous strip's
    batch.scalar_block(p, ALU_PER_SLOT)
    batch.vector(p + 1, VOpClass.MASK, vl_h, "vmsgt", dep=s + 6)
    batch.vector(p + 2, VOpClass.MEM, vl_h, "vlxe",
                 pattern=VMemPattern.INDEXED, addrs=lv_addrs[occ_last],
                 masked=True, active=c_grp[grp_last],
                 dep=np.where(maxd[hz] >= 2, p - 1, prev_store[hz]))
    batch.vector(p + 3, VOpClass.MASK, vl_h, "vmseq", dep=p + 2)
    batch.vector(p + 4, VOpClass.MASK, vl_h, "vmand", dep=p + 3)
    batch.vector(p + 5, VOpClass.MEM, vl_h, "vsxe",
                 pattern=VMemPattern.INDEXED, addrs=sc_addrs[sc_last],
                 is_write=True, masked=True, active=c_sc[grp_last],
                 dep=p + 4)
    batch.commit()


def _scan_templated(trace: TraceBuffer, maxvl: int, a_levels: Allocation,
                    q_next: Allocation, n: int, level: int) -> int:
    """Phase-3 frontier rebuild of one level as one record batch; returns
    |frontier|.

    Record structure is data-dependent per strip (the append triple only
    exists when the strip matched something; the pipelined load drops out
    on the final full strip), so every record is placed by position: one
    placement per record of the strip body across all strips, plus the
    tail strip. The functional side is one vectorized scan.
    """
    for name in _SCAN_STRINGS:
        trace.intern(name)
    lvv = a_levels.view.reshape(-1)
    n_strips = n // maxvl
    n_full = n_strips * maxvl
    hits = np.flatnonzero(lvv == level + 1)
    q_next.view.reshape(-1)[: hits.shape[0]] = hits
    cnts = np.bincount(hits // maxvl, minlength=(n + maxvl - 1) // maxvl)
    hit = cnts > 0
    n_hit_full = int(cnts[:n_strips].sum())
    # both address streams are affine in the strip offset: one addr pass
    # over each array, sliced per placement below
    lv_addrs = a_levels.addr(np.arange(n, dtype=_I64))
    qn_addrs = q_next.addr(np.arange(hits.shape[0], dtype=_I64))

    # full strips: strip k's body is 6 records, +1 for the pipelined load
    # of strip k+1, +3 for the append when strip k matched
    full_hit = hit[:n_strips]
    nxt = np.arange(n_strips) < n_strips - 1
    sizes = 6 + nxt + 3 * full_hit
    head = 2 + int(sizes.sum()) if n_strips else 0
    tail = n - n_full
    batch = RecordBatch(trace, head + (8 + 2 * int(hit[-1]) if tail else 0))
    b = batch.start
    if n_strips:
        k = record_starts(b + 2, sizes)
        batch.vector(b, VOpClass.CSR, maxvl, "vsetvl", scalar_dest=True)
        batch.vector(b + 1, VOpClass.MEM, maxvl, "vle",
                     pattern=VMemPattern.UNIT, addrs=lv_addrs[:maxvl])
        batch.scalar_block(k, 3, label="bfs-scan")
        # strip k's levels arrive with the load placed in strip k-1
        batch.vector(k + 1, VOpClass.MASK, maxvl, "vmseq",
                     dep=np.concatenate(([b + 1], k[:-1] + 5)))
        batch.vector(k + 2, VOpClass.ARITH, maxvl, "vid.v")
        batch.vector(k + 3, VOpClass.ARITH, maxvl, "vadd", dep=k + 2)
        batch.vector(k + 4, VOpClass.PERMUTE, maxvl, "vcompress", dep=k + 3)
        batch.vector(k[nxt] + 5, VOpClass.MEM, maxvl, "vle",
                     pattern=VMemPattern.UNIT, addrs=lv_addrs[maxvl:n_full])
        q = k + 5 + nxt                                # vpopc
        batch.vector(q, VOpClass.MASK, maxvl, "vpopc", dep=k + 1,
                     scalar_dest=True)
        c, qh = cnts[:n_strips][full_hit], q[full_hit]
        batch.vector(qh + 1, VOpClass.CSR, c, "vsetvl", scalar_dest=True)
        batch.vector(qh + 2, VOpClass.MEM, c, "vse",
                     pattern=VMemPattern.UNIT, addrs=qn_addrs[:n_hit_full],
                     is_write=True, dep=k[full_hit] + 4)
        batch.vector(qh + 3, VOpClass.CSR, maxvl, "vsetvl", scalar_dest=True)
    if tail:
        t = b + head
        batch.vector(t, VOpClass.CSR, tail, "vsetvl", scalar_dest=True)
        batch.scalar_block(t + 1, 3, label="bfs-scan-tail")
        batch.vector(t + 2, VOpClass.MEM, tail, "vle",
                     pattern=VMemPattern.UNIT, addrs=lv_addrs[n_full:])
        batch.vector(t + 3, VOpClass.MASK, tail, "vmseq", dep=t + 2)
        batch.vector(t + 4, VOpClass.ARITH, tail, "vid.v")
        batch.vector(t + 5, VOpClass.ARITH, tail, "vadd", dep=t + 4)
        batch.vector(t + 6, VOpClass.PERMUTE, tail, "vcompress", dep=t + 5)
        batch.vector(t + 7, VOpClass.MASK, tail, "vpopc", dep=t + 3,
                     scalar_dest=True)
        if hit[-1]:
            cnt = int(cnts[-1])
            batch.vector(t + 8, VOpClass.CSR, cnt, "vsetvl",
                         scalar_dest=True)
            batch.vector(t + 9, VOpClass.MEM, cnt, "vse",
                         pattern=VMemPattern.UNIT,
                         addrs=qn_addrs[n_hit_full:], is_write=True,
                         dep=t + 6)
    batch.commit()
    return hits.shape[0]


def bfs_vector(session: Session, g: CsrGraph,
               source: int | None = None) -> KernelOutput:
    """Run vectorized BFS on the SDV session; returns the levels array."""
    if source is None:
        source = default_source(g)
    mem, scl, vec = session.mem, session.scalar, session.vector

    a_indptr = mem.alloc("bfs.indptr", g.indptr)
    a_indices = mem.alloc("bfs.indices", g.indices)
    a_levels = mem.alloc("bfs.levels", np.full(g.n, -1, dtype=np.int64))
    a_q0 = mem.alloc("bfs.q0", g.n, np.int64)
    a_q1 = mem.alloc("bfs.q1", g.n, np.int64)

    a_levels.view[source] = 0
    a_q0.view[0] = source
    q_cur, q_next = a_q0, a_q1

    frontier = np.array([source], dtype=np.int64)
    level = 0
    n_levels = 0
    while frontier.size:
        n_levels += 1
        nf = frontier.shape[0]
        degs = (g.indptr[frontier + 1] - g.indptr[frontier]).astype(np.int64)

        # --- phase 1: scalar degree bucketing --------------------------
        bucketed = _bucket_by_degree(frontier, degs)
        bucketed_degs = (g.indptr[bucketed + 1] - g.indptr[bucketed]
                         ).astype(np.int64)
        idx = np.arange(nf)
        addrs = np.empty(4 * nf, dtype=np.int64)
        writes = np.zeros(4 * nf, dtype=bool)
        addrs[0::4] = q_cur.addr(idx)
        addrs[1::4] = a_indptr.addr(frontier)
        addrs[2::4] = a_indptr.addr(frontier + 1)
        addrs[3::4] = q_cur.addr(idx)  # write back in bucket order
        writes[3::4] = True
        scl.emit_block(addrs, writes,
                       n_alu_ops=ALU_PER_BUCKETED_NODE * nf,
                       label=f"bfs-bucket-l{level}")
        q_cur.view[:nf] = bucketed
        scl.barrier(f"bfs-bucket-end-l{level}")

        if modes.templating_enabled():
            _expand_templated(session.trace, vec.max_vl, a_indptr, a_indices,
                              a_levels, q_cur, nf, level)
            scl.barrier(f"bfs-expand-end-l{level}")
            next_pos = _scan_templated(session.trace, vec.max_vl, a_levels,
                                       q_next, g.n, level)
            scl.barrier(f"bfs-scan-end-l{level}")
            frontier = q_next.view[:next_pos].copy()
            q_cur, q_next = q_next, q_cur
            level += 1
            continue

        # --- phase 2: vector expansion ----------------------------------
        # most recent levels scatter (see _expand_templated): slot j+1's
        # levels gather is ordered after slot j's scatter
        prev_store = -1
        off = 0
        while off < nf:
            vl = vec.vsetvl(nf - off)
            scl.emit_alu(ALU_PER_STRIP, label="bfs-strip")
            f = vec.vle(q_cur, off)
            rb = vec.vlxe(a_indptr, f)
            f1 = vec.vadd(f, 1)
            re = vec.vlxe(a_indptr, f1)
            ln = vec.vsub(re, rb)
            # The strip's slot count is known scalar-side from the bucketing
            # pass (it classified every degree already), so no vredmax sync
            # is needed here.
            maxd = int(bucketed_degs[off: off + vl].max(initial=0))
            lvlval = vec.vmv(level + 1)

            nbr_next = None
            if maxd > 0:
                m0 = vec.vmsgt(ln, 0)
                nbr_next = vec.vlxe(a_indices, rb, mask=m0)
            for j in range(maxd):
                scl.emit_alu(ALU_PER_SLOT)
                m = vec.vmsgt(ln, j)
                nbr = nbr_next
                if j + 1 < maxd:
                    m_next = vec.vmsgt(ln, j + 1)
                    eidx_next = vec.vadd(rb, j + 1)
                    nbr_next = vec.vlxe(a_indices, eidx_next, mask=m_next)
                cur = vec.vlxe(a_levels, nbr, mask=m, after=prev_store)
                unv = vec.vmseq(cur, -1)
                mm = vec.vmand(m, unv)
                prev_store = vec.vsxe(lvlval, a_levels, nbr, mask=mm)
            off += vl
        scl.barrier(f"bfs-expand-end-l{level}")

        # --- phase 3: vector frontier rebuild ---------------------------
        # Software-pipelined: strip k+1's levels load issues before strip
        # k's vpopc synchronizes the scalar core, so the scan streams at
        # memory speed instead of one round trip per strip. Full strips run
        # at max VL; the tail strip is handled after the loop.
        next_pos = 0
        maxvl = vec.max_vl
        n_full = (g.n // maxvl) * maxvl

        def _scan_strip(lv, off_):
            m = vec.vmseq(lv, level + 1)
            ids = vec.vadd(vec.vid(), off_)
            packed = vec.vcompress(ids, m)
            return m, packed

        off = 0
        if n_full:
            vec.vsetvl(maxvl)
            lv_next = vec.vle(a_levels, 0)
            while off < n_full:
                scl.emit_alu(3, label="bfs-scan")
                lv = lv_next
                m, packed = _scan_strip(lv, off)
                if off + maxvl < n_full:
                    lv_next = vec.vle(a_levels, off + maxvl)
                cnt = vec.vpopc(m)
                if cnt:
                    vec.vsetvl(cnt)
                    vec.vse(vec.with_vl(packed), q_next, next_pos)
                    next_pos += cnt
                    vec.vsetvl(maxvl)
                off += maxvl
        if off < g.n:
            vec.vsetvl(g.n - off)
            scl.emit_alu(3, label="bfs-scan-tail")
            lv = vec.vle(a_levels, off)
            m, packed = _scan_strip(lv, off)
            cnt = vec.vpopc(m)
            if cnt:
                vec.vsetvl(cnt)
                vec.vse(vec.with_vl(packed), q_next, next_pos)
                next_pos += cnt
        scl.barrier(f"bfs-scan-end-l{level}")

        frontier = q_next.view[:next_pos].copy()
        q_cur, q_next = q_next, q_cur
        level += 1

    levels = a_levels.view.copy()
    return KernelOutput(
        value=levels,
        meta={"levels": n_levels, "n": g.n, "m": g.m},
    )
