"""Pass family 1: template hazard analysis + columnar trace invariants.

**Hazard analysis** (:func:`analyze_snapshot`) consumes the
:class:`repro.trace.template.TemplateSnapshot` a ``replicate()`` call
leaves behind under :func:`~repro.trace.template.capture_replications`
and proves the declared ``Dep`` edges cover every memory hazard the
replicated iterations create:

* address streams are evaluated *symbolically*: an affine slot touching
  ``base + iter_offsets[i]`` at iteration ``i`` is compared against
  another affine slot at iteration distance ``k`` through the pairwise
  base-difference set — one sorted array + two ``searchsorted`` calls
  decide "do any two intervals overlap at distance k" for **all**
  iterations at once, with no per-iteration loop;
* explicit (``flat_addrs``/``counts``) streams fall back to a bounded
  per-iteration scan over the first/last :data:`ITER_SAMPLE` iterations;
* a store/load overlap at iteration distance ``k`` is *covered* when the
  reader reaches the writer through the template's dep graph
  (``Dep.local`` edges stay in-iteration, ``Dep.prev`` edges step one
  iteration back) or a barrier slot orders the pair;
* overlaps beyond :data:`MAX_DIST` iterations are reported at WARNING
  severity ("beyond the dependence window") — ``Dep.prev`` chains that
  long do not occur in practice and a barrier is the right fix.

**Columnar invariants** (:func:`check_trace_buffer`) report where a sealed
:class:`~repro.trace.events.TraceBuffer` breaks the trace format, as
:meth:`~repro.trace.events.TraceColumns.problems` states it: dtypes,
monotone arena offsets, arena bounds, enum encodings, active elements,
neutral barrier rows, backward-only deps, ISA-legal vector lengths and
scalar block counts. Loading a trace file checks the same statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lint.findings import Finding, Severity
from repro.lint.rules import finding
from repro.trace.events import (
    REC_BARRIER,
    REC_SCALAR,
    REC_VECTOR,
    TraceBuffer,
)
from repro.trace.template import (
    _D_ABS,
    _D_LOCAL,
    _D_NONE,
    _D_PREV,
    _K_BYTES,
    _K_KIND,
    _K_WRITE,
    _V_BASE,
    _V_COUNTS,
    _V_DEP,
    _V_FLAT,
    _V_IOFF,
    _V_WRITES,
    TemplateSnapshot,
)

#: iteration distances checked exactly (0 = same iteration). ``Dep.prev``
#: chains can cover any distance in principle; beyond this window the
#: analyzer reports overlaps at WARNING severity instead of proving them.
MAX_DIST = 3

#: explicit-stream pairs are scanned over the first and last this-many
#: iterations (affine pairs are exact over all iterations).
ITER_SAMPLE = 64

#: pairwise base-difference sets larger than this fall back to sampling.
_DIFF_CAP = 1 << 22


# --------------------------------------------------------------- slot model

@dataclass
class _Slot:
    """One template record, unpacked for analysis."""

    index: int
    kind: int
    is_write: bool            # vector-level flag
    width: int                # access granularity in bytes
    dep_mode: int
    dep_slot: int
    dep_first: int
    base: np.ndarray | None   # affine: one iteration's addresses
    ioff: np.ndarray | None   # affine: per-iteration byte offsets
    flat: np.ndarray | None   # explicit: all iterations' addresses
    counts: np.ndarray | None
    writes: np.ndarray | None  # scalar blocks: per-access write flags
    name: str

    @property
    def is_mem(self) -> bool:
        return self.base is not None or self.flat is not None

    @property
    def is_vector(self) -> bool:
        return self.kind == REC_VECTOR

    @property
    def is_barrier(self) -> bool:
        return self.kind == REC_BARRIER

    @property
    def writes_memory(self) -> bool:
        if not self.is_mem:
            return False
        if self.kind == REC_SCALAR:
            return self.writes is not None and bool(self.writes.any())
        return self.is_write

    @property
    def reads_memory(self) -> bool:
        if not self.is_mem:
            return False
        if self.kind == REC_SCALAR:
            return self.writes is None or not bool(self.writes.all())
        return not self.is_write

    def iter_addrs(self, i: int, want_writes: bool) -> np.ndarray:
        """Iteration ``i``'s addresses, filtered to reads or writes."""
        if self.base is not None:
            a = self.base + int(self.ioff[i])
        else:
            off = int(self.counts[:i].sum())
            a = self.flat[off:off + int(self.counts[i])]
        if self.kind == REC_SCALAR:
            if self.writes is None:
                return a if not want_writes else a[:0]
            w = self.writes
            return a[w] if want_writes else a[~w]
        if want_writes != self.is_write:
            return a[:0]
        return a


def _unpack(snap: TemplateSnapshot) -> list[_Slot]:
    slots = []
    for t, (sc, va, name) in enumerate(zip(snap.scal, snap.var, snap.strs)):
        dep = va[_V_DEP]
        slots.append(_Slot(
            index=t,
            kind=int(sc[_K_KIND]),
            is_write=bool(sc[_K_WRITE]),
            width=max(1, int(sc[_K_BYTES])),
            dep_mode=dep.mode,
            dep_slot=dep.slot,
            dep_first=dep.first,
            base=va[_V_BASE],
            ioff=va[_V_IOFF],
            flat=va[_V_FLAT],
            counts=va[_V_COUNTS],
            writes=va[_V_WRITES],
            name=name or f"slot{t}",
        ))
    return slots


# ----------------------------------------------------------- overlap tests

def _interval_hit(sorted_a: np.ndarray, wa: int,
                  b: np.ndarray, wb: int) -> bool:
    """Any ``[a, a+wa)`` interval intersecting any ``[b, b+wb)``?"""
    if not sorted_a.shape[0] or not b.shape[0]:
        return False
    lo = np.searchsorted(sorted_a, b - wa, side="right")
    hi = np.searchsorted(sorted_a, b + wb, side="left")
    return bool((hi > lo).any())


def _overlap_at_distance(wslot: _Slot, rslot: _Slot, k: int, n: int,
                         want_writes_w: bool, want_writes_r: bool) -> bool:
    """Does slot ``wslot`` at iteration ``i`` alias ``rslot`` at ``i+k``?

    ``want_writes_*`` select the write- or read-subset of each slot's
    accesses. Affine x affine pairs are decided exactly for all
    iterations via the base-difference set; anything explicit samples
    the first/last :data:`ITER_SAMPLE` iterations.
    """
    if k >= n:
        return False
    affine = (wslot.base is not None and rslot.base is not None
              and wslot.kind != REC_SCALAR and rslot.kind != REC_SCALAR)
    if affine and (want_writes_w == wslot.is_write
                   and want_writes_r == rslot.is_write):
        a, b = wslot.base, rslot.base
        if a.shape[0] * b.shape[0] <= _DIFF_CAP and a.shape[0]:
            # interval [a+offA[i], +wa) meets [b+offB[i+k], +wb)
            # iff  d + offA[i] - offB[i+k]  in  (-wb, wa),  d = a - b
            d = np.sort((a[:, None] - b[None, :]).ravel())
            delta = (wslot.ioff[:n - k] - rslot.ioff[k:]).astype(np.int64)
            lo = np.searchsorted(d, -rslot.width - delta, side="right")
            hi = np.searchsorted(d, wslot.width - delta, side="left")
            return bool((hi > lo).any())
    iters = range(n - k) if n - k <= 2 * ITER_SAMPLE else \
        list(range(ITER_SAMPLE)) + list(range(n - k - ITER_SAMPLE, n - k))
    for i in iters:
        wa = wslot.iter_addrs(i, want_writes_w)
        ra = rslot.iter_addrs(i + k, want_writes_r)
        if _interval_hit(np.sort(wa), wslot.width, ra, rslot.width):
            return True
    return False


def _union_stream(slot: _Slot, n: int, want_writes: bool) -> np.ndarray:
    """All iterations' addresses of one slot, filtered to reads/writes."""
    if slot.base is not None:
        sub = slot.base
        if slot.kind == REC_SCALAR:
            if slot.writes is None:
                sub = sub if not want_writes else sub[:0]
            else:
                sub = sub[slot.writes] if want_writes else sub[~slot.writes]
        elif want_writes != slot.is_write:
            sub = sub[:0]
        if not sub.shape[0]:
            return sub
        return (slot.ioff[:n, None] + sub).ravel()
    if slot.kind != REC_SCALAR:
        if want_writes != slot.is_write:
            return slot.flat[:0]
        return slot.flat[:int(slot.counts[:n].sum())]
    return np.concatenate(
        [slot.iter_addrs(i, want_writes) for i in range(n)]
        or [np.empty(0, dtype=np.int64)])


def _global_overlap(wslot: _Slot, rslot: _Slot, n: int,
                    want_writes_w: bool, want_writes_r: bool) -> bool:
    """Any aliasing at *any* iteration distance (union of all streams)."""
    wa = np.sort(_union_stream(wslot, n, want_writes_w))
    ra = _union_stream(rslot, n, want_writes_r)
    return _interval_hit(wa, wslot.width, ra, rslot.width)


def _far_overlap(wslot: _Slot, rslot: _Slot, n: int,
                 want_writes_w: bool, want_writes_r: bool) -> bool:
    """Aliasing at any iteration distance *beyond* the proven window.

    A union-of-streams test would be vacuous here: a strip-mined store
    trivially unions-overlaps itself (distance 0), and a union also
    counts negative distances the hazard direction never sees. Instead
    the window distances are probed directly, sampling the head and tail
    of the distance range when it is large — consistent with the
    WARNING severity this feeds.
    """
    ks = range(MAX_DIST + 1, n)
    if len(ks) > 2 * ITER_SAMPLE:
        ks = list(range(MAX_DIST + 1, MAX_DIST + 1 + ITER_SAMPLE)) \
            + list(range(n - ITER_SAMPLE, n))
    return any(_overlap_at_distance(wslot, rslot, k, n,
                                    want_writes_w, want_writes_r)
               for k in ks)


def _materializable(slot: _Slot, n: int) -> bool:
    """Is the union-of-streams check affordable for this slot?"""
    if slot.base is not None:
        return n * slot.base.shape[0] <= _DIFF_CAP
    return slot.flat is None or slot.flat.shape[0] <= _DIFF_CAP


# ----------------------------------------------------------- dep coverage

def _dep_reaches(slots: list[_Slot], src: int, dst: int, dist: int) -> bool:
    """Is there a dep path from slot ``src`` (iter i+dist) back to slot
    ``dst`` (iter i)? ``Dep.local`` edges keep the iteration, ``Dep.prev``
    edges step one back."""
    seen = {(src, 0)}
    frontier = [(src, 0)]
    while frontier:
        t, d = frontier.pop()
        if t == dst and d == dist:
            return True
        s = slots[t]
        if s.dep_mode == _D_LOCAL:
            nxt = (s.dep_slot, d)
        elif s.dep_mode == _D_PREV:
            nxt = (s.dep_slot, d + 1)
        else:
            continue
        if nxt[1] <= dist and nxt not in seen and 0 <= nxt[0] < len(slots):
            seen.add(nxt)
            frontier.append(nxt)
    return False


def _barrier_between(slots: list[_Slot], a: int, b: int, dist: int) -> bool:
    """Does a barrier slot order (slot a, iter i) before (slot b, i+dist)?

    With ``dist >= 1`` any barrier slot sits between the two records in
    program order; within one iteration it must fall strictly between
    the slots.
    """
    barriers = [s.index for s in slots if s.is_barrier]
    if not barriers:
        return False
    if dist >= 1:
        return True
    return any(a < t < b for t in barriers)


def _ordered(slots: list[_Slot], first: int, second: int,
             dist: int) -> bool:
    """Is the (first -> second) pair ordered by a dep path or barrier?"""
    return (_dep_reaches(slots, second, first, dist)
            or _barrier_between(slots, first, second, dist))


# -------------------------------------------------------------- the passes

def _check_deps(slots: list[_Slot], snap: TemplateSnapshot,
                where: str) -> list[Finding]:
    """T004: structurally invalid dep declarations."""
    out = []
    T = len(slots)
    for s in slots:
        loc = f"{where}#slot{s.index}({s.name})"
        if s.dep_mode == _D_NONE:
            continue
        if s.dep_mode in (_D_LOCAL, _D_PREV):
            tgt = s.dep_slot
            if not 0 <= tgt < T:
                out.append(finding(
                    "T004", loc, f"dep slot {tgt} out of range 0..{T - 1}"))
                continue
            if s.dep_mode == _D_LOCAL and tgt >= s.index:
                out.append(finding(
                    "T004", loc,
                    f"local dep on slot {tgt} which is not emitted yet "
                    "in the same iteration"))
                continue
            target = slots[tgt]
            if target.is_barrier or target.kind == REC_SCALAR:
                what = "barrier" if target.is_barrier else "scalar block"
                out.append(finding(
                    "T004", loc,
                    f"dep targets a {what} (slot {tgt}), which produces "
                    "no vector value"))
            if s.dep_mode == _D_PREV and s.dep_first >= snap.start:
                out.append(finding(
                    "T004", loc,
                    f"prev-dep first={s.dep_first} is not an earlier "
                    f"record (template starts at {snap.start})"))
        elif s.dep_mode == _D_ABS:
            if not 0 <= s.dep_first < snap.start:
                out.append(finding(
                    "T004", loc,
                    f"absolute dep {s.dep_first} is not an earlier "
                    f"record (template starts at {snap.start})"))
    return out


_HAZARDS = (
    # (rule, writer-side wants writes, reader-side wants writes, name)
    ("T001", True, False, "RAW"),
    ("T002", False, True, "WAR"),
    ("T003", True, True, "WAW"),
)


def _check_hazards(slots: list[_Slot], snap: TemplateSnapshot,
                   where: str) -> list[Finding]:
    """T001/T002/T003 (+T006): address overlaps not covered by deps."""
    out = []
    n = snap.n_iters
    mem = [s for s in slots if s.is_mem]
    reported: set[tuple[int, int, str]] = set()
    for first in mem:
        for second in mem:
            if not first.is_vector and not second.is_vector:
                continue  # the scalar core is in-order: implicitly ordered
            vector_pair = first.is_vector and second.is_vector
            for rule, w_writes, r_writes, kind in _HAZARDS:
                if w_writes and not first.writes_memory:
                    continue
                if not w_writes and not first.reads_memory:
                    continue
                if r_writes and not second.writes_memory:
                    continue
                if not r_writes and not second.reads_memory:
                    continue
                for k in range(0, MAX_DIST + 1):
                    if k == 0 and second.index <= first.index:
                        continue  # same iteration: program order only
                    if not _overlap_at_distance(first, second, k, n,
                                                w_writes, r_writes):
                        continue
                    pair = (f"{where}#slot{first.index}({first.name})"
                            f"->slot{second.index}({second.name})")
                    if not vector_pair:
                        # deps cannot order the decoupled scalar pipe
                        key = (first.index, second.index, "T006")
                        if (key not in reported
                                and not _barrier_between(
                                    slots, first.index, second.index, k)):
                            reported.add(key)
                            out.append(finding(
                                "T006", pair,
                                f"{kind} aliasing between vector and "
                                f"scalar accesses at iteration distance "
                                f"{k} with no barrier"))
                        break
                    if not _ordered(slots, first.index, second.index, k):
                        at = ("same iteration" if k == 0
                              else f"iteration distance {k}")
                        out.append(finding(
                            rule, pair,
                            f"undeclared {kind} hazard: addresses "
                            f"overlap at {at}"))
                    break  # report the closest distance only
                else:
                    # No overlap within the window: check the far field.
                    # A dep chain covering every window distance contains
                    # a prev-edge cycle, so it extends to any distance —
                    # nothing to warn about then.
                    if (n > MAX_DIST + 1
                            and not _barrier_between(slots, first.index,
                                                     second.index, 1)
                            and not (vector_pair and all(
                                _dep_reaches(slots, second.index,
                                             first.index, k)
                                for k in range(1, MAX_DIST + 1)))
                            and _far_overlap(first, second, n,
                                             w_writes, r_writes)):
                        pair = (f"{where}#slot{first.index}({first.name})"
                                f"->slot{second.index}({second.name})")
                        out.append(finding(
                            rule if vector_pair else "T006", pair,
                            f"{kind} aliasing beyond the {MAX_DIST}-"
                            "iteration dependence window (no barrier in "
                            "the template)",
                            severity=Severity.WARNING))
    return out


def _check_dead_deps(slots: list[_Slot], snap: TemplateSnapshot,
                     where: str) -> list[Finding]:
    """T005: a dep on a *store* that never aliases the depending record.

    Deps on loads/arithmetic are register dataflow (the consumer reads
    the produced vector register) and cannot be judged from addresses;
    a dep on a store can only mean memory ordering, so if the store
    provably never aliases, the edge is dead weight.
    """
    out = []
    n = snap.n_iters
    for s in slots:
        if s.dep_mode not in (_D_LOCAL, _D_PREV):
            continue
        if not 0 <= s.dep_slot < len(slots):
            continue  # T004 already fired
        target = slots[s.dep_slot]
        if not (target.is_vector and target.writes_memory):
            continue
        if not s.is_mem:
            continue  # a non-mem record cannot alias anything
        k = 0 if s.dep_mode == _D_LOCAL else 1
        aliases = (
            _overlap_at_distance(target, s, k, n, True, False)
            or _overlap_at_distance(target, s, k, n, True, True)
            or (_materializable(target, n) and _materializable(s, n)
                and (_global_overlap(target, s, n, True, False)
                     or _global_overlap(target, s, n, True, True))))
        if not aliases:
            out.append(finding(
                "T005", f"{where}#slot{s.index}({s.name})",
                f"dep on store slot {s.dep_slot}({target.name}) covers "
                "no address overlap in any replicated iteration"))
    return out


def analyze_snapshot(snap: TemplateSnapshot,
                     label: str = "template") -> list[Finding]:
    """Run the full hazard analysis on one captured replication."""
    if snap.n_iters == 0 or not snap.scal:
        return []
    where = f"{label}@{snap.start}"
    slots = _unpack(snap)
    out = _check_deps(slots, snap, where)
    out.extend(_check_hazards(slots, snap, where))
    out.extend(_check_dead_deps(slots, snap, where))
    return out


# ------------------------------------------------- columnar trace invariants

def check_trace_buffer(trace: TraceBuffer, label: str = "trace", *,
                       hw_max_vl: int = 256) -> list[Finding]:
    """T1xx: the trace format's violations in a sealed trace
    (:meth:`~repro.trace.events.TraceColumns.problems`), as findings."""
    return [finding(rule, label if i is None else f"{label}#rec{i}", message)
            for rule, i, message in trace.cols.problems(hw_max_vl)]
