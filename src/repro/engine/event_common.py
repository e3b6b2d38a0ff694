"""Shared flat plan for the event engine and its specification.

The compiled DES (:mod:`repro.engine.event_fast`, ``event.c``) and the
coroutine specification (:mod:`repro.engine.event_sim`) must produce
bit-identical schedules. Everything either derives from the classified
trace — record kinds, dependency edges, per-line levels and bank targets,
quantized issue gaps, arithmetic occupancies — is therefore computed
**once**, here, and both read the same :class:`EventPlan`. A
disagreement can then only come from the scheduling machinery itself,
which is exactly what the equality tests probe.

The plan is flat NumPy arrays: per record (kind, dep, costs) and per line
request over the classifier's ``req_off`` arena (level, bank, issue
step), so record ``i``'s lines are ``req_off[i]:req_off[i + 1]``. A
scalar block has one line request per memory op, a vector memory
instruction one per coalesced line, every other record none.

Quantization: the DES runs on integer cycles (:mod:`repro.engine.des`),
but three cost terms are fractional —

* the scalar no-memory issue time ``n_alu * alu_cpi / issue_width``,
* the scalar per-op issue gap ``(n_alu * alu_cpi / n_mem + 1) / width``,
* the vector AGU issue gap ``addr_cycles / n_lines``.

Each is spread over its ops Bresenham-style: op ``j`` advances the clock
by ``int((j+1)*gap) - int(j*gap)``, so the cumulative schedule tracks the
exact fractional one to within one cycle and the total is
``int(n * gap)``. The plan stores the resulting **integer steps**; no
engine touches a float on the timing path.

The plan is knob-independent for the sweep knobs that matter (latency,
bandwidth, NoC and L2 timing), so attribution ladders and knob sweeps
re-timing the same classified trace reuse one cached plan (stashed on the
trace object, keyed by the quantization-relevant config fields).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.lower import (
    LKIND_SCALAR,
    LKIND_VARITH,
    LKIND_VMEM,
    lower_cached,
)
from repro.errors import EngineError
from repro.memory.classify import AccessLevel, ClassifiedTrace


@dataclass
class EventPlan:
    """Pre-lowered, pre-quantized driving arrays for the event engines.

    Per-record arrays have ``n`` entries (a cost is 0 on records of the
    kinds that do not use it); per-line arrays have ``req_off[n]``.
    """

    n: int
    kind: np.ndarray         # int64 LKIND_* (CSR split out of VARITH)
    dep: np.ndarray          # int64 producing record, -1 if none
    scalar_dest: np.ndarray  # uint8: the core stalls for a scalar result
    vl: np.ndarray           # int64 (timeline annotation)
    req_off: np.ndarray      # int64, n + 1: record -> its line requests

    # per-record costs ----------------------------------------------------
    issue: np.ndarray        # scalar, no memory ops: quantized issue time
    gap_total: np.ndarray    # scalar with memory ops: sum of its steps
    mlp: np.ndarray          # scalar: max(1, min(mshrs, hint)), else 1
    wb: np.ndarray           # DRAM writebacks charged to the record
    pf: np.ndarray           # scalar: prefetch fills charged to the block
    occ: np.ndarray          # vector arithmetic: pipe occupancy
    dram: np.ndarray         # vector memory: demand DRAM read lines

    # per line request ----------------------------------------------------
    level: np.ndarray        # uint8 AccessLevel
    bank: np.ndarray         # int64 target L2 bank
    step: np.ndarray         # int64 issue step before the request

    total_dram_reads: int
    total_dram_writes: int
    line_spawns: int         # line requests that leave the core (non-L1)


def _plan_key(ct: ClassifiedTrace) -> tuple:
    """Config fields the plan depends on (everything else is runtime)."""
    cfg = ct.config
    return (
        cfg.core.issue_width, cfg.core.alu_cpi, cfg.core.mshrs,
        cfg.l2.banks, cfg.vpu.lanes,
        cfg.vpu.gather_issue_per_cycle, cfg.vpu.stride_issue_per_cycle,
    )


def build_event_plan(ct: ClassifiedTrace) -> EventPlan:
    """Compile a classified trace into an :class:`EventPlan`.

    Levels and banks come from the classification's line-request arena
    (``ct.levels`` and ``ct.lines``, see
    :func:`repro.memory.classify.line_requests`), the per-record counts
    from its rows and every other field from the trace's columns; no
    trace record is materialized. The lowering is the trace's cached one,
    shared with ``FpgaSdv.lower``.
    """
    lowered = lower_cached(ct)
    cfg = ct.config
    core = cfg.core
    cols = ct.trace.cols
    rows = ct.rows
    n = lowered.n
    kind = lowered.kind
    req_off = ct.req_off
    counts = np.diff(req_off)
    sc = kind == LKIND_SCALAR

    n_alu = cols.n_alu
    n_mem = np.maximum(counts, 1)
    has_mem = sc & (counts > 0)
    issue = np.where(sc & ~has_mem,
                     (n_alu * core.alu_cpi / core.issue_width
                      ).astype(np.int64), 0)
    mlp = np.where(has_mem, np.maximum(1, np.minimum(core.mshrs,
                                                     cols.mlp)), 1)

    # the fractional gap of every record with line requests, spread over
    # its lines: line j steps int((j+1)*gap) - int(j*gap)
    vm = kind == LKIND_VMEM
    vm_addr = np.zeros(n)
    vm_addr[vm] = lowered.vm_addr
    gap = np.where(has_mem,
                   (n_alu * core.alu_cpi / n_mem + 1.0) / core.issue_width,
                   np.where(vm, vm_addr / n_mem, 0.0))
    gap_total = np.where(has_mem, (counts * gap).astype(np.int64), 0)
    line_gap = np.repeat(gap, counts)
    j = np.arange(req_off[-1]) - np.repeat(req_off[:-1], counts)
    step = ((j + 1) * line_gap).astype(np.int64) \
        - (j * line_gap).astype(np.int64)

    va_occ = lowered.va_occ
    q = va_occ.astype(np.int64)
    if (q != va_occ).any():
        bad = va_occ[q != va_occ][0]
        raise EngineError(f"non-integral arith occupancy {bad}")
    occ = np.zeros(n, dtype=np.int64)
    occ[kind == LKIND_VARITH] = q

    return EventPlan(
        n=n,
        kind=kind,
        dep=lowered.dep,
        scalar_dest=lowered.scalar_dest.astype(np.uint8),
        vl=cols.vl.astype(np.int64),
        req_off=req_off.astype(np.int64),
        issue=issue,
        gap_total=gap_total,
        mlp=mlp.astype(np.int64),
        wb=rows["dram_writes"].astype(np.int64),
        pf=rows["pf_dram_reads"].astype(np.int64),
        occ=occ,
        dram=rows["dram_reads"].astype(np.int64),
        level=ct.levels.astype(np.uint8),
        bank=(ct.lines & (cfg.l2.banks - 1)).astype(np.int64),
        step=step,
        total_dram_reads=int(rows["dram_reads"].sum()
                             + rows["pf_dram_reads"].sum()),
        total_dram_writes=int(rows["dram_writes"].sum()),
        # vector requests never hit L1, so this is every vector request
        # plus the scalar L1 misses
        line_spawns=int(np.count_nonzero(ct.levels != AccessLevel.L1)),
    )


def event_plan(ct: ClassifiedTrace) -> EventPlan:
    """Cached :func:`build_event_plan`.

    Attribution ladders and knob sweeps re-time one classified trace under
    many latency/bandwidth configs; those all share the plan. The cache
    entry lives on the (immutable, shared) trace object and is validated
    by identity of the level array plus the quantization-relevant config
    fields.
    """
    from repro.obs.record import get_recorder

    key = _plan_key(ct)
    cached = getattr(ct.trace, "_event_plan", None)
    if cached is not None:
        levels_ref, ckey, plan = cached
        if levels_ref is ct.levels and ckey == key:
            get_recorder().count("plan_cache.hits")
            return plan
    get_recorder().count("plan_cache.misses")
    plan = build_event_plan(ct)
    try:
        ct.trace._event_plan = (ct.levels, key, plan)
    except (AttributeError, TypeError):  # pragma: no cover - frozen trace
        pass
    return plan
