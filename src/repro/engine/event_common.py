"""Shared per-record plan for the two event engines.

The coroutine reference engine (:mod:`repro.engine.event_sim`) and the
array-backed fast engine (:mod:`repro.engine.event_fast`) must produce
bit-identical schedules. Everything either engine derives from the
classified trace — record kinds, dependency edges, per-line levels and
bank targets, quantized issue gaps, arithmetic occupancies — is therefore
computed **once**, here, and both engines read the same
:class:`EventPlan`. A disagreement can then only come from the scheduling
machinery itself, which is exactly what the equality tests probe.

Quantization: the DES kernel runs on integer cycles
(:mod:`repro.engine.des`), but three cost terms are fractional —

* the scalar no-memory issue time ``n_alu * alu_cpi / issue_width``,
* the scalar per-op issue gap ``(n_alu * alu_cpi / n_mem + 1) / width``,
* the vector AGU issue gap ``addr_cycles / n_lines``.

Each is spread over its ops Bresenham-style: op ``j`` advances the clock
by ``int((j+1)*gap) - int(j*gap)``, so the cumulative schedule tracks the
exact fractional one to within one cycle and the total is
``int(n * gap)``. The plan stores the resulting **integer step lists**;
neither engine touches a float on the timing path.

The plan is knob-independent for the sweep knobs that matter (latency,
bandwidth, NoC and L2 timing), so attribution ladders and knob sweeps
re-timing the same classified trace reuse one cached plan (stashed on the
trace object, keyed by the quantization-relevant config fields).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.lower import LKIND_SCALAR, LKIND_VMEM, lower_trace
from repro.errors import EngineError
from repro.memory.classify import AccessLevel, ClassifiedTrace, line_requests


def _gap_steps(gap: float, n: int) -> list[int]:
    """Integer per-op steps whose prefix sums floor-track ``j * gap``."""
    steps = []
    prev = 0
    for j in range(n):
        cum = int((j + 1) * gap)
        steps.append(cum - prev)
        prev = cum
    return steps


@dataclass
class EventPlan:
    """Pre-lowered, pre-quantized driving tables for the event engines.

    Per-record lists are indexed by record; the ``sc_*`` / ``va_*`` /
    ``vm_*`` lists are indexed by the record's ``slot`` (its position
    within its own kind, as assigned by :func:`repro.engine.lower`).
    """

    n: int
    kind: list            # LKIND_* codes (CSR split out of VARITH)
    dep: list             # producing record index, -1 if none
    slot: list            # index into the kind-specific lists below
    scalar_dest: list     # bool: core stalls for a scalar result
    vl: list              # int per record (timeline annotation)

    # scalar blocks, by slot ----------------------------------------------
    sc_n_mem: list        # memory ops in the block
    sc_issue: list        # int: quantized issue time (no-mem blocks)
    sc_steps: list        # list[int] per-op issue steps (None if no mem)
    sc_gap_total: list    # int: sum of the step list
    sc_p: list            # effective MLP: max(1, min(mshrs, hint))
    sc_levels: list       # list[int] AccessLevel per op (None if no mem)
    sc_banks: list        # list[int] target bank per op
    sc_wb: list           # DRAM writebacks charged to the block
    sc_pf: list           # prefetch fills charged to the block

    # vector arithmetic (non-CSR), by slot --------------------------------
    va_occ: list          # int: pipe occupancy

    # vector memory, by slot ----------------------------------------------
    vm_n: list            # coalesced line requests
    vm_steps: list        # list[int] per-line AGU issue steps
    vm_levels: list       # list[int] AccessLevel per line
    vm_banks: list        # list[int] target bank per line
    vm_wb: list           # DRAM writebacks charged to the instruction
    vm_dram: list         # demand DRAM read lines (timeline annotation)

    total_dram_reads: int
    total_dram_writes: int
    line_spawns: int      # line requests that leave the core (non-L1)


def _plan_key(ct: ClassifiedTrace) -> tuple:
    """Config fields the plan depends on (everything else is runtime)."""
    cfg = ct.config
    return (
        cfg.core.issue_width, cfg.core.alu_cpi, cfg.core.mshrs,
        cfg.l2.banks, cfg.vpu.lanes,
        cfg.vpu.gather_issue_per_cycle, cfg.vpu.stride_issue_per_cycle,
        cfg.vpu.coalesce_gathers,
    )


def build_event_plan(ct: ClassifiedTrace) -> EventPlan:
    """Compile a classified trace into an :class:`EventPlan`.

    Levels and banks come from the classifier's line-request arena
    (:func:`repro.memory.classify.line_requests`) and the per-record
    counts from its rows; no trace record is materialized.
    """
    lowered = lower_trace(ct)
    cfg = ct.config
    core = cfg.core
    rows = ct.rows
    n = lowered.n
    req_off, lines = line_requests(ct.trace.cols, cfg.vpu.coalesce_gathers)
    if not np.array_equal(req_off, ct.req_off):
        raise EngineError("classified levels misaligned with line requests")
    bounds = req_off.tolist()
    levels = ct.levels.tolist()
    banks = (lines & (cfg.l2.banks - 1)).tolist()

    kind = lowered.kind.tolist()
    slot = lowered.slot.tolist()
    n_alu = rows["n_alu"].tolist()
    n_mem_ops = rows["n_mem"].tolist()
    mlp_hint = rows["mlp_hint"].tolist()
    dram_writes = rows["dram_writes"].tolist()
    dram_reads = rows["dram_reads"].tolist()
    pf_dram_reads = rows["pf_dram_reads"].tolist()

    sc_n_mem: list = []
    sc_issue: list = []
    sc_steps: list = []
    sc_gap_total: list = []
    sc_p: list = []
    sc_levels: list = []
    sc_banks: list = []
    sc_wb: list = []
    sc_pf: list = []
    vm_n: list = []
    vm_steps: list = []
    vm_levels: list = []
    vm_banks: list = []
    vm_wb: list = []
    vm_dram: list = []

    for i in range(n):
        k = kind[i]
        lo, hi = bounds[i], bounds[i + 1]
        if k == LKIND_SCALAR:
            n_mem = n_mem_ops[i]
            sc_n_mem.append(n_mem)
            sc_wb.append(dram_writes[i])
            sc_pf.append(pf_dram_reads[i])
            if n_mem == 0:
                sc_issue.append(
                    int(n_alu[i] * core.alu_cpi / core.issue_width))
                sc_steps.append(None)
                sc_gap_total.append(0)
                sc_p.append(1)
                sc_levels.append(None)
                sc_banks.append(None)
                continue
            gap = ((n_alu[i] * core.alu_cpi / n_mem + 1.0)
                   / core.issue_width)
            steps = _gap_steps(gap, n_mem)
            sc_issue.append(0)
            sc_steps.append(steps)
            sc_gap_total.append(int(n_mem * gap))
            sc_p.append(max(1, min(core.mshrs, mlp_hint[i])))
            sc_levels.append(levels[lo:hi])
            sc_banks.append(banks[lo:hi])
        elif k == LKIND_VMEM:
            n_lines = hi - lo
            addr_cycles = float(lowered.vm_addr[slot[i]])
            gap = (addr_cycles / n_lines) if n_lines else 0.0
            vm_n.append(n_lines)
            vm_steps.append(_gap_steps(gap, n_lines))
            vm_levels.append(levels[lo:hi])
            vm_banks.append(banks[lo:hi])
            vm_wb.append(dram_writes[i])
            vm_dram.append(dram_reads[i])

    va_occ = []
    for occ in lowered.va_occ.tolist():
        q = int(occ)
        if q != occ:
            raise EngineError(f"non-integral arith occupancy {occ}")
        va_occ.append(q)

    return EventPlan(
        n=n,
        kind=kind,
        dep=lowered.dep.tolist(),
        slot=slot,
        scalar_dest=lowered.scalar_dest.tolist(),
        vl=rows["vl"].astype(int).tolist(),
        sc_n_mem=sc_n_mem,
        sc_issue=sc_issue,
        sc_steps=sc_steps,
        sc_gap_total=sc_gap_total,
        sc_p=sc_p,
        sc_levels=sc_levels,
        sc_banks=sc_banks,
        sc_wb=sc_wb,
        sc_pf=sc_pf,
        va_occ=va_occ,
        vm_n=vm_n,
        vm_steps=vm_steps,
        vm_levels=vm_levels,
        vm_banks=vm_banks,
        vm_wb=vm_wb,
        vm_dram=vm_dram,
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
