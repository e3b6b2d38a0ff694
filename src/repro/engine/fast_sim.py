"""Per-record analytical timing model: the batch engine's specification.

Not a runtime engine: :mod:`repro.engine.batch_sim` times every sweep
point in one walk and must return this model's cycles at each of them, to
the bit. This module stays as the readable one-config-per-call statement
of the model, and draws the analytic machine-activity timeline that the
batch walk cannot keep.

Walks the classified trace once, maintaining three machine frontiers:

* ``t_scalar`` — the scalar core, which runs ahead of the VPU (decoupling)
  and only waits at barriers and on scalar-destination vector instructions
  (vpopc/vfirst/reductions/vsetvl);
* the arithmetic pipe (in-order, occupancy per :mod:`vpu_model`);
* the vector memory unit — an in-order AGU plus a decoupled queue of up to
  ``mem_queue_depth`` in-flight memory instructions whose latencies overlap.

Read-after-write dependencies come from the trace's ``dep`` field. With
chaining enabled a consumer may start when the producer's first elements
arrive (``start + first_latency + pipe``) but cannot complete before the
producer completes; with chaining disabled it waits for full completion.

Bandwidth appears twice, matching the Bandwidth Limiter hardware: in each
memory instruction's streaming time, and as a global floor — the run cannot
finish before all DRAM transactions have streamed through the limiter
window.
"""

from __future__ import annotations

import numpy as np

from repro.engine import core_model, vpu_model
from repro.engine.results import CycleReport
from repro.errors import EngineError
from repro.memory.classify import ClassifiedTrace
from repro.trace.events import (
    REC_BARRIER,
    REC_SCALAR,
    REC_VECTOR,
    VMemPattern,
    VOpClass,
)

_OPCLASS = list(VOpClass)
_PATTERN = list(VMemPattern)


def simulate_fast(ct: ClassifiedTrace, *, timeline=None) -> CycleReport:
    """Time a classified trace; returns a :class:`CycleReport`.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) records
    each record's analytical busy interval on its machine-unit track; the
    default ``None`` keeps the hot loop free of bookkeeping.
    """
    config = ct.config
    counts = ct.rows
    cols = ct.trace.cols
    off, req_off = cols.addr_off, ct.req_off
    n = counts.shape[0]
    if n == 0:
        return CycleReport(cycles=0.0, engine="fast")
    if timeline is not None:
        timeline.engine = "fast"

    vpu = config.vpu
    mem = config.mem
    chaining = vpu.chaining
    q_depth = vpu.mem_queue_depth

    # frontiers
    t_scalar = 0.0
    t_arith = 0.0        # arithmetic pipe availability (throughput)
    t_arith_done = 0.0   # latest arithmetic completion (latency)
    t_agu = 0.0          # memory-unit issue availability
    t_mshr = 0.0         # DRAM line-return frontier (line-MSHR throughput)
    mem_completions: list[float] = []  # completion times of mem instrs, in order
    t_vmem_done = 0.0    # latest memory completion (instrs finish out of order)

    # per-record times for dependency lookups
    start = np.zeros(n, dtype=np.float64)
    completion = np.zeros(n, dtype=np.float64)
    first_lat = np.zeros(n, dtype=np.float64)

    # breakdown accumulators
    acc_issue = 0.0
    acc_stall = 0.0
    acc_varith = 0.0
    acc_vmem = 0.0
    dram_reads = 0
    dram_writes = 0

    kinds = cols.kind
    for i in range(n):
        kind = kinds[i]
        row = counts[i]

        if kind == REC_SCALAR:
            bt = core_model.scalar_block_time(
                config,
                n_alu=int(cols.n_alu[i]),
                n_mem=int(off[i + 1] - off[i]),
                l2_hits=int(row["l2_hits"]),
                dram_reads=int(row["dram_reads"]),
                dram_writes=int(row["dram_writes"]),
                mlp_hint=int(cols.mlp[i]),
                pf_dram_reads=int(row["pf_dram_reads"]),
            )
            t_scalar += bt.total
            acc_issue += bt.issue
            acc_stall += bt.stall
            dram_reads += int(row["dram_reads"]) + int(row["pf_dram_reads"])
            dram_writes += int(row["dram_writes"])
            start[i] = t_scalar - bt.total
            completion[i] = t_scalar
            if timeline is not None:
                timeline.add("scalar-core", f"scalar[{i}]",
                             start[i], t_scalar,
                             issue=bt.issue, stall=bt.stall)
            continue

        if kind == REC_BARRIER:
            t_sync = max(t_scalar, t_arith, t_arith_done, t_vmem_done)
            t_scalar = t_arith = t_arith_done = t_agu = t_vmem_done = t_sync
            t_mshr = min(t_mshr, t_sync)
            start[i] = completion[i] = t_sync
            if timeline is not None:
                timeline.instant("scalar-core", f"barrier[{i}]", t_sync)
            continue

        if kind != REC_VECTOR:
            raise EngineError(f"unknown record kind {kind}")
        opclass = _OPCLASS[cols.opclass[i]]
        dep = int(cols.dep[i])
        vl = int(cols.vl[i])

        if opclass is not VOpClass.MEM:
            if opclass is VOpClass.CSR:
                # vsetvl executes on the scalar side and returns vl
                t_scalar += core_model.VSETVL_CYCLES
                start[i] = completion[i] = t_scalar
                continue

            occ = vpu_model.arith_occupancy(config, opclass, vl)
            pipe_lat = vpu_model.arith_latency(config)
            dispatch = t_scalar + core_model.VECTOR_DISPATCH_CYCLES
            t_scalar = dispatch

            ready = dispatch
            floor = 0.0
            if dep >= 0:
                if chaining:
                    ready = max(ready, start[dep] + first_lat[dep]
                                + vpu_model.LANE_PIPE_DEPTH)
                    floor = completion[dep] + vpu_model.LANE_PIPE_DEPTH
                else:
                    ready = max(ready, completion[dep])
            s = max(ready, t_arith)
            # pipe throughput advances by occupancy; the result is visible
            # one pipeline latency later (dependency path only)
            c = max(s + occ + pipe_lat, floor)
            t_arith = s + occ
            t_arith_done = max(t_arith_done, c)
            start[i] = s
            completion[i] = c
            acc_varith += occ
            if timeline is not None:
                timeline.add("vpu-arith", f"varith[{i}]", s, c,
                             vl=vl, occupancy=occ)
            if cols.scalar_dest[i]:
                t_scalar = max(
                    t_scalar,
                    c + core_model.SCALAR_RESULT_TRANSFER_CYCLES,
                )
            continue

        # vector memory
        n_lines = int(req_off[i + 1] - req_off[i])
        cost = vpu_model.vmem_cost(
            config,
            pattern=_PATTERN[cols.pattern[i]],
            vl=vl,
            active=int(cols.active[i]),
            n_lines=n_lines,
            dram_reads=int(row["dram_reads"]),
            dram_writes=int(row["dram_writes"]),
        )
        dram_reads += int(row["dram_reads"])
        dram_writes += int(row["dram_writes"])

        dispatch = t_scalar + core_model.VECTOR_DISPATCH_CYCLES
        t_scalar = dispatch

        ready = dispatch
        floor = 0.0
        if dep >= 0:
            if chaining:
                ready = max(ready, start[dep] + first_lat[dep]
                            + vpu_model.LANE_PIPE_DEPTH)
                floor = completion[dep] + vpu_model.LANE_PIPE_DEPTH
            else:
                ready = max(ready, completion[dep])

        # decoupled queue: a slot frees when the (i - q_depth)-th
        # previous memory instruction completes
        slot_free = (mem_completions[-q_depth]
                     if len(mem_completions) >= q_depth else 0.0)

        if vpu.ooo_mem_issue:
            # the AGU reserves its slot in order, but an instruction
            # stalled on a register dependency does not hold it: younger
            # independent loads stream past (OoO memory queue)
            agu_slot = max(t_agu, dispatch, slot_free)
            t_agu = agu_slot + cost.addr_cycles
            s = max(agu_slot, ready)
        else:
            # strict in-order issue: a dep-blocked gather stalls the pipe
            s = max(ready, t_agu, slot_free)
            t_agu = s + cost.addr_cycles
        busy = max(cost.addr_cycles, cost.service_cycles)
        c = max(s + cost.first_latency + busy, floor)
        d = int(row["dram_reads"])
        if d > 0:
            # the line-MSHR pool sustains at most line_mshrs/dram_latency
            # lines per cycle; the instruction's last line cannot return
            # before the pool has cycled through its share
            t_mshr = (max(t_mshr, s + config.dram_latency)
                      + d * config.dram_latency / vpu.line_mshrs)
            c = max(c, t_mshr)
        mem_completions.append(c)
        t_vmem_done = max(t_vmem_done, c)
        start[i] = s
        completion[i] = c
        first_lat[i] = cost.first_latency
        acc_vmem += busy
        if timeline is not None:
            timeline.add("vpu-mem", f"vmem[{i}]", s, c,
                         vl=vl, lines=n_lines,
                         dram_reads=d)

    t_end = max(t_scalar, t_arith, t_arith_done, t_vmem_done)

    # global Bandwidth Limiter floor
    total_dram = dram_reads + dram_writes
    if total_dram > 0:
        bw_floor = ((total_dram - 1) // mem.bw_num) * mem.bw_den + 1.0
        bw_floor += config.dram_latency  # the last transaction's latency
    else:
        bw_floor = 0.0
    cycles = max(t_end, bw_floor)

    return CycleReport(
        cycles=cycles,
        engine="fast",
        scalar_issue_cycles=acc_issue,
        scalar_stall_cycles=acc_stall,
        vpu_arith_cycles=acc_varith,
        vpu_mem_cycles=acc_vmem,
        bandwidth_bound_cycles=bw_floor,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        meta={"records": int(n)},
    )
