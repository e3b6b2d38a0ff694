"""Lower a classified trace into flat, knob-independent arrays.

A Figure-3/Figure-5 sweep re-times the *same* classified trace at many
Latency Controller / Bandwidth Limiter settings. Almost everything the fast
engine computes per record is identical at every one of those points:
record kinds, dependency edges, arithmetic occupancies, address-generation
times, line/transaction counts, scalar-block issue and L2-stall terms. Only
the terms proportional to ``dram_latency`` (which carries the extra-latency
knob) and to the limiter window ``bw_den/bw_num`` change.

:func:`lower_trace` factors that split out once: it compiles a
:class:`repro.memory.classify.ClassifiedTrace` into a :class:`LoweredTrace`
of plain NumPy arrays — no structured-array row objects,
no enum lookups, no cost-model calls left on the timing path. The batch
engine (:mod:`repro.engine.batch_sim`) then times every sweep point in a
single trace walk, broadcasting the per-record recurrence over the knob
axis.

The decompositions mirror :mod:`repro.engine.core_model` and
:mod:`repro.engine.vpu_model` term by term (same operations in the same
order, so the batch engine reproduces :func:`simulate_fast` cycles
bit-for-bit); the batch-vs-fast agreement tests pin that equivalence on
every kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.config import SdvConfig
from repro.engine import vpu_model
from repro.errors import EngineError
from repro.memory.classify import ClassifiedTrace
from repro.trace.events import (
    OPCLASS_ID,
    PATTERN_ID,
    REC_BARRIER,
    REC_VECTOR,
    VMemPattern,
    VOpClass,
)

# Lowered record kinds; walk.c and event.c switch on these codes. A
# vector record is arithmetic, memory or vsetvl (CSR), so the walk needs
# no opclass lookup.
LKIND_SCALAR, LKIND_VARITH, LKIND_VMEM, LKIND_BARRIER, LKIND_CSR = range(5)

# first-latency selector for vector memory rows
FIRST_NONE, FIRST_L2, FIRST_DRAM = 0, 1, 2

_CSR_ID = OPCLASS_ID[VOpClass.CSR]
_MEM_ID = OPCLASS_ID[VOpClass.MEM]
_INDEXED_ID = PATTERN_ID[VMemPattern.INDEXED]


def knob_free_config(config: SdvConfig) -> SdvConfig:
    """``config`` with the two sweep knobs neutralized.

    Two configs that agree on this key may be timed from the same
    :class:`LoweredTrace`; everything else (cache geometry, VPU build,
    NoC latencies, ...) is baked into the lowered arrays.
    """
    return dataclasses.replace(
        config,
        mem=dataclasses.replace(
            config.mem, extra_latency_cycles=0, bw_num=1, bw_den=1
        ),
    )


@dataclass
class LoweredTrace:
    """Knob-independent compilation of one classified trace.

    Per-record arrays drive the sequential frontier walk; the kind-specific
    arrays are indexed by ``slot`` (each record's position within its own
    kind) and feed the vectorized per-batch matrix precomputation.
    """

    base: SdvConfig            # config the trace was classified under
    base_key: SdvConfig        # knob_free_config(base): batch compat key
    n: int

    # per-record walk data ----------------------------------------------
    kind: np.ndarray           # int64 LKIND_* codes
    dep: np.ndarray            # int64 producing record index, -1 if none
    slot: np.ndarray           # int64 index into the kind arrays below
    scalar_dest: np.ndarray    # bool per record

    # scalar blocks, indexed by slot --------------------------------------
    sc_l2_hits: np.ndarray     # float: L2 hit count (for re-timed L2 lat)
    sc_dram_reads: np.ndarray  # float: demand DRAM reads
    sc_p: np.ndarray           # float: effective MLP min(mshrs, hint)
    sc_bw_txns: np.ndarray     # float: limiter transactions (incl. prefetch)
    sc_issue: np.ndarray       # issue component alone (breakdown)
    sc_stall_l2: np.ndarray    # L2 stall component alone (breakdown)

    # vector arithmetic (non-CSR), indexed by slot ------------------------
    va_occ: np.ndarray         # pipe occupancy in cycles

    # vector memory, indexed by slot --------------------------------------
    vm_addr: np.ndarray        # AGU occupancy in cycles
    vm_lines: np.ndarray       # float: line requests
    vm_l2_lines: np.ndarray    # float: lines served by L2
    vm_txns: np.ndarray        # float: DRAM transactions (reads+writebacks)
    vm_dram_reads: np.ndarray  # float: DRAM read lines (MSHR recurrence)
    vm_first_kind: np.ndarray  # FIRST_NONE / FIRST_L2 / FIRST_DRAM

    # trace-wide totals ---------------------------------------------------
    total_dram_reads: int      # demand + prefetch reads (fast-engine count)
    total_dram_writes: int

    @property
    def n_vmem(self) -> int:
        return int(self.vm_addr.shape[0])


def lower_cached(ct: ClassifiedTrace, *, lower=None) -> LoweredTrace:
    """``ct``'s lowering, compiled once per trace and knob-free config.

    Lowering is knob-independent, so it is memoized on the trace object
    under :func:`knob_free_config` and amortizes across every sweep
    point, every batch call and both engines: ``FpgaSdv.lower`` and the
    event engine's plan (:func:`repro.engine.event_common.build_event_plan`)
    share the memo. ``lower`` compiles on a miss (default
    :func:`lower_trace`); lookups count as ``lower_cache.hits`` /
    ``lower_cache.misses`` on the recorder.
    """
    from repro.obs.record import get_recorder

    cache = getattr(ct.trace, "_lowered_cache", None)
    if cache is None:
        cache = {}
        setattr(ct.trace, "_lowered_cache", cache)
    key = knob_free_config(ct.config)
    lowered = cache.get(key)
    if lowered is None:
        get_recorder().count("lower_cache.misses")
        lowered = (lower_trace if lower is None else lower)(ct)
        cache[key] = lowered
    else:
        get_recorder().count("lower_cache.hits")
    return lowered


def lower_trace(ct: ClassifiedTrace) -> LoweredTrace:
    """Compile ``ct`` once into knob-independent flat arrays.

    Each kind's fields are gathered one by one through the kind's record
    indices: the counts from the classification's rows, every other
    field from the trace's own columns.
    """
    config = ct.config.validate()
    cols = ct.trace.cols
    counts = ct.rows
    n = int(counts.shape[0])
    core = config.core
    vpu = config.vpu
    l2_lat = config.l2_hit_latency  # hoisted: knob-independent

    opclass_all = cols.opclass
    vector = cols.kind == REC_VECTOR
    vm_mask = vector & (opclass_all == _MEM_ID)
    csr_mask = vector & (opclass_all == _CSR_ID)
    lkind = np.where(cols.kind == REC_BARRIER, LKIND_BARRIER,
                     np.where(vector, LKIND_VARITH, LKIND_SCALAR))
    lkind[vm_mask] = LKIND_VMEM
    lkind[csr_mask] = LKIND_CSR
    sc_idx = np.flatnonzero(lkind == LKIND_SCALAR)
    va_idx = np.flatnonzero(lkind == LKIND_VARITH)
    vm_idx = np.flatnonzero(vm_mask)

    # -- scalar blocks (mirrors core_model.scalar_block_time) -------------
    sc_l2_hits = counts["l2_hits"][sc_idx]
    sc_dram_reads = counts["dram_reads"][sc_idx]
    sc_pf = counts["pf_dram_reads"][sc_idx]
    off = cols.addr_off
    sc_issue = (cols.n_alu[sc_idx] * core.alu_cpi
                + (off[sc_idx + 1] - off[sc_idx])) / core.issue_width
    sc_p = np.maximum(1, np.minimum(core.mshrs, cols.mlp[sc_idx]))
    sc_stall_l2 = sc_l2_hits * l2_lat / sc_p
    sc_bw_txns = (sc_dram_reads + counts["dram_writes"][sc_idx]
                  + sc_pf).astype(np.float64)

    # -- vector arithmetic (mirrors vpu_model.arith_occupancy) ------------
    va_vl = np.maximum(cols.vl[va_idx].astype(np.int64), 1)
    groups = (va_vl + vpu.lanes - 1) // vpu.lanes
    tree = int(np.ceil(np.log2(max(vpu.lanes, 2))))
    opclass = opclass_all[va_idx]
    class_occ = np.empty((len(VOpClass), groups.shape[0]), dtype=np.float64)
    for cid, oc in enumerate(VOpClass):
        if oc is VOpClass.ARITH:
            class_occ[cid] = np.maximum(1, groups)
        elif oc is VOpClass.ARITH_HEAVY:
            class_occ[cid] = groups * vpu_model.HEAVY_CPE
        elif oc is VOpClass.REDUCE:
            class_occ[cid] = groups + tree + vpu_model.REDUCE_TREE_BASE
        elif oc is VOpClass.PERMUTE:
            class_occ[cid] = 2 * groups
        elif oc is VOpClass.MASK:
            class_occ[cid] = np.maximum(
                1, (va_vl + vpu.lanes * 8 - 1) // (vpu.lanes * 8))
        else:  # CSR / MEM never land in va_idx
            class_occ[cid] = 0.0
    va_occ = (class_occ[opclass, np.arange(groups.shape[0])]
              if groups.shape[0] else np.empty(0, dtype=np.float64))

    # -- vector memory (mirrors vpu_model.vmem_cost) ----------------------
    req_off = ct.req_off
    vm_lines_i = req_off[vm_idx + 1] - req_off[vm_idx]
    vm_dr = counts["dram_reads"][vm_idx]
    vm_addr = np.where(
        cols.pattern[vm_idx] == _INDEXED_ID,
        cols.active[vm_idx] / vpu.gather_issue_per_cycle,
        vm_lines_i / vpu.stride_issue_per_cycle,
    )
    vm_l2_lines = np.where(vm_lines_i >= vm_dr, vm_lines_i - vm_dr, 0
                           ).astype(np.float64)
    vm_txns = (vm_dr + counts["dram_writes"][vm_idx]).astype(np.float64)
    vm_first_kind = np.where(
        vm_dr > 0, FIRST_DRAM, np.where(vm_lines_i > 0, FIRST_L2, FIRST_NONE)
    ).astype(np.int8)

    # -- per-record walk arrays -------------------------------------------
    slot = np.zeros(n, dtype=np.int64)
    for idx in (sc_idx, va_idx, vm_idx):
        slot[idx] = np.arange(idx.shape[0])
    deps = cols.dep
    dep_targets = deps[deps >= 0]
    # The walk only records start/completion for vector records; a dep edge
    # into a scalar block (impossible for register dataflow) would read
    # stale zeros, so reject it up front.
    if dep_targets.size and np.any(lkind[dep_targets] == LKIND_SCALAR):
        raise EngineError("dependency edge points at a scalar block")

    total_reads = int(counts["dram_reads"].sum() + sc_pf.sum())
    total_writes = int(counts["dram_writes"].sum())

    return LoweredTrace(
        base=config,
        base_key=knob_free_config(config),
        n=n,
        kind=lkind,
        dep=deps.astype(np.int64),
        slot=slot,
        scalar_dest=cols.scalar_dest != 0,
        sc_l2_hits=sc_l2_hits.astype(np.float64),
        sc_dram_reads=sc_dram_reads.astype(np.float64),
        sc_p=sc_p.astype(np.float64),
        sc_bw_txns=sc_bw_txns,
        sc_issue=np.asarray(sc_issue, dtype=np.float64),
        sc_stall_l2=np.asarray(sc_stall_l2, dtype=np.float64),
        va_occ=np.asarray(va_occ, dtype=np.float64),
        vm_addr=np.asarray(vm_addr, dtype=np.float64),
        vm_lines=vm_lines_i.astype(np.float64),
        vm_l2_lines=vm_l2_lines,
        vm_txns=vm_txns,
        vm_dram_reads=vm_dr.astype(np.float64),
        vm_first_kind=vm_first_kind,
        total_dram_reads=total_reads,
        total_dram_writes=total_writes,
    )
