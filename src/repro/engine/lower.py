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
from repro.memory.classify import (
    KIND_BARRIER,
    KIND_SCALAR,
    KIND_VARITH,
    KIND_VMEM,
    ClassifiedTrace,
)
from repro.trace.events import VMemPattern, VOpClass

# Lowered record kinds. Same codes as classify for the shared ones, plus a
# dedicated code for vsetvl rows so the walk needs no opclass lookup.
LKIND_SCALAR = KIND_SCALAR
LKIND_VARITH = KIND_VARITH
LKIND_VMEM = KIND_VMEM
LKIND_BARRIER = KIND_BARRIER
LKIND_CSR = 4

# first-latency selector for vector memory rows
FIRST_NONE, FIRST_L2, FIRST_DRAM = 0, 1, 2

_CSR_ID = list(VOpClass).index(VOpClass.CSR)
_INDEXED_ID = list(VMemPattern).index(VMemPattern.INDEXED)


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


def lower_trace(ct: ClassifiedTrace) -> LoweredTrace:
    """Compile ``ct`` once into knob-independent flat arrays."""
    config = ct.config.validate()
    rows = ct.rows
    n = int(rows.shape[0])
    core = config.core
    vpu = config.vpu
    l2_lat = config.l2_hit_latency  # hoisted: knob-independent

    kinds_arr = rows["kind"]
    sc_mask = kinds_arr == KIND_SCALAR
    va_mask = (kinds_arr == KIND_VARITH) & (rows["opclass"] != _CSR_ID)
    csr_mask = (kinds_arr == KIND_VARITH) & (rows["opclass"] == _CSR_ID)
    vm_mask = kinds_arr == KIND_VMEM

    # -- scalar blocks (mirrors core_model.scalar_block_time) -------------
    sc = rows[sc_mask]
    sc_issue = (sc["n_alu"] * core.alu_cpi + sc["n_mem"]) / core.issue_width
    sc_p = np.maximum(1, np.minimum(core.mshrs, sc["mlp_hint"]))
    sc_stall_l2 = sc["l2_hits"] * l2_lat / sc_p
    sc_bw_txns = (sc["dram_reads"] + sc["dram_writes"]
                  + sc["pf_dram_reads"]).astype(np.float64)

    # -- vector arithmetic (mirrors vpu_model.arith_occupancy) ------------
    va = rows[va_mask]
    va_vl = np.maximum(va["vl"].astype(np.int64), 1)
    groups = (va_vl + vpu.lanes - 1) // vpu.lanes
    tree = int(np.ceil(np.log2(max(vpu.lanes, 2))))
    opclass = va["opclass"]
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
        else:  # CSR / MEM never land in va_mask
            class_occ[cid] = 0.0
    va_occ = (class_occ[opclass, np.arange(groups.shape[0])]
              if groups.shape[0] else np.empty(0, dtype=np.float64))

    # -- vector memory (mirrors vpu_model.vmem_cost) ----------------------
    vm = rows[vm_mask]
    vm_lines_i = vm["n_line_reqs"]
    vm_dr = vm["dram_reads"]
    vm_addr = np.where(
        vm["pattern"] == _INDEXED_ID,
        vm["active"] / vpu.gather_issue_per_cycle,
        vm_lines_i / vpu.stride_issue_per_cycle,
    )
    vm_l2_lines = np.where(vm_lines_i >= vm_dr, vm_lines_i - vm_dr, 0
                           ).astype(np.float64)
    vm_txns = (vm_dr + vm["dram_writes"]).astype(np.float64)
    vm_first_kind = np.where(
        vm_dr > 0, FIRST_DRAM, np.where(vm_lines_i > 0, FIRST_L2, FIRST_NONE)
    ).astype(np.int8)

    # -- per-record walk arrays -------------------------------------------
    lkind = np.asarray(kinds_arr, dtype=np.int64).copy()
    lkind[csr_mask] = LKIND_CSR
    slot = np.zeros(n, dtype=np.int64)
    for mask in (sc_mask, va_mask, vm_mask):
        slot[mask] = np.arange(int(mask.sum()))
    deps = rows["dep"]
    dep_targets = deps[deps >= 0]
    # The walk only records start/completion for vector records; a dep edge
    # into a scalar block (impossible for register dataflow) would read
    # stale zeros, so reject it up front.
    if dep_targets.size and np.any(lkind[dep_targets] == LKIND_SCALAR):
        raise EngineError("dependency edge points at a scalar block")

    total_reads = int(rows["dram_reads"].sum()
                      + rows["pf_dram_reads"][sc_mask].sum())
    total_writes = int(rows["dram_writes"].sum())

    return LoweredTrace(
        base=config,
        base_key=knob_free_config(config),
        n=n,
        kind=lkind,
        dep=deps.astype(np.int64),
        slot=slot,
        scalar_dest=rows["scalar_dest"] != 0,
        sc_l2_hits=sc["l2_hits"].astype(np.float64),
        sc_dram_reads=sc["dram_reads"].astype(np.float64),
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
