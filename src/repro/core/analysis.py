"""Workload characterization: roofline placement and traffic breakdown.

The paper motivates its kernel choice by their *non-dense* character (SpMV
"memory bound", PR "slightly more computational intensity", FFT "arithmetic
intensity and complex memory access patterns"). This module quantifies
those statements from the simulator's own data:

* :func:`characterize` — per run: FP-op count, DRAM traffic, arithmetic
  intensity (flops/DRAM byte), achieved GFLOP-equivalents per cycle, and
  the roofline bound that limits it;
* :func:`roofline_bound` — the classic min(peak-compute, AI × bandwidth)
  model for the simulated machine;
* :func:`traffic_breakdown` — where the memory references landed
  (L1/L2/DRAM) and how many bytes each level served.

Used by ``repro-sdv characterize`` and by tests asserting the paper's
Section 3.1 characterizations hold on our inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SdvConfig
from repro.engine.results import CycleReport
from repro.memory.classify import ClassifiedTrace
from repro.trace.events import (
    NO_ID,
    OPCLASS_ID,
    REC_SCALAR,
    REC_VECTOR,
    VOpClass,
)
from repro.util.units import LINE_BYTES

#: rough fraction of a scalar block's ALU ops that are floating point (the
#: remainder is address arithmetic and control); used only for reporting.
SCALAR_FP_FRACTION = 0.4

#: FP ops contributed per element by each vector op class (fma counts 2)
_FP_PER_ELEM = {
    VOpClass.ARITH: 1.0,
    VOpClass.ARITH_HEAVY: 1.0,
    VOpClass.REDUCE: 1.0,
}


@dataclass(frozen=True)
class Characterization:
    """Roofline-style summary of one kernel execution."""

    kernel: str
    impl: str
    cycles: float
    fp_ops: float
    dram_bytes: float
    l1_refs: int
    l2_refs: int
    dram_refs: int

    @property
    def arithmetic_intensity(self) -> float:
        """FP ops per byte of DRAM traffic."""
        return self.fp_ops / self.dram_bytes if self.dram_bytes else float("inf")

    @property
    def flops_per_cycle(self) -> float:
        return self.fp_ops / self.cycles if self.cycles else 0.0

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bytes / self.cycles if self.cycles else 0.0


#: vector opcodes that carry no FP work (integer and move ops)
_INT_PREFIXES = ("vadd", "vsub", "vmul", "vand", "vor", "vxor", "vsll",
                 "vsrl", "vmin", "vmax", "vid", "vmv", "vredsum", "vredmax",
                 "vredmin")


def count_fp_ops(ct: ClassifiedTrace) -> float:
    """Estimate FP operations executed by a classified trace.

    Computed from the trace's columns, one term per record: a scalar
    block's ALU ops times :data:`SCALAR_FP_FRACTION`; a vector op's
    active elements times its class's :data:`_FP_PER_ELEM` factor (2 for
    ``vfmacc``, 0 for integer opcodes). The terms are summed left to
    right in record order (``cumsum`` adds sequentially, unlike ``sum``).
    """
    cols = ct.trace.cols
    if cols.n == 0:
        return 0.0
    # per interned opcode string: is it an FMA, is it integer work
    fma = np.array([s == "vfmacc" for s in cols.strings])[cols.opcode_id]
    int_op = np.array([s.startswith(_INT_PREFIXES)
                       for s in cols.strings])[cols.opcode_id]
    # per op class id: does it carry FP work, and its factor
    fp_class = np.zeros(NO_ID + 1, dtype=bool)
    class_mult = np.zeros(NO_ID + 1)
    for op, mult in _FP_PER_ELEM.items():
        fp_class[OPCLASS_ID[op]] = True
        class_mult[OPCLASS_ID[op]] = mult
    fp_vec = (cols.kind == REC_VECTOR) & fp_class[cols.opclass] & ~int_op
    terms = np.where(fp_vec, np.where(fma, 2.0, class_mult[cols.opclass])
                     * cols.active, 0.0)
    terms = np.where(cols.kind == REC_SCALAR,
                     SCALAR_FP_FRACTION * cols.n_alu, terms)
    return float(np.cumsum(terms)[-1])


def characterize(ct: ClassifiedTrace, report: CycleReport, *,
                 kernel: str = "", impl: str = "") -> Characterization:
    """Build the roofline summary for one timed run."""
    totals = ct.totals
    return Characterization(
        kernel=kernel,
        impl=impl,
        cycles=report.cycles,
        fp_ops=count_fp_ops(ct),
        dram_bytes=float(ct.dram_bytes),
        l1_refs=totals["l1_hits"],
        l2_refs=totals["l2_hits"],
        dram_refs=totals["dram_reads"],
    )


def peak_flops_per_cycle(config: SdvConfig, *, vector: bool) -> float:
    """Machine compute roof: lanes FMAs/cycle for the VPU, 1 for the core."""
    if vector:
        return 2.0 * config.vpu.lanes  # fma = 2 flops per lane per cycle
    return 2.0 / config.core.issue_width  # one fused op among 2 slots


def roofline_bound(config: SdvConfig, ai: float, *, vector: bool) -> float:
    """Attainable flops/cycle at arithmetic intensity ``ai``."""
    bw = config.mem.bytes_per_cycle_limit
    return min(peak_flops_per_cycle(config, vector=vector), ai * bw)


def traffic_breakdown(ct: ClassifiedTrace) -> dict[str, float]:
    """Bytes served per level (scalar refs are 8 B, lines are 64 B)."""
    t = ct.totals
    return {
        "l1_bytes": 8.0 * t["l1_hits"],
        "l2_bytes": float(LINE_BYTES * t["l2_hits"]),
        "dram_bytes": float(LINE_BYTES
                            * (t["dram_reads"] + t["dram_writes"])),
    }
