"""RISC-V Vector Extension (RVV v0.7.1 subset) ISA layer.

Kernels are written against :class:`VectorContext`, an intrinsics-level API
mirroring the builtins the paper's LLVM-EPI compiler exposes: ``vsetvl``
strip-mining, unit-stride/strided/indexed loads and stores, FP and integer
arithmetic, mask ops, ``viota``/``vcompress`` style permutes, and reductions.
Every intrinsic executes functionally on NumPy data *and* appends one
vector record (a :class:`repro.trace.VectorInstr` in the row view) to the
active trace.

The scalar side uses :class:`ScalarContext`, which supports both an
instruction-level mini-interpreter (for clarity on small inputs) and
columnar block emission (for paper-scale address streams computed with
NumPy).

Deliberate simplifications (documented ISA divergences):

* vector *values* are passed around instead of the 32 architectural
  registers — the hand-vectorized kernels of the paper fit the register
  budget, so spills never occur and register allocation carries no timing
  information here;
* indexed accesses take element indices (the intrinsics' ``byte offset =
  index << log2(sew/8)`` shift is folded into address generation);
* SEW is 64 throughout (the paper measures double-precision workloads);
  integer data also uses 64-bit elements.
"""

from repro.isa.csr import CsrFile, CSR_MAXVL, CSR_VL, CSR_CYCLE
from repro.isa.vreg import VMask, VReg
from repro.isa.vector_ctx import VectorContext
from repro.isa.scalar_ctx import ScalarContext

__all__ = [
    "CsrFile",
    "CSR_MAXVL",
    "CSR_VL",
    "CSR_CYCLE",
    "VMask",
    "VReg",
    "VectorContext",
    "ScalarContext",
]
