"""Intrinsics-level RVV v0.7.1 execution context.

Each method is one vector instruction: it computes the functional result on
NumPy data and appends the corresponding record to the trace's columns (a
:class:`VectorInstr` in the trace's row view).
Naming follows the EPI builtins / RVV mnemonics (``vle``, ``vlse``, ``vlxe``,
``vfmacc``, ``vmseq``, ``viota``, ``vcompress``, ``vfredsum``, ...), with
the ``.vv``/``.vx``/``.vf`` operand forms folded into Python overloading
(pass a ``VReg`` or a Python scalar).

Strip-mining works exactly as on hardware: ``vsetvl(avl)`` grants
``min(avl, VLMAX)`` where VLMAX comes from the *custom max-VL CSR* the paper
introduces — lowering that CSR is how the VL sweeps of Section 4 are run.

Dependency tracking: every produced :class:`VReg`/:class:`VMask` remembers
the trace index of its producer (``src``); every emitted instruction records
the newest producer among its operands (``dep``). The timing engines use
this to model RAW hazards and chaining in the decoupled VPU without needing
architectural register numbers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IsaError
from repro.isa.csr import CsrFile
from repro.isa.vreg import VMask, VReg
from repro.memory.address_space import Allocation, MemoryImage
from repro.trace.events import (
    NO_ID,
    OPCLASS_ID,
    PATTERN_ID,
    TraceBuffer,
    VMemPattern,
    VOpClass,
)

_FLOAT = np.float64
_INT = np.int64


def _dep_of(*operands: VReg | VMask | float | int | None) -> int:
    """Newest producing record among vector operands (-1 if none)."""
    dep = -1
    for op in operands:
        if isinstance(op, (VReg, VMask)) and op.src > dep:
            dep = op.src
    return dep


class VectorContext:
    """Functional + trace-recording RVV execution context."""

    def __init__(self, mem: MemoryImage, trace: TraceBuffer,
                 csr: CsrFile | None = None, *, max_vl: int = 256) -> None:
        self.mem = mem
        self.trace = trace
        self.csr = csr if csr is not None else CsrFile(max_vl)

    # ------------------------------------------------------------------ utils

    @property
    def vl(self) -> int:
        return self.csr.vl

    @property
    def max_vl(self) -> int:
        return self.csr.max_vl

    def _emit(self, op: VOpClass, vl: int, opcode: str, *,
              pattern: VMemPattern | None = None,
              addrs: np.ndarray | None = None, is_write: bool = False,
              elem_bytes: int = 8, masked: bool = False,
              active: int | None = None, dep: int = -1,
              scalar_dest: bool = False) -> int:
        """Append to the trace; returns the record index (VReg.src).

        Writes the buffer's columns directly, with no per-record
        dataclass; the record satisfies the trace format
        (:meth:`repro.trace.events.TraceColumns.problems`), which the
        equality grid checks for every kernel.
        """
        return self.trace.emit_vector(
            OPCLASS_ID[op], vl, self.trace.intern(opcode),
            pattern_id=NO_ID if pattern is None else PATTERN_ID[pattern],
            addrs=addrs, is_write=is_write, elem_bytes=elem_bytes,
            masked=masked, active=active, dep=dep, scalar_dest=scalar_dest,
        )

    def _require_vl(self, *regs: VReg | VMask) -> int:
        vl = self.csr.vl
        if vl <= 0:
            raise IsaError("no active vl: call vsetvl first")
        for r in regs:
            if len(r) != vl:
                raise IsaError(
                    f"operand has {len(r)} elements but vl={vl}; "
                    "missing vsetvl on a strip boundary?"
                )
        return vl

    @staticmethod
    def _operand(b: VReg | float | int, like: VReg) -> np.ndarray:
        """Resolve a .vv (VReg) or .vx/.vf (scalar) second operand."""
        if isinstance(b, VReg):
            return b.data
        return np.asarray(b, dtype=like.data.dtype)

    @staticmethod
    def _mask_ops(mask: VMask | None) -> tuple[VMask, ...]:
        return (mask,) if mask is not None else ()

    # ------------------------------------------------------------- vsetvl/CSR

    def vsetvl(self, avl: int, sew: int = 64, lmul: int = 1) -> int:
        """Request ``avl`` elements; grants ``min(avl, VLMAX)``.

        ``lmul`` > 1 groups registers: strips get up to ``lmul`` times
        longer from the same physical register file — fewer instructions
        and deeper latency amortization per instruction, at the cost of
        fewer architectural registers (not modeled; see docs/isa.md).
        """
        vl = self.csr.vsetvl(avl, sew, lmul)
        self._emit(VOpClass.CSR, vl, "vsetvl",
                               scalar_dest=True)
        return vl

    def write_max_vl(self, value: int) -> None:
        """Program the custom max-VL CSR (the paper's Section 2.1 knob)."""
        self.csr.write_max_vl(value)

    def merge_tail(self, prefix: VReg, full: VReg) -> VReg:
        """Model a tail-undisturbed register write (no instruction).

        RVV v0.7.1 writes only the first ``vl`` lanes of a destination; the
        tail keeps its old contents. With value-semantic VRegs, an op run at
        a shorter vl returns only the prefix — this helper re-attaches the
        untouched tail of the architectural register (``full``). The result
        carries the prefix's producer for dependency tracking (it *is* that
        instruction's destination register).
        """
        if prefix.vl > full.vl:
            raise IsaError(
                f"prefix ({prefix.vl}) longer than full register ({full.vl})"
            )
        if prefix.data.dtype != full.data.dtype:
            raise IsaError("merge_tail dtype mismatch")
        out = full.data.copy()
        out[: prefix.vl] = prefix.data
        return VReg(out, max(prefix.src, full.src))

    def with_vl(self, reg: VReg) -> VReg:
        """Re-view a register under the *current* vl (no instruction).

        On hardware, ``vsetvl`` changes how many elements later instructions
        touch while register contents stay put — e.g. the vcompress+vpopc+
        vsetvl+vse idiom for appending a packed prefix. Our value-semantic
        VRegs carry their creation-time vl, so this helper truncates or
        zero-extends the view to the current vl. It emits nothing: it models
        vl semantics, not an operation.
        """
        vl = self.csr.vl
        if vl <= 0:
            raise IsaError("no active vl: call vsetvl first")
        if reg.vl == vl:
            return reg
        if reg.vl > vl:
            return VReg(reg.data[:vl].copy(), reg.src)
        out = np.zeros(vl, dtype=reg.data.dtype)
        out[: reg.vl] = reg.data
        return VReg(out, reg.src)

    # ----------------------------------------------------------------- loads

    def _addrs(self, alloc: Allocation, idx: np.ndarray) -> np.ndarray:
        return np.asarray(alloc.addr(idx), dtype=np.int64)

    def vle(self, alloc: Allocation, offset: int = 0,
            mask: VMask | None = None) -> VReg:
        """Unit-stride load of ``vl`` elements starting at ``offset``."""
        vl = self._require_vl(*self._mask_ops(mask))
        idx = np.arange(offset, offset + vl, dtype=np.int64)
        return self._load(alloc, idx, VMemPattern.UNIT, "vle", mask,
                          dep=_dep_of(mask))

    def vlse(self, alloc: Allocation, offset: int, stride: int,
             mask: VMask | None = None) -> VReg:
        """Strided load: elements ``offset + k*stride`` (stride in elements)."""
        if stride == 0:
            raise IsaError("vlse stride of 0 elements; use a broadcast move")
        vl = self._require_vl(*self._mask_ops(mask))
        idx = offset + stride * np.arange(vl, dtype=np.int64)
        return self._load(alloc, idx, VMemPattern.STRIDED, "vlse", mask,
                          dep=_dep_of(mask))

    def vlxe(self, alloc: Allocation, index: VReg,
             mask: VMask | None = None, *,
             after: int | None = None) -> VReg:
        """Indexed load (gather): element indices come from ``index``.

        ``after`` declares an explicit *memory-ordering* dependency: the
        trace index of an earlier store this gather must wait for (the
        machine has no inter-instruction memory disambiguation, so a
        gather reading addresses a prior scatter wrote must say so). It
        replaces the register-dataflow dep — the binding constraint is
        the in-flight store, not the long-completed index register.
        """
        self._require_vl(index, *self._mask_ops(mask))
        if index.is_float:
            raise IsaError("vlxe index register must be integer")
        dep = _dep_of(index, mask) if after is None else after
        return self._load(alloc, index.data, VMemPattern.INDEXED, "vlxe",
                          mask, dep=dep)

    def _load(self, alloc: Allocation, idx: np.ndarray, pattern: VMemPattern,
              opcode: str, mask: VMask | None, dep: int) -> VReg:
        vl = self.csr.vl
        view = alloc.view.reshape(-1)
        if mask is not None:
            active_idx = idx[mask.bits]
            data = np.zeros(vl, dtype=view.dtype)
            data[mask.bits] = view[active_idx]
            addrs = self._addrs(alloc, active_idx)
            active = int(mask.bits.sum())
        else:
            data = view[idx].copy()
            addrs = self._addrs(alloc, idx)
            active = vl
        if data.dtype not in (_FLOAT, _INT, np.uint64):
            data = data.astype(_INT)
        src = self._emit(
            VOpClass.MEM, vl, opcode, pattern=pattern,
            addrs=addrs, is_write=False, elem_bytes=alloc.itemsize,
            masked=mask is not None, active=active, dep=dep)
        return VReg(np.ascontiguousarray(data), src)

    # ---------------------------------------------------------------- stores

    def vse(self, value: VReg, alloc: Allocation, offset: int = 0,
            mask: VMask | None = None) -> int:
        """Unit-stride store of ``vl`` elements starting at ``offset``.

        Stores return their trace record index so a later access that
        must be ordered after them (see :meth:`vlxe`'s ``after``) can
        name them.
        """
        vl = self._require_vl(value, *self._mask_ops(mask))
        idx = np.arange(offset, offset + vl, dtype=np.int64)
        return self._store(value, alloc, idx, VMemPattern.UNIT, "vse", mask)

    def vsse(self, value: VReg, alloc: Allocation, offset: int, stride: int,
             mask: VMask | None = None) -> int:
        """Strided store (stride in elements)."""
        if stride == 0:
            raise IsaError("vsse stride of 0 elements")
        vl = self._require_vl(value, *self._mask_ops(mask))
        idx = offset + stride * np.arange(vl, dtype=np.int64)
        return self._store(value, alloc, idx, VMemPattern.STRIDED, "vsse",
                           mask)

    def vsxe(self, value: VReg, alloc: Allocation, index: VReg,
             mask: VMask | None = None) -> int:
        """Indexed store (scatter); returns the trace record index."""
        self._require_vl(value, index, *self._mask_ops(mask))
        if index.is_float:
            raise IsaError("vsxe index register must be integer")
        return self._store(value, alloc, index.data, VMemPattern.INDEXED,
                           "vsxe", mask, extra_dep=index)

    def _store(self, value: VReg, alloc: Allocation, idx: np.ndarray,
               pattern: VMemPattern, opcode: str, mask: VMask | None,
               extra_dep: VReg | None = None) -> int:
        vl = self.csr.vl
        view = alloc.view.reshape(-1)
        if mask is not None:
            active_idx = idx[mask.bits]
            view[active_idx] = value.data[mask.bits].astype(view.dtype)
            addrs = self._addrs(alloc, active_idx)
            active = int(mask.bits.sum())
        else:
            if pattern is VMemPattern.INDEXED:
                # scatter with duplicate indices: last write wins (program order)
                np.put(view, idx, value.data.astype(view.dtype))
            else:
                view[idx] = value.data.astype(view.dtype)
            addrs = self._addrs(alloc, idx)
            active = vl
        return self._emit(
            VOpClass.MEM, vl, opcode, pattern=pattern,
            addrs=addrs, is_write=True, elem_bytes=alloc.itemsize,
            masked=mask is not None, active=active,
            dep=_dep_of(value, mask, extra_dep))

    # ------------------------------------------------------------ moves / id

    def vmv(self, value: int) -> VReg:
        """Broadcast an integer scalar (vmv.v.x)."""
        vl = self._require_vl()
        src = self._emit(VOpClass.ARITH, vl, "vmv.v.x")
        return VReg.from_scalar(value, vl, float_=False, src=src)

    def vfmv(self, value: float) -> VReg:
        """Broadcast a float scalar (vfmv.v.f)."""
        vl = self._require_vl()
        src = self._emit(VOpClass.ARITH, vl, "vfmv.v.f")
        return VReg.from_scalar(value, vl, float_=True, src=src)

    def vid(self) -> VReg:
        """Element indices 0..vl-1 (vid.v)."""
        vl = self._require_vl()
        src = self._emit(VOpClass.ARITH, vl, "vid.v")
        return VReg(np.arange(vl, dtype=_INT), src)

    # ------------------------------------------------------------- arithmetic

    def _arith(self, opcode: str, a: VReg, b: VReg | float | int | None,
               fn, *, klass: VOpClass = VOpClass.ARITH,
               mask: VMask | None = None) -> VReg:
        vl = self._require_vl(a, *([b] if isinstance(b, VReg) else []),
                              *self._mask_ops(mask))
        rhs = self._operand(b, a) if b is not None else None
        out = fn(a.data, rhs)
        if mask is not None:
            out = np.where(mask.bits, out, a.data)
        src = self._emit(klass, vl, opcode,
                                     masked=mask is not None,
                                     active=mask.popcount if mask else vl,
                                     dep=_dep_of(a, b, mask))
        return VReg(np.ascontiguousarray(out), src)

    # float
    def vfadd(self, a: VReg, b: VReg | float, mask: VMask | None = None) -> VReg:
        return self._arith("vfadd", a, b, lambda x, y: x + y, mask=mask)

    def vfsub(self, a: VReg, b: VReg | float, mask: VMask | None = None) -> VReg:
        return self._arith("vfsub", a, b, lambda x, y: x - y, mask=mask)

    def vfrsub(self, a: VReg, b: float, mask: VMask | None = None) -> VReg:
        """Reverse subtract: b - a (vfrsub.vf)."""
        return self._arith("vfrsub", a, b, lambda x, y: y - x, mask=mask)

    def vfmul(self, a: VReg, b: VReg | float, mask: VMask | None = None) -> VReg:
        return self._arith("vfmul", a, b, lambda x, y: x * y, mask=mask)

    def vfdiv(self, a: VReg, b: VReg | float, mask: VMask | None = None) -> VReg:
        return self._arith("vfdiv", a, b, lambda x, y: x / y,
                           klass=VOpClass.ARITH_HEAVY, mask=mask)

    def vfsqrt(self, a: VReg, mask: VMask | None = None) -> VReg:
        return self._arith("vfsqrt", a, None, lambda x, _: np.sqrt(x),
                           klass=VOpClass.ARITH_HEAVY, mask=mask)

    def vfmacc(self, acc: VReg, a: VReg, b: VReg | float,
               mask: VMask | None = None) -> VReg:
        """acc + a*b (fused multiply-accumulate), one instruction."""
        vl = self._require_vl(acc, a, *([b] if isinstance(b, VReg) else []),
                              *self._mask_ops(mask))
        rhs = self._operand(b, a)
        out = acc.data + a.data * rhs
        if mask is not None:
            out = np.where(mask.bits, out, acc.data)
        src = self._emit(VOpClass.ARITH, vl, "vfmacc",
                                     masked=mask is not None,
                                     active=mask.popcount if mask else vl,
                                     dep=_dep_of(acc, a, b, mask))
        return VReg(np.ascontiguousarray(out), src)

    def vfneg(self, a: VReg) -> VReg:
        return self._arith("vfneg", a, None, lambda x, _: -x)

    def vfmax(self, a: VReg, b: VReg | float) -> VReg:
        return self._arith("vfmax", a, b, np.maximum)

    def vfmin(self, a: VReg, b: VReg | float) -> VReg:
        return self._arith("vfmin", a, b, np.minimum)

    def vfabs(self, a: VReg) -> VReg:
        return self._arith("vfabs", a, None, lambda x, _: np.abs(x))

    # integer
    def vadd(self, a: VReg, b: VReg | int, mask: VMask | None = None) -> VReg:
        return self._arith("vadd", a, b, lambda x, y: x + y, mask=mask)

    def vsub(self, a: VReg, b: VReg | int, mask: VMask | None = None) -> VReg:
        return self._arith("vsub", a, b, lambda x, y: x - y, mask=mask)

    def vmul(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vmul", a, b, lambda x, y: x * y)

    def vand(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vand", a, b, lambda x, y: x & y)

    def vor(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vor", a, b, lambda x, y: x | y)

    def vxor(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vxor", a, b, lambda x, y: x ^ y)

    def vsll(self, a: VReg, shamt: VReg | int) -> VReg:
        return self._arith("vsll", a, shamt, lambda x, y: x << y)

    def vsrl(self, a: VReg, shamt: VReg | int) -> VReg:
        return self._arith("vsrl", a, shamt, lambda x, y: x >> y)

    def vmin(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vmin", a, b, np.minimum)

    def vmax(self, a: VReg, b: VReg | int) -> VReg:
        return self._arith("vmax", a, b, np.maximum)

    # ---------------------------------------------------------------- compares

    def _compare(self, opcode: str, a: VReg, b: VReg | float | int, fn) -> VMask:
        vl = self._require_vl(a, *([b] if isinstance(b, VReg) else []))
        rhs = self._operand(b, a)
        src = self._emit(VOpClass.MASK, vl, opcode,
                                     dep=_dep_of(a, b))
        return VMask(np.ascontiguousarray(fn(a.data, rhs)), src)

    def vmseq(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmseq", a, b, np.equal)

    def vmsne(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmsne", a, b, np.not_equal)

    def vmslt(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmslt", a, b, np.less)

    def vmsle(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmsle", a, b, np.less_equal)

    def vmsgt(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmsgt", a, b, np.greater)

    def vmsge(self, a: VReg, b: VReg | int) -> VMask:
        return self._compare("vmsge", a, b, np.greater_equal)

    def vmflt(self, a: VReg, b: VReg | float) -> VMask:
        return self._compare("vmflt", a, b, np.less)

    def vmfle(self, a: VReg, b: VReg | float) -> VMask:
        return self._compare("vmfle", a, b, np.less_equal)

    def vmfgt(self, a: VReg, b: VReg | float) -> VMask:
        return self._compare("vmfgt", a, b, np.greater)

    def vmfeq(self, a: VReg, b: VReg | float) -> VMask:
        return self._compare("vmfeq", a, b, np.equal)

    def vmfne(self, a: VReg, b: VReg | float) -> VMask:
        return self._compare("vmfne", a, b, np.not_equal)

    # ---------------------------------------------------------------- mask ops

    def _mask_op(self, opcode: str, a: VMask, b: VMask | None, fn) -> VMask:
        vl = self._require_vl(a, *([b] if b is not None else []))
        src = self._emit(VOpClass.MASK, vl, opcode,
                                     dep=_dep_of(a, b))
        out = fn(a.bits, b.bits if b is not None else None)
        return VMask(np.ascontiguousarray(out), src)

    def vmand(self, a: VMask, b: VMask) -> VMask:
        return self._mask_op("vmand", a, b, lambda x, y: x & y)

    def vmor(self, a: VMask, b: VMask) -> VMask:
        return self._mask_op("vmor", a, b, lambda x, y: x | y)

    def vmxor(self, a: VMask, b: VMask) -> VMask:
        return self._mask_op("vmxor", a, b, lambda x, y: x ^ y)

    def vmandnot(self, a: VMask, b: VMask) -> VMask:
        """a & ~b (vmandnot.mm)."""
        return self._mask_op("vmandnot", a, b, lambda x, y: x & ~y)

    def vmnot(self, a: VMask) -> VMask:
        return self._mask_op("vmnand", a, None, lambda x, _: ~x)

    def vpopc(self, mask: VMask) -> int:
        """Population count of a mask → scalar register (syncs the core)."""
        vl = self._require_vl(mask)
        self._emit(VOpClass.MASK, vl, "vpopc",
                               dep=_dep_of(mask), scalar_dest=True)
        return int(mask.bits.sum())

    def vfirst(self, mask: VMask) -> int:
        """Index of first set bit, or -1 (vfirst.m); scalar destination."""
        vl = self._require_vl(mask)
        self._emit(VOpClass.MASK, vl, "vfirst",
                               dep=_dep_of(mask), scalar_dest=True)
        nz = np.flatnonzero(mask.bits)
        return int(nz[0]) if nz.size else -1

    def viota(self, mask: VMask) -> VReg:
        """Exclusive prefix-count of mask bits (viota.m)."""
        vl = self._require_vl(mask)
        src = self._emit(VOpClass.MASK, vl, "viota",
                                     dep=_dep_of(mask))
        counts = np.cumsum(mask.bits) - mask.bits
        return VReg(counts.astype(_INT), src)

    # ---------------------------------------------------------------- permutes

    def vcompress(self, src_reg: VReg, mask: VMask) -> VReg:
        """Pack active elements to the front; tail zeroed (vcompress.vm).

        The returned VReg still has ``vl`` elements (hardware keeps the
        register full); use :meth:`vpopc` for the packed count.
        """
        vl = self._require_vl(src_reg, mask)
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vcompress",
                                     dep=_dep_of(src_reg, mask))
        out = np.zeros(vl, dtype=src_reg.data.dtype)
        packed = src_reg.data[mask.bits]
        out[: packed.shape[0]] = packed
        return VReg(out, src)

    def vrgather(self, src_reg: VReg, index: VReg) -> VReg:
        """Register gather: out[i] = src[index[i]] (index >= vl gives 0)."""
        vl = self._require_vl(src_reg, index)
        if index.is_float:
            raise IsaError("vrgather index must be integer")
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vrgather",
                                     dep=_dep_of(src_reg, index))
        idx = index.data
        valid = (idx >= 0) & (idx < vl)
        out = np.zeros(vl, dtype=src_reg.data.dtype)
        out[valid] = src_reg.data[idx[valid]]
        return VReg(out, src)

    def vslideup(self, src_reg: VReg, n: int, fill: VReg | None = None) -> VReg:
        """out[i] = src[i-n] for i >= n; lower elements keep ``fill`` or 0."""
        vl = self._require_vl(src_reg, *([fill] if fill else []))
        if n < 0:
            raise IsaError("slide amount must be >= 0")
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vslideup",
                                     dep=_dep_of(src_reg, fill))
        out = (fill.data.copy() if fill is not None
               else np.zeros(vl, dtype=src_reg.data.dtype))
        if n < vl:
            out[n:] = src_reg.data[: vl - n]
        return VReg(out, src)

    def vslidedown(self, src_reg: VReg, n: int) -> VReg:
        """out[i] = src[i+n] for i < vl-n; tail zeroed."""
        vl = self._require_vl(src_reg)
        if n < 0:
            raise IsaError("slide amount must be >= 0")
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vslidedown",
                                     dep=_dep_of(src_reg))
        out = np.zeros(vl, dtype=src_reg.data.dtype)
        if n < vl:
            out[: vl - n] = src_reg.data[n:]
        return VReg(out, src)

    def vmerge(self, mask: VMask, a: VReg, b: VReg | float | int) -> VReg:
        """out[i] = mask[i] ? a[i] : b[i] (vmerge.vvm)."""
        vl = self._require_vl(mask, a, *([b] if isinstance(b, VReg) else []))
        rhs = self._operand(b, a)
        src = self._emit(VOpClass.ARITH, vl, "vmerge",
                                     dep=_dep_of(mask, a, b))
        return VReg(np.ascontiguousarray(np.where(mask.bits, a.data, rhs)), src)

    # --------------------------------------------------------------- reductions

    def _reduce(self, opcode: str, src_reg: VReg, fn, init,
                mask: VMask | None = None):
        vl = self._require_vl(src_reg, *self._mask_ops(mask))
        data = src_reg.data[mask.bits] if mask is not None else src_reg.data
        self._emit(VOpClass.REDUCE, vl, opcode,
                               masked=mask is not None,
                               active=mask.popcount if mask else vl,
                               dep=_dep_of(src_reg, mask), scalar_dest=True)
        if data.size == 0:
            return init
        return fn(data, init)

    def vredsum(self, src_reg: VReg, init: int = 0,
                mask: VMask | None = None) -> int:
        return int(self._reduce("vredsum", src_reg,
                                lambda d, i: d.sum(dtype=np.int64) + i,
                                init, mask))

    def vfredsum(self, src_reg: VReg, init: float = 0.0,
                 mask: VMask | None = None) -> float:
        return float(self._reduce("vfredsum", src_reg,
                                  lambda d, i: d.sum() + i, init, mask))

    def vredmax(self, src_reg: VReg, init, mask: VMask | None = None):
        return self._reduce("vredmax", src_reg,
                            lambda d, i: max(d.max(), i), init, mask)

    def vredmin(self, src_reg: VReg, init, mask: VMask | None = None):
        return self._reduce("vredmin", src_reg,
                            lambda d, i: min(d.min(), i), init, mask)

    # ------------------------------------------------------ segment accesses

    def vlseg(self, alloc: Allocation, nfields: int, offset: int = 0
              ) -> list[VReg]:
        """Segment load (vlseg<nf>e): de-interleave AoS records.

        Loads ``vl`` records of ``nfields`` consecutive elements starting at
        record ``offset`` and returns one register per field — e.g. complex
        data stored interleaved ``re,im,re,im,...`` comes back as separate
        re/im registers in a single instruction. The memory traffic is one
        unit-stride block of ``vl*nfields`` elements.
        """
        if not 2 <= nfields <= 8:
            raise IsaError(f"segment fields must be in 2..8, got {nfields}")
        vl = self._require_vl()
        base = offset * nfields
        idx = base + np.arange(vl * nfields, dtype=np.int64)
        view = alloc.view.reshape(-1)
        data = view[idx]
        addrs = self._addrs(alloc, idx)
        src = self._emit(
            VOpClass.MEM, vl, f"vlseg{nfields}e",
            pattern=VMemPattern.UNIT, addrs=addrs, is_write=False,
            elem_bytes=alloc.itemsize, active=vl * nfields)
        fields = []
        for f in range(nfields):
            fd = np.ascontiguousarray(data[f::nfields])
            if fd.dtype not in (_FLOAT, _INT, np.uint64):
                fd = fd.astype(_INT)
            fields.append(VReg(fd, src))
        return fields

    def vsseg(self, values: list[VReg], alloc: Allocation, offset: int = 0
              ) -> None:
        """Segment store (vsseg<nf>e): interleave SoA registers into AoS."""
        nfields = len(values)
        if not 2 <= nfields <= 8:
            raise IsaError(f"segment fields must be in 2..8, got {nfields}")
        vl = self._require_vl(*values)
        base = offset * nfields
        idx = base + np.arange(vl * nfields, dtype=np.int64)
        view = alloc.view.reshape(-1)
        inter = np.empty(vl * nfields, dtype=values[0].data.dtype)
        for f, reg in enumerate(values):
            inter[f::nfields] = reg.data
        view[idx] = inter.astype(view.dtype)
        addrs = self._addrs(alloc, idx)
        self._emit(
            VOpClass.MEM, vl, f"vsseg{nfields}e",
            pattern=VMemPattern.UNIT, addrs=addrs, is_write=True,
            elem_bytes=alloc.itemsize, active=vl * nfields,
            dep=_dep_of(*values))

    # ------------------------------------------------------ fault-only-first

    def vleff(self, alloc: Allocation, offset: int = 0) -> tuple[VReg, int]:
        """Fault-only-first load (vle<sew>ff): truncate vl at a fault.

        Loads up to ``vl`` elements; if some element would fall outside the
        allocation, the load *succeeds* with ``vl`` truncated to the faulting
        element index (written back to the vl CSR), instead of trapping —
        the RVV idiom for vectorizing loops with data-dependent exits
        (strlen-style scans). Returns ``(register, granted_vl)``.
        """
        vl = self._require_vl()
        nelem = alloc.nbytes // alloc.itemsize
        avail = max(0, int(nelem) - offset)
        granted = min(vl, avail)
        if granted == 0:
            raise IsaError(
                "vleff with no accessible elements (first element faults)"
            )
        if granted < vl:
            self.csr.vsetvl(granted)  # architectural vl update, no new instr
        idx = np.arange(offset, offset + granted, dtype=np.int64)
        view = alloc.view.reshape(-1)
        data = view[idx].copy()
        if data.dtype not in (_FLOAT, _INT, np.uint64):
            data = data.astype(_INT)
        addrs = self._addrs(alloc, idx)
        src = self._emit(
            VOpClass.MEM, granted, "vleff",
            pattern=VMemPattern.UNIT, addrs=addrs, is_write=False,
            elem_bytes=alloc.itemsize, active=granted)
        return VReg(np.ascontiguousarray(data), src), granted

    # ---------------------------------------------------------- widening ops

    def vwadd(self, a: VReg, b: VReg | int) -> VReg:
        """Widening add (vwadd): int32-semantics operands to 64-bit result.

        Our registers are 64-bit throughout, so the functional effect is a
        plain add; the record is kept distinct because widening ops occupy
        two destination register groups on hardware (PERMUTE-class cost).
        """
        vl = self._require_vl(a, *([b] if isinstance(b, VReg) else []))
        rhs = self._operand(b, a)
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vwadd", dep=_dep_of(a, b))
        return VReg(np.ascontiguousarray(a.data + rhs), src)

    def vwmul(self, a: VReg, b: VReg | int) -> VReg:
        """Widening multiply (vwmul); see :meth:`vwadd`."""
        vl = self._require_vl(a, *([b] if isinstance(b, VReg) else []))
        rhs = self._operand(b, a)
        src = self._emit(VOpClass.PERMUTE, vl,
                                     "vwmul", dep=_dep_of(a, b))
        return VReg(np.ascontiguousarray(a.data * rhs), src)
