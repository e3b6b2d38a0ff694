"""Scalar-side execution context.

Two styles of use, both producing :class:`repro.trace.ScalarBlock` records:

1. **Mini-interpreter** — ``load_f64``/``store_i64``/``alu`` calls mirror the
   scalar RISC-V code one instruction at a time; ``flush()`` emits the
   accumulated block. Clear, and exact in program order, but Python-loop
   speed: use it for small inputs and for validating the columnar frontends.

2. **Columnar emission** — kernels compute their full address streams with
   NumPy (e.g. all ``x[col[k]]`` addresses of an SpMV at once), interleave
   them per iteration, and emit one large block. Same trace semantics at a
   tiny fraction of the cost; this is what makes paper-scale scalar runs
   tractable (see the optimization guide: vectorize the loop, keep views).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.memory.address_space import Allocation, MemoryImage
from repro.trace.events import MLP_UNBOUNDED, TraceBuffer

_EMPTY_ADDRS = np.empty(0, dtype=np.int64)
_EMPTY_WRITES = np.empty(0, dtype=bool)


def interleave_streams(*streams: np.ndarray) -> np.ndarray:
    """Round-robin interleave k same-length address streams.

    ``interleave_streams(a, b)`` → ``[a0, b0, a1, b1, ...]`` — the access
    order of a loop body that performs one access from each stream per
    iteration.
    """
    if not streams:
        raise TraceError("need at least one stream")
    arrays = [np.asarray(s, dtype=np.int64) for s in streams]
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape != (n,):
            raise TraceError(
                f"streams must be same-length 1-D arrays, got {a.shape} vs {n}"
            )
    return np.stack(arrays, axis=1).reshape(-1)


class ScalarContext:
    """Scalar instruction recording context (Atrevido side)."""

    def __init__(self, mem: MemoryImage, trace: TraceBuffer) -> None:
        self.mem = mem
        self.trace = trace
        # interpreter accumulation state
        self._addrs: list[int] = []
        self._writes: list[bool] = []
        self._alu: int = 0

    # ------------------------------------------------------- columnar frontend

    def emit_block(
        self,
        addrs: np.ndarray,
        writes: np.ndarray | bool,
        n_alu_ops: int,
        *,
        label: str = "",
        mlp_hint: int = MLP_UNBOUNDED,
        mem_bytes: int = 8,
    ) -> None:
        """Emit one pre-computed scalar block."""
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        if isinstance(writes, (bool, np.bool_)):
            writes = np.full(addrs.shape[0], bool(writes), dtype=bool)
        else:
            writes = np.ascontiguousarray(writes, dtype=bool)
        self.mem.check_addresses(addrs)
        if addrs.shape != writes.shape:
            raise TraceError(
                f"block '{label}': addrs {addrs.shape} vs "
                f"writes {writes.shape}"
            )
        if n_alu_ops < 0:
            raise TraceError(f"block '{label}': negative n_alu_ops")
        if mlp_hint < 1:
            raise TraceError(f"block '{label}': mlp_hint must be >= 1")
        self.trace.emit_scalar_block(
            addrs, writes, int(n_alu_ops), mem_bytes=mem_bytes,
            mlp_hint=mlp_hint, label_id=self.trace.intern(label),
        )

    def emit_alu(self, n_ops: int, *, label: str = "") -> None:
        """Emit a compute-only block (loop control, address arithmetic...)."""
        if n_ops <= 0:
            return
        self.trace.emit_scalar_block(
            _EMPTY_ADDRS, _EMPTY_WRITES, int(n_ops),
            label_id=self.trace.intern(label),
        )

    def barrier(self, label: str = "") -> None:
        """Record a synchronization point (flushes any interpreter state)."""
        self.flush()
        self.trace.emit_barrier(self.trace.intern(label))

    # ------------------------------------------------------- mini-interpreter

    def load_f64(self, alloc: Allocation, idx: int) -> float:
        self._addrs.append(int(alloc.addr(int(idx))))
        self._writes.append(False)
        return float(alloc.view.reshape(-1)[idx])

    def load_i64(self, alloc: Allocation, idx: int) -> int:
        self._addrs.append(int(alloc.addr(int(idx))))
        self._writes.append(False)
        return int(alloc.view.reshape(-1)[idx])

    def store_f64(self, alloc: Allocation, idx: int, value: float) -> None:
        self._addrs.append(int(alloc.addr(int(idx))))
        self._writes.append(True)
        alloc.view.reshape(-1)[idx] = value

    def store_i64(self, alloc: Allocation, idx: int, value: int) -> None:
        self._addrs.append(int(alloc.addr(int(idx))))
        self._writes.append(True)
        alloc.view.reshape(-1)[idx] = value

    def alu(self, n_ops: int = 1) -> None:
        """Count scalar ALU/FPU/branch work."""
        if n_ops < 0:
            raise TraceError("negative ALU op count")
        self._alu += n_ops

    def flush(self, *, label: str = "",
              mlp_hint: int = MLP_UNBOUNDED) -> None:
        """Emit the accumulated interpreter state as one block."""
        if not self._addrs and self._alu == 0:
            return
        self.emit_block(
            np.array(self._addrs, dtype=np.int64),
            np.array(self._writes, dtype=bool),
            self._alu,
            label=label,
            mlp_hint=mlp_hint,
        )
        self._addrs.clear()
        self._writes.clear()
        self._alu = 0

    @property
    def pending_accesses(self) -> int:
        return len(self._addrs)
