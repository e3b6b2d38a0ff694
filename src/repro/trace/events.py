"""Trace record types and the columnar (SoA) trace buffer.

Three kinds of record, in strict program order:

* :class:`ScalarBlock` — a straight-line run of scalar instructions,
  described by an ALU-op count plus columnar memory address/write arrays.
  Kernels emit *large* blocks (often an entire loop nest) whose address
  streams are computed vectorized with NumPy; ``mlp_hint`` tells the timing
  model how many of the block's misses are mutually independent (e.g. 1 for
  pointer chasing, "unbounded" for independent stream gathers).
* :class:`VectorInstr` — one RVV instruction: op class, element count (the
  VL it executed with), and, for memory ops, the per-element addresses.
* :class:`Barrier` — a synchronization point (e.g. between BFS levels or
  FFT stages): the VPU must drain before the next record starts.

Storage is structure-of-arrays: :class:`TraceBuffer` keeps one growable
column per record field (kind/opclass/pattern/vl/dep/...), a single pooled
address arena with per-record offsets, and an intern table for opcode/label
strings. Consumers that walk the whole trace (``memory/classify``,
``engine/lower``, serialization) read the columns zero-copy via
:attr:`TraceBuffer.cols`; the record dataclasses remain as a thin row view
(``trace[i]`` / iteration) for tests and debugging, materialized on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError


class VOpClass(enum.Enum):
    """Timing class of a vector instruction."""

    ARITH = "arith"            # add/mul/fma/logic/shift, fully lane-pipelined
    ARITH_HEAVY = "heavy"      # div/sqrt: long-latency iterative unit
    MEM = "mem"                # any vector load/store (pattern field applies)
    PERMUTE = "permute"        # vrgather/vcompress/slide: cross-lane network
    REDUCE = "reduce"          # vredsum & friends: lane tree + scalar drain
    MASK = "mask"              # mask-register ops (vmseq result ops, viota...)
    CSR = "csr"                # vsetvl and CSR reads/writes


class VMemPattern(enum.Enum):
    """Address pattern of a vector memory instruction."""

    UNIT = "unit"          # vle/vse: consecutive elements
    STRIDED = "strided"    # vlse/vsse: constant stride
    INDEXED = "indexed"    # vlxe/vsxe: gather/scatter


#: mlp_hint value meaning "misses in this block are all independent";
#: the core's MSHR count becomes the only parallelism bound.
MLP_UNBOUNDED: int = 1 << 30

# ---------------------------------------------------------------- encodings

#: record-kind codes in the ``kind`` column (also the on-disk encoding)
REC_SCALAR: int = 0
REC_VECTOR: int = 1
REC_BARRIER: int = 2

OPCLASS_LIST: list[VOpClass] = list(VOpClass)
OPCLASS_ID: dict[VOpClass, int] = {c: i for i, c in enumerate(VOpClass)}
PATTERN_LIST: list[VMemPattern] = list(VMemPattern)
PATTERN_ID: dict[VMemPattern, int] = {p: i for i, p in enumerate(VMemPattern)}

#: sentinel for "no opclass/pattern" in the uint8 columns
NO_ID: int = 255


@dataclass
class ScalarBlock:
    """A run of scalar instructions with a columnar memory-access stream."""

    n_alu_ops: int
    mem_addrs: np.ndarray          # int64 byte addresses, program order
    mem_is_write: np.ndarray       # bool, aligned with mem_addrs
    mem_bytes: int = 8             # access granularity (8 = double/word64)
    mlp_hint: int = MLP_UNBOUNDED
    label: str = ""

    def __post_init__(self) -> None:
        self.mem_addrs = np.ascontiguousarray(self.mem_addrs, dtype=np.int64)
        self.mem_is_write = np.ascontiguousarray(self.mem_is_write, dtype=bool)
        if self.mem_addrs.shape != self.mem_is_write.shape:
            raise TraceError(
                f"block '{self.label}': addrs {self.mem_addrs.shape} vs "
                f"writes {self.mem_is_write.shape}"
            )
        if self.n_alu_ops < 0:
            raise TraceError(f"block '{self.label}': negative n_alu_ops")
        if self.mlp_hint < 1:
            raise TraceError(f"block '{self.label}': mlp_hint must be >= 1")

    @property
    def n_mem_ops(self) -> int:
        return int(self.mem_addrs.shape[0])

    @property
    def n_insns(self) -> int:
        """Total dynamic instruction estimate for the block."""
        return self.n_alu_ops + self.n_mem_ops


@dataclass
class VectorInstr:
    """One dynamic RVV instruction."""

    op: VOpClass
    vl: int
    opcode: str = ""                      # mnemonic, for reports/debug
    pattern: VMemPattern | None = None    # memory ops only
    addrs: np.ndarray | None = None       # element byte addresses (memory ops)
    is_write: bool = False
    elem_bytes: int = 8
    masked: bool = False
    #: number of active (unmasked) elements; defaults to vl
    active: int | None = None
    #: trace-record index of the most recent instruction this one reads a
    #: vector operand from (-1 = no vector dependency). Engines use this for
    #: RAW hazards and chaining.
    dep: int = -1
    #: True when the instruction writes a *scalar* destination (vpopc,
    #: vfirst, reductions): the scalar core must wait for it.
    scalar_dest: bool = False

    def __post_init__(self) -> None:
        if self.vl < 0:
            raise TraceError(f"{self.opcode}: negative vl")
        if self.op is VOpClass.MEM:
            if self.pattern is None or self.addrs is None:
                raise TraceError(f"{self.opcode}: MEM instr needs pattern+addrs")
            self.addrs = np.ascontiguousarray(self.addrs, dtype=np.int64)
            if self.addrs.shape[0] != (self.active if self.active is not None
                                       else self.vl):
                raise TraceError(
                    f"{self.opcode}: {self.addrs.shape[0]} addresses for "
                    f"vl={self.vl} active={self.active}"
                )
        elif self.addrs is not None:
            raise TraceError(f"{self.opcode}: non-MEM instr carries addresses")
        if self.active is None:
            self.active = self.vl

    @property
    def is_mem(self) -> bool:
        return self.op is VOpClass.MEM


@dataclass
class Barrier:
    """Full synchronization: VPU drains, scalar core waits."""

    label: str = ""


Record = ScalarBlock | VectorInstr | Barrier


@dataclass
class TraceColumns:
    """Zero-copy columnar view of a trace (one entry per record).

    ``addrs``/``writes`` are the pooled access arena; record ``i`` owns the
    arena span ``addr_off[i]:addr_off[i+1]``. ``opcode_id``/``label_id``
    index ``strings`` (id 0 is always the empty string). Vector-only
    columns hold their neutral value (``vl=0``, ``opclass=NO_ID``, ...) on
    scalar/barrier rows; ``mem_bytes`` doubles as ``elem_bytes`` on vector
    rows.
    """

    kind: np.ndarray          # uint8, REC_*
    n_alu: np.ndarray         # int64
    mlp: np.ndarray           # int64
    mem_bytes: np.ndarray     # int32
    vl: np.ndarray            # int32
    active: np.ndarray        # int32
    opclass: np.ndarray       # uint8, OPCLASS_ID or NO_ID
    pattern: np.ndarray       # uint8, PATTERN_ID or NO_ID
    is_write: np.ndarray      # uint8
    masked: np.ndarray        # uint8
    dep: np.ndarray           # int64, absolute record index or -1
    scalar_dest: np.ndarray   # uint8
    addr_off: np.ndarray      # int64, (n+1,) prefix offsets into the arena
    addrs: np.ndarray         # int64 arena
    writes: np.ndarray        # bool arena
    opcode_id: np.ndarray     # int32 into strings
    label_id: np.ndarray      # int32 into strings
    strings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return int(self.kind.shape[0])

    def check_deps(self) -> None:
        """Raise :class:`TraceError` unless every dep is -1 or names an
        earlier record: the engines read a producer's times before its
        consumer's, so any other dep would read a record not yet timed."""
        bad = _bad_deps(self.dep)
        if bad.any():
            i = int(np.argmax(bad))
            raise TraceError(f"record {i}: dep {int(self.dep[i])} does not "
                             "reference an earlier record")

    def problems(self, hw_max_vl: int = 256
                 ) -> list[tuple[str, int | None, str]]:
        """Every way these columns break the trace format, as ``(rule,
        record or None, message)`` under the T1xx ids of the lint catalog
        (:mod:`repro.lint.rules`); empty for a well-formed trace.

        This is the one statement of what a sealed trace satisfies. Trace
        files and cache entries are checked against it at load
        (:meth:`check`), lint reports it, and the equality grid asserts
        it for every trace the emitters make. Each clause names its first
        offending record. ``hw_max_vl`` is the VPU's maximum VL in DP
        elements, which bounds ``vl`` (T108).
        """
        out: list[tuple[str, int | None, str]] = []

        def first(rule: str, bad: np.ndarray, message) -> None:
            if bad.any():
                i = int(np.argmax(bad))
                out.append((rule, i, message(i)))

        n = self.kind.size
        # T103: dtypes and shapes (every column 1-D); the clauses after it
        # read the columns as their schema types
        for name, dtype, shape in (
                *((name, dtype, (n,)) for name, dtype in _RECORD_DTYPES),
                ("addr_off", np.int64, (n + 1,)),
                ("addrs", np.int64, (self.addrs.size,)),
                ("writes", np.bool_, (self.writes.size,))):
            col = getattr(self, name)
            if col.dtype != dtype:
                out.append(("T103", None, f"column '{name}' has dtype "
                            f"{col.dtype}, schema v2 requires "
                            f"{np.dtype(dtype)}"))
            if col.shape != shape:
                out.append(("T103", None, f"column '{name}' has shape "
                            f"{col.shape}, expected {shape}"))
        if out:
            return out
        # T103: the string table
        if not self.strings or self.strings[0] != "":
            out.append(("T103", None,
                        "string table must start with the empty string"))
        for name in ("opcode_id", "label_id"):
            ids = getattr(self, name)
            first("T103", (ids < 0) | (ids >= len(self.strings)),
                  lambda i: f"{name} {int(ids[i])} names no string")
        # T101/T102: the arena offsets and bounds
        off = self.addr_off
        n_addr = np.diff(off)
        if off[0] != 0 or (n_addr < 0).any():
            out.append(("T101", 0 if off[0] != 0
                        else int(np.argmax(n_addr < 0)),
                        "addr_off must start at 0 and be nondecreasing"))
        if int(off[-1]) != self.addrs.shape[0]:
            out.append(("T102", None, f"addr_off ends at {int(off[-1])} "
                        f"but the arena holds {self.addrs.shape[0]} "
                        "addresses"))
        if self.writes.shape != self.addrs.shape:
            out.append(("T102", None, f"writes arena {self.writes.shape} "
                        "does not align with the address arena "
                        f"{self.addrs.shape}"))
        if n == 0:
            return out
        # T104: the record codes
        kind = self.kind
        bad = ~np.isin(kind, (REC_SCALAR, REC_VECTOR, REC_BARRIER))
        if bad.any():
            first("T104", bad, lambda i: f"kind {int(kind[i])} is not a "
                  "record kind")
            return out  # the clauses below are per kind
        vec = kind == REC_VECTOR
        mem = vec & (self.opclass == _MEM_ID)
        opclass, pattern = self.opclass, self.pattern
        first("T104", vec & (opclass >= len(OPCLASS_LIST)),
              lambda i: f"opclass {int(opclass[i])} is not an op class")
        first("T104", ~vec & (opclass != NO_ID),
              lambda i: "non-vector record carries an opclass")
        first("T104", mem & (pattern >= len(PATTERN_LIST)),
              lambda i: f"pattern {int(pattern[i])} is not a memory "
              "pattern (needs unit/strided/indexed)")
        first("T104", ~mem & (pattern != NO_ID),
              lambda i: "non-MEM record carries a memory pattern")
        first("T104", vec & ~mem & (n_addr > 0),
              lambda i: "non-MEM vector record owns arena addresses")
        # T105: active elements
        vl, active = self.vl, self.active
        first("T105", vec & ((active < 0) | (active > vl)),
              lambda i: f"active={int(active[i])} is not within "
              f"0..vl={int(vl[i])}")
        first("T105", mem & (n_addr != active),
              lambda i: f"MEM record owns {int(n_addr[i])} addresses "
              f"for active={int(active[i])}")
        # T106: neutral barrier rows
        first("T106", (kind == REC_BARRIER)
              & ((vl != 0) | (active != 0) | (self.dep != -1)
                 | (n_addr != 0) | (self.n_alu != 0)),
              lambda i: "barrier row carries non-neutral fields")
        # T107: deps point backward
        first("T107", _bad_deps(self.dep),
              lambda i: f"dep {int(self.dep[i])} does not reference an "
              "earlier record")
        # T108: vl within what any legal vsetvl could grant (SEW 8 with
        # LMUL 8, relative to the DP element count)
        cap = hw_max_vl * 8 * 8
        first("T108", vec & ((vl < 0) | (vl > cap)),
              lambda i: f"vl={int(vl[i])} is outside the ISA range "
              f"0..{cap} (hw max VL {hw_max_vl} DP elements)")
        # T109: scalar block counts
        n_alu, mlp = self.n_alu, self.mlp
        first("T109", (kind == REC_SCALAR) & ((n_alu < 0) | (mlp < 1)),
              lambda i: f"scalar block has n_alu={int(n_alu[i])} and "
              f"mlp={int(mlp[i])} (needs n_alu >= 0 and mlp >= 1)")
        return out

    def check(self, hw_max_vl: int = 256) -> None:
        """Raise :class:`TraceError` naming the first of
        :meth:`problems`, if there is one."""
        found = self.problems(hw_max_vl)
        if found:
            rule, i, message = found[0]
            where = "" if i is None else f" at record {i}"
            raise TraceError(f"{rule}{where}: {message}")


def _bad_deps(dep: np.ndarray) -> np.ndarray:
    """The records whose dep is neither -1 nor an earlier record."""
    return (dep < -1) | (dep >= np.arange(dep.shape[0]))


#: a pending record row: every per-record column of a sealed trace, in
#: schema order, then the record's arena length (which the columns keep
#: as the ``addr_off`` prefix sums)
_COL_DTYPES = (
    ("kind", np.uint8), ("n_alu", np.int64), ("mlp", np.int64),
    ("mem_bytes", np.int32), ("vl", np.int32), ("active", np.int32),
    ("opclass", np.uint8), ("pattern", np.uint8), ("is_write", np.uint8),
    ("masked", np.uint8), ("dep", np.int64), ("scalar_dest", np.uint8),
    ("opcode_id", np.int32), ("label_id", np.int32), ("n_addr", np.int64),
)

#: the per-record columns of :class:`TraceColumns` (what a trace file
#: stores beside the arena and the strings)
_RECORD_DTYPES = _COL_DTYPES[:-1]

_MEM_ID = OPCLASS_ID[VOpClass.MEM]


class _RecordsView:
    """Sequence view materializing record dataclasses from the columns."""

    __slots__ = ("_buf",)

    def __init__(self, buf: "TraceBuffer") -> None:
        self._buf = buf

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, i):
        return self._buf[i]

    def __iter__(self):
        buf = self._buf
        for i in range(len(buf)):
            yield buf[i]


class TraceBuffer:
    """Append-only program-order trace, stored structure-of-arrays.

    Single records arrive through the validation-free emitters
    (:meth:`emit_vector`, :meth:`emit_scalar_block`,
    :meth:`emit_barrier`; the ISA contexts' path) or :meth:`append`
    (a record dataclass, for traces built by hand); whole pre-expanded
    record batches arrive through :meth:`extend_columns` (the template
    engine's path). Appends go to plain Python lists and are flushed to
    NumPy chunks lazily, so both paths stay allocation-cheap.
    """

    def __init__(self) -> None:
        self._n = 0
        self._sealed = False
        self._dirty = False
        self._cols: TraceColumns | None = None
        # intern table: id 0 is the empty string
        self._strings: list[str] = [""]
        self._sid: dict[str, int] = {"": 0}
        # pending single-record appends: one int tuple per record, in
        # _COL_DTYPES order — a single list.append per emit; the flush
        # transposes the batch with one 2-D np.array call
        self._pend: list[tuple] = []
        # flushed chunks, one list of arrays per column
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name, _ in _COL_DTYPES
        }
        # pooled address arena, in record order (records with addresses only)
        self._addr_chunks: list[np.ndarray] = []
        self._addr_total = 0
        # scalar blocks' per-access write flags: (record index, bool array)
        self._sb_writes: list[tuple[int, np.ndarray]] = []

    # ------------------------------------------------------------- interning

    def intern(self, s: str) -> int:
        sid = self._sid.get(s)
        if sid is None:
            sid = len(self._strings)
            self._strings.append(s)
            self._sid[s] = sid
        return sid

    # ------------------------------------------------------------ fast emits

    def emit_vector(self, opclass_id: int, vl: int, opcode_id: int, *,
                    pattern_id: int = NO_ID, addrs: np.ndarray | None = None,
                    is_write: bool = False, elem_bytes: int = 8,
                    masked: bool = False, active: int | None = None,
                    dep: int = -1, scalar_dest: bool = False) -> int:
        """Append one vector instruction; returns its record index.

        No validation — the ISA contexts (and the template expander) are
        trusted to satisfy the trace format
        (:meth:`TraceColumns.problems`). :meth:`append` validates through
        the record dataclasses.
        """
        if self._sealed:
            raise TraceError("trace is sealed; create a new buffer")
        if addrs is None:
            n_addr = 0
        else:
            n_addr = addrs.shape[0]
            self._addr_chunks.append(addrs)
            self._addr_total += n_addr
        self._pend.append((
            REC_VECTOR, 0, 0, elem_bytes, vl,
            vl if active is None else active, opclass_id, pattern_id,
            1 if is_write else 0, 1 if masked else 0, dep,
            1 if scalar_dest else 0, opcode_id, 0, n_addr,
        ))
        self._dirty = True
        i = self._n
        self._n = i + 1
        return i

    def emit_scalar_block(self, addrs: np.ndarray, writes: np.ndarray,
                          n_alu: int, *, mem_bytes: int = 8,
                          mlp_hint: int = MLP_UNBOUNDED,
                          label_id: int = 0) -> int:
        """Append one scalar block (addrs int64, writes bool, both 1-D)."""
        if self._sealed:
            raise TraceError("trace is sealed; create a new buffer")
        n = addrs.shape[0]
        if n:
            self._addr_chunks.append(addrs)
            self._addr_total += n
            self._sb_writes.append((self._n, writes))
        self._pend.append((
            REC_SCALAR, n_alu, mlp_hint, mem_bytes, 0, 0, NO_ID, NO_ID,
            0, 0, -1, 0, 0, label_id, n,
        ))
        self._dirty = True
        i = self._n
        self._n = i + 1
        return i

    def emit_barrier(self, label_id: int = 0) -> int:
        if self._sealed:
            raise TraceError("trace is sealed; create a new buffer")
        self._pend.append((
            REC_BARRIER, 0, 0, 0, 0, 0, NO_ID, NO_ID,
            0, 0, -1, 0, 0, label_id, 0,
        ))
        self._dirty = True
        i = self._n
        self._n = i + 1
        return i

    # ------------------------------------------------------------ bulk path

    def extend_columns(self, cols: dict[str, np.ndarray],
                       addrs: np.ndarray,
                       sb_writes: list[tuple[int, np.ndarray]] = (),
                       ) -> int:
        """Append a pre-expanded batch of records; returns the start index.

        ``cols`` maps every column name of the single-record schema (all
        but the arena) to a length-``m`` array; ``addrs`` is the batch's
        flat arena slice (record ``j`` of the batch owns ``n_addr[j]``
        consecutive entries). ``sb_writes`` carries (batch-relative record
        index, bool array) pairs for scalar blocks whose accesses are not
        all-read. This is the template expander's emission path.
        """
        if self._sealed:
            raise TraceError("trace is sealed; create a new buffer")
        self._flush_pending()
        m = cols["kind"].shape[0]
        for name, dtype in _COL_DTYPES:
            self._chunks[name].append(
                np.ascontiguousarray(cols[name], dtype=dtype))
        if addrs.shape[0]:
            self._addr_chunks.append(
                np.ascontiguousarray(addrs, dtype=np.int64))
            self._addr_total += addrs.shape[0]
        start = self._n
        for j, w in sb_writes:
            self._sb_writes.append((start + j, w))
        self._dirty = True
        self._n = start + m
        return start

    # ----------------------------------------------------------- compat API

    def append(self, record: Record) -> None:
        """Append one record dataclass (validated by its type): the
        inverse of the row view, for traces built by hand."""
        if self._sealed:
            raise TraceError("trace is sealed; create a new buffer")
        if isinstance(record, VectorInstr):
            self.emit_vector(
                OPCLASS_ID[record.op], record.vl, self.intern(record.opcode),
                pattern_id=(NO_ID if record.pattern is None
                            else PATTERN_ID[record.pattern]),
                addrs=record.addrs, is_write=record.is_write,
                elem_bytes=record.elem_bytes, masked=record.masked,
                active=record.active, dep=record.dep,
                scalar_dest=record.scalar_dest,
            )
        elif isinstance(record, ScalarBlock):
            self.emit_scalar_block(
                record.mem_addrs, record.mem_is_write, record.n_alu_ops,
                mem_bytes=record.mem_bytes, mlp_hint=record.mlp_hint,
                label_id=self.intern(record.label),
            )
        elif isinstance(record, Barrier):
            self.emit_barrier(self.intern(record.label))
        else:
            raise TraceError(f"not a trace record: {type(record).__name__}")

    def seal(self) -> "TraceBuffer":
        """Freeze the buffer (engines refuse unsealed traces)."""
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # ------------------------------------------------------------- finalize

    def _flush_pending(self) -> None:
        if not self._pend:
            return
        rows = np.array(self._pend, dtype=np.int64)  # (batch, 15)
        self._pend.clear()
        for j, (name, dtype) in enumerate(_COL_DTYPES):
            self._chunks[name].append(rows[:, j].astype(dtype))

    @property
    def cols(self) -> TraceColumns:
        """The finalized columns (cached; rebuilt after new appends)."""
        if self._cols is not None and not self._dirty:
            return self._cols
        self._flush_pending()

        def cat(name: str, dtype) -> np.ndarray:
            ch = self._chunks[name]
            if not ch:
                return np.empty(0, dtype=dtype)
            if len(ch) == 1:
                return ch[0]
            merged = np.concatenate(ch)
            self._chunks[name] = [merged]
            return merged

        by_name = {name: cat(name, dtype) for name, dtype in _COL_DTYPES}
        n_addr = by_name.pop("n_addr")
        addr_off = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(n_addr, out=addr_off[1:])
        if self._addr_chunks:
            if len(self._addr_chunks) > 1:
                self._addr_chunks = [np.concatenate(self._addr_chunks)]
            addrs = self._addr_chunks[0]
        else:
            addrs = np.empty(0, dtype=np.int64)
        # arena write flags: each record's span inherits its is_write bit,
        # then scalar blocks overwrite their span with the per-access flags
        writes = np.repeat(by_name["is_write"].astype(bool), n_addr)
        for i, w in self._sb_writes:
            writes[addr_off[i]:addr_off[i + 1]] = w
        self._cols = TraceColumns(addr_off=addr_off, addrs=addrs,
                                  writes=writes, strings=self._strings,
                                  **by_name)
        self._dirty = False
        return self._cols

    # ---------------------------------------------------------- construction

    @classmethod
    def from_columns(cls, cols: TraceColumns) -> "TraceBuffer":
        """Rebuild a sealed buffer around finalized columns, zero-copy.

        The deserializer's path: a v2 trace file stores the columnar form
        verbatim, so loading is adopting the arrays — no per-record loop.
        The caller hands over ownership of ``cols``. Columns from outside
        the program must satisfy the trace format
        (:meth:`TraceColumns.check` raises :class:`TraceError` otherwise).
        """
        cols.check()
        buf = cls()
        n = cols.n
        buf._n = n
        buf._strings = list(cols.strings)
        buf._sid = {s: i for i, s in enumerate(buf._strings)}
        buf._addr_total = int(cols.addrs.shape[0])
        buf._cols = cols
        buf._dirty = False
        buf._sealed = True
        return buf

    # ------------------------------------------------------------- row view

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i: int) -> Record:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        c = self.cols
        kind = c.kind[i]
        lo, hi = int(c.addr_off[i]), int(c.addr_off[i + 1])
        if kind == REC_VECTOR:
            op = OPCLASS_LIST[c.opclass[i]]
            pat_id = c.pattern[i]
            return VectorInstr(
                op=op,
                vl=int(c.vl[i]),
                opcode=c.strings[c.opcode_id[i]],
                pattern=None if pat_id == NO_ID else PATTERN_LIST[pat_id],
                addrs=c.addrs[lo:hi] if op is VOpClass.MEM else None,
                is_write=bool(c.is_write[i]),
                elem_bytes=int(c.mem_bytes[i]),
                masked=bool(c.masked[i]),
                active=int(c.active[i]),
                dep=int(c.dep[i]),
                scalar_dest=bool(c.scalar_dest[i]),
            )
        if kind == REC_SCALAR:
            return ScalarBlock(
                n_alu_ops=int(c.n_alu[i]),
                mem_addrs=c.addrs[lo:hi],
                mem_is_write=c.writes[lo:hi],
                mem_bytes=int(c.mem_bytes[i]),
                mlp_hint=int(c.mlp[i]),
                label=c.strings[c.label_id[i]],
            )
        return Barrier(label=c.strings[c.label_id[i]])
