"""Strip-mine loop templating: record one iteration, expand vectorized.

A strip-mined kernel loop stamps the same short instruction sequence
thousands of times with shifted addresses. Emitting it record by record
costs a Python round-trip per instruction; this module records the loop
body *symbolically* — addresses as ``base + offset[i]`` expressions, dep
edges relative to the iteration — and expands all iterations at once with
NumPy arithmetic.

A kernel pass is usually a sequence of such loops (one per SELL chunk or
frontier strip) with a few records between them. :class:`RecordBatch`
holds a whole pass: the records between the loops are placed by position
(:meth:`RecordBatch.vector`, :meth:`RecordBatch.scalar_block`), every loop
of one body is expanded by a single ragged call
(:meth:`TraceTemplate.expand`: loop ``s`` runs ``counts[s]`` iterations
from absolute record ``starts[s]``), and :meth:`RecordBatch.commit` hands
the buffer the pass as one column batch via
:meth:`repro.trace.events.TraceBuffer.extend_columns`.
:meth:`TraceTemplate.replicate` is the one-loop case of the same
expansion.

Per template record, three address modes:

* none — arithmetic/CSR/barrier records;
* affine — ``base_addrs`` (one iteration's addresses) plus
  ``iter_offsets`` (one byte offset per iteration): iteration ``i``
  touches ``base_addrs + iter_offsets[i]``;
* explicit — ``flat_addrs``/``counts``: iteration ``i`` owns the next
  ``counts[i]`` entries of the flat array (data-dependent gathers,
  masked scatters, varying VL).

Scalar fields (``vl``, ``active``, ``n_alu``) accept a constant or a
per-iteration array; per-iteration arrays span every iteration of every
loop of the expansion, in loop order. Dependencies are one of ``None``
(no dep), a local index into the current iteration, :meth:`Dep.prev`
(same slot chain into the previous iteration, software-pipelined loads),
or :meth:`Dep.at` (an absolute record index, e.g. an accumulator
initialized before the loop); the absolute indices of the last two take
one value per loop.

Expansion is bit-exact: a loop appends exactly the records the equivalent
per-iteration emission loop would have appended, in the same order with
the same fields — the property tests in ``tests/trace/test_template.py``
pin this against per-iteration appends of the record dataclasses.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.events import (
    _COL_DTYPES,
    MLP_UNBOUNDED,
    NO_ID,
    OPCLASS_ID,
    PATTERN_ID,
    REC_BARRIER,
    REC_SCALAR,
    REC_VECTOR,
    TraceBuffer,
    VMemPattern,
    VOpClass,
)

_D_NONE, _D_LOCAL, _D_PREV, _D_ABS = 0, 1, 2, 3


@dataclass(frozen=True)
class Dep:
    """A dependency spec for a template record.

    ``first`` is an absolute record index, or one per loop (an int array)
    when the template is expanded over several loops at once.
    """

    mode: int
    slot: int = -1      # local index within an iteration (_D_LOCAL/_D_PREV)
    first: int | np.ndarray = -1  # absolute dep of iteration 0 (_D_PREV)
                                  # or the absolute record index (_D_ABS)

    @classmethod
    def local(cls, slot: int) -> "Dep":
        """Depend on record ``slot`` of the *same* iteration."""
        return cls(_D_LOCAL, slot=slot)

    @classmethod
    def prev(cls, slot: int, first: int | np.ndarray = -1) -> "Dep":
        """Depend on record ``slot`` of the *previous* iteration.

        Iteration 0 depends on ``first`` (an absolute record index, e.g.
        the pipeline-priming load emitted before the loop; -1 for none).
        """
        return cls(_D_PREV, slot=slot, first=first)

    @classmethod
    def at(cls, index: int | np.ndarray) -> "Dep":
        """Depend on absolute record ``index`` in every iteration."""
        return cls(_D_ABS, first=index)


def _normalize_dep(dep) -> Dep:
    if dep is None:
        return _DEP_NONE
    if isinstance(dep, Dep):
        return dep
    return Dep.local(int(dep))


_DEP_NONE = Dep(_D_NONE)


@dataclass(frozen=True)
class TemplateSnapshot:
    """One expanded loop, frozen for offline analysis.

    ``scal``/``var``/``strs`` are the template's recorded per-slot tuples
    (see the ``_K_*``/``_V_*`` column layouts below) restricted to this
    loop; ``n_iters`` is its iteration count and ``start`` the absolute
    index of its first record. The static analyzer
    (:mod:`repro.lint.trace_rules`) consumes these to re-derive every
    iteration's address streams symbolically and prove the declared deps
    cover the hazards.
    """

    scal: tuple[tuple, ...]
    var: tuple[tuple, ...]
    strs: tuple[str, ...]
    n_iters: int
    start: int


#: when not None, every expanded loop appends its TemplateSnapshot here.
_CAPTURE: list[TemplateSnapshot] | None = None


@contextmanager
def capture_replications():
    """Record every template loop expanded in the ``with`` body.

    Yields the list the snapshots accumulate into: one per loop with at
    least one iteration, in loop order. Nesting restores the previous
    capture list on exit; the cost when no capture is active is a single
    ``is not None`` test per expansion.
    """
    global _CAPTURE
    prev = _CAPTURE
    log: list[TemplateSnapshot] = []
    _CAPTURE = log
    try:
        yield log
    finally:
        _CAPTURE = prev


def _per_iter(value, n: int, name: str):
    """A const-or-per-iteration field, shape-checked against ``n``."""
    if isinstance(value, np.ndarray) and value.shape != (n,):
        raise TraceError(
            f"template field {name}: per-iteration array has shape "
            f"{value.shape}, expected ({n},)"
        )
    return value


def _c64(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else np.ascontiguousarray(a, dtype=np.int64)


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + c) for a, c in zip(starts, counts)])``."""
    counts = np.asarray(counts, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return np.arange(int(counts.sum()), dtype=np.int64) \
        + np.repeat(shift, counts)


def record_starts(start: int, sizes: np.ndarray) -> np.ndarray:
    """Absolute first record of consecutive groups of ``sizes`` records."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return start + np.cumsum(sizes) - sizes


# Column order of the per-slot constant-field tuples in ``_scal``:
# (kind, mlp, mem_bytes, opclass, pattern, is_write, masked, scalar_dest).
# The per-slot string (opcode or label) lives in ``_strs`` and is interned
# lazily at expansion time, so a recorded-but-never-expanded body leaves
# the buffer's string table exactly as per-iteration emission would.
_K_KIND, _K_MLP, _K_BYTES, _K_OPCLASS, _K_PATTERN = 0, 1, 2, 3, 4
_K_WRITE, _K_MASKED, _K_SDEST = 5, 6, 7

# Column order of the per-slot varying/object tuples in ``_var``:
# (vl, active, n_alu, dep, base_addrs, iter_offsets, flat_addrs, counts,
#  writes).
_V_VL, _V_ACTIVE, _V_NALU, _V_DEP = 0, 1, 2, 3
_V_BASE, _V_IOFF, _V_FLAT, _V_COUNTS, _V_WRITES = 4, 5, 6, 7, 8

# Field offsets of a placed record — _COL_DTYPES order.
(_O_KIND, _O_NALU, _O_MLP, _O_BYTES, _O_VL, _O_ACTIVE, _O_OPCLASS,
 _O_PATTERN, _O_WRITE, _O_MASKED, _O_DEP, _O_SDEST, _O_OPCODE, _O_LABEL,
 _O_NADDR) = range(15)
assert len(_COL_DTYPES) == 15


class RecordBatch:
    """The next ``n_records`` records of a trace, placed by position.

    Positions are absolute record indices ``start .. start + n - 1``
    (``start`` is the trace length when the batch opens). Each placement
    puts one record at every position of ``pos`` (one index or an index
    array); a field is a constant or one value per position. Records
    sharing their constant fields share one prototype row. :meth:`commit`
    checks that every position was placed exactly once, lays the address
    arena out in record order and appends the whole batch with one
    :meth:`TraceBuffer.extend_columns` call.
    """

    def __init__(self, trace: TraceBuffer, n_records: int) -> None:
        self.trace = trace
        self.start = len(trace)
        self.n = int(n_records)
        # prototype rows: the _COL_DTYPES fields, then a flag saying the
        # dep field is relative to the record's own position
        self._rows: dict[tuple, int] = {}
        self._row_of = np.full(self.n, -1, dtype=np.int32)
        self._placed = 0
        # (column, positions, values) overriding the prototype field
        self._patches: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._addrs: list[tuple[np.ndarray, np.ndarray]] = []
        self._writes: list[tuple[np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------ placement

    def vector(self, pos, op: VOpClass, vl, opcode: str, *,
               pattern: VMemPattern | None = None,
               addrs: np.ndarray | None = None,
               is_write: bool = False, elem_bytes: int = 8,
               masked: bool = False, active=None, dep=-1,
               scalar_dest: bool = False) -> None:
        """Place one vector instruction at every position of ``pos``.

        A memory instruction takes ``addrs``, the concatenation of the
        placed records' element addresses in position order; each record
        owns ``active`` (default ``vl``) of them.
        """
        if (op is VOpClass.MEM) != (addrs is not None):
            raise TraceError(f"{opcode}: MEM records and only MEM records "
                             "carry addresses")
        active = vl if active is None else active
        self._place(pos, (
            REC_VECTOR, 0, 0, elem_bytes, vl, active, OPCLASS_ID[op],
            NO_ID if pattern is None else PATTERN_ID[pattern],
            1 if is_write else 0, 1 if masked else 0, dep,
            1 if scalar_dest else 0, self.trace.intern(opcode), 0,
            0 if addrs is None else active,
        ), addrs)

    def scalar_block(self, pos, n_alu, *,
                     addrs: np.ndarray | None = None, counts=0,
                     mem_bytes: int = 8, mlp_hint: int = MLP_UNBOUNDED,
                     label: str = "") -> None:
        """Place one all-read scalar block at every position of ``pos``;
        record ``k`` owns the next ``counts[k]`` entries of ``addrs``."""
        self._place(pos, (
            REC_SCALAR, n_alu, mlp_hint, mem_bytes, 0, 0, NO_ID, NO_ID,
            0, 0, -1, 0, 0, self.trace.intern(label), counts,
        ), addrs)

    def _place(self, pos, fields: tuple,
               addrs: np.ndarray | None = None) -> None:
        """Place records with ``fields`` (_COL_DTYPES order) at ``pos``;
        array fields hold one value per position."""
        rel = self._rel(pos).reshape(-1)
        m = rel.shape[0]
        if m == 0:
            return
        row = []
        for j, value in enumerate(fields):
            if isinstance(value, np.ndarray):
                if value.shape != (m,):
                    raise TraceError(
                        f"column {_COL_DTYPES[j][0]}: {value.shape} values "
                        f"for {m} records")
                self._patches.append((j, rel, value))
                row.append(0)
            else:
                row.append(int(value))
        row.append(0)  # absolute dep
        self._put(rel, [tuple(row)])
        if addrs is not None:
            self._addrs.append((rel, addrs))

    def _rel(self, pos) -> np.ndarray:
        """Batch-relative indices of absolute positions, range-checked."""
        rel = np.asarray(pos, dtype=np.int64) - self.start
        if rel.size and (int(rel.min()) < 0 or int(rel.max()) >= self.n):
            raise TraceError(
                f"record positions {int(rel.min()) + self.start}.."
                f"{int(rel.max()) + self.start} fall outside the batch "
                f"{self.start}..{self.start + self.n - 1}")
        return rel

    def _put(self, rel: np.ndarray, rows: list[tuple]) -> None:
        """Give the records at ``rel`` their prototype rows: one row for
        a 1-D ``rel``, one per column of an (iterations, T) ``rel``."""
        ids = [self._rows.setdefault(r, len(self._rows)) for r in rows]
        self._row_of[rel] = ids[0] if len(ids) == 1 else ids
        self._placed += rel.size

    # --------------------------------------------------------------- commit

    def commit(self) -> int:
        """Append the batch to the trace; returns its first record index."""
        n = self.n
        if n == 0:
            return self.start
        if self._placed != n or int(self._row_of.min()) < 0:
            raise TraceError(
                f"batch of {n} records: {self._placed} placements do not "
                "cover every position exactly once")
        if len(self.trace) != self.start:
            raise TraceError("trace grew while a record batch was open")
        rows = np.array(list(self._rows), dtype=np.int64)
        row_of = self._row_of
        cols = {name: rows[:, j].astype(dtype)[row_of]
                for j, (name, dtype) in enumerate(_COL_DTYPES)}
        if rows[:, -1].any():
            relative = np.flatnonzero(rows[:, -1].astype(bool)[row_of])
            cols["dep"][relative] += relative + self.start
        for j, rel, value in self._patches:
            cols[_COL_DTYPES[j][0]][rel] = value
        n_addr = cols["n_addr"]
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_addr, out=off[1:])
        arena = np.empty(int(off[n]), dtype=np.int64)
        filled = 0
        for rel, a in self._addrs:
            if a.ndim == 2:  # an affine slot: each record owns one row
                dst = off[rel, None] + np.arange(a.shape[1], dtype=np.int64)
            else:
                c = n_addr[rel]
                if int(c.sum()) != a.shape[0]:
                    raise TraceError(
                        f"{a.shape[0]} addresses given for records owning "
                        f"{int(c.sum())}")
                dst = np.arange(a.shape[0], dtype=np.int64) \
                    + np.repeat(off[rel] - (np.cumsum(c) - c), c)
            arena[dst.ravel()] = a.ravel()
            filled += a.size
        if filled != arena.shape[0]:
            raise TraceError(f"{filled} addresses placed for an arena of "
                             f"{arena.shape[0]}")
        sb_writes = [(r, w) for rel, w in self._writes
                     for r in rel.tolist()]
        return self.trace.extend_columns(cols, arena, sb_writes)


class TraceTemplate:
    """Record one loop iteration symbolically; expand it vectorized."""

    def __init__(self, trace: TraceBuffer) -> None:
        self.trace = trace
        self._scal: list[tuple] = []   # constant int fields, see _K_*
        self._var: list[tuple] = []    # varying/address fields, see _V_*
        self._strs: list[str] = []     # per-slot opcode or label

    def __len__(self) -> int:
        return len(self._scal)

    # ------------------------------------------------------------ recording

    def vector(self, op: VOpClass, vl, opcode: str, *,
               pattern: VMemPattern | None = None,
               base_addrs: np.ndarray | None = None,
               iter_offsets: np.ndarray | None = None,
               flat_addrs: np.ndarray | None = None,
               counts: np.ndarray | None = None,
               is_write: bool = False, elem_bytes: int = 8,
               masked: bool = False, active=None, dep=None,
               scalar_dest: bool = False) -> int:
        """Add one vector instruction to the body; returns its local index."""
        if op is VOpClass.MEM:
            if (base_addrs is None) == (flat_addrs is None):
                raise TraceError(
                    f"{opcode}: MEM template record needs exactly one of "
                    "base_addrs (affine) or flat_addrs (explicit)"
                )
            if base_addrs is not None and iter_offsets is None:
                raise TraceError(f"{opcode}: affine addresses need "
                                 "iter_offsets")
            if flat_addrs is not None and counts is None:
                raise TraceError(f"{opcode}: explicit addresses need counts")
        elif base_addrs is not None or flat_addrs is not None:
            raise TraceError(f"{opcode}: non-MEM template record carries "
                             "addresses")
        self._scal.append((
            REC_VECTOR, 0, elem_bytes, OPCLASS_ID[op],
            NO_ID if pattern is None else PATTERN_ID[pattern],
            1 if is_write else 0, 1 if masked else 0,
            1 if scalar_dest else 0,
        ))
        self._strs.append(opcode)
        self._var.append((
            vl, active, 0, _normalize_dep(dep),
            _c64(base_addrs), _c64(iter_offsets),
            _c64(flat_addrs), _c64(counts), None,
        ))
        return len(self._scal) - 1

    def scalar_block(self, n_alu, *,
                     base_addrs: np.ndarray | None = None,
                     iter_offsets: np.ndarray | None = None,
                     flat_addrs: np.ndarray | None = None,
                     counts: np.ndarray | None = None,
                     writes: np.ndarray | bool = False,
                     mem_bytes: int = 8, mlp_hint: int = MLP_UNBOUNDED,
                     label: str = "") -> int:
        """Add one scalar block; address spec as in :meth:`vector`.

        ``writes`` is a constant flag or one iteration's per-access bool
        array (every iteration of a templated block shares the pattern).
        """
        if base_addrs is not None and iter_offsets is None:
            raise TraceError("affine scalar block needs iter_offsets")
        if flat_addrs is not None and counts is None:
            raise TraceError("explicit scalar block needs counts")
        w = None
        if isinstance(writes, np.ndarray):
            w = np.ascontiguousarray(writes, dtype=bool)
        elif writes:
            raise TraceError("writes=True is ambiguous; pass the bool array")
        self._scal.append((
            REC_SCALAR, mlp_hint, mem_bytes, NO_ID, NO_ID, 0, 0, 0,
        ))
        self._strs.append(label)
        self._var.append((
            0, None, n_alu, _DEP_NONE,
            _c64(base_addrs), _c64(iter_offsets),
            _c64(flat_addrs), _c64(counts), w,
        ))
        return len(self._scal) - 1

    def barrier(self, label: str = "") -> int:
        self._scal.append((
            REC_BARRIER, 0, 0, NO_ID, NO_ID, 0, 0, 0,
        ))
        self._strs.append(label)
        self._var.append((0, None, 0, _DEP_NONE,
                          None, None, None, None, None))
        return len(self._scal) - 1

    # ------------------------------------------------------------ expansion

    def replicate(self, n_iters: int) -> int:
        """Append ``n_iters`` expansions of the body; returns start index.

        The one-loop case of :meth:`expand`, committed at once. The
        template stays recorded — callers may replicate again.
        """
        n = int(n_iters)
        if n < 0:
            raise TraceError("negative iteration count")
        batch = RecordBatch(self.trace, n * len(self))
        self.expand(batch, [n], [batch.start])
        return batch.commit()

    def expand(self, batch: RecordBatch, counts, starts) -> None:
        """Place the body's iterations for many loops into ``batch``.

        Loop ``s`` runs ``counts[s]`` iterations, its first record at
        absolute index ``starts[s]``; iteration ``i`` of it occupies
        ``starts[s] + i*T .. + T - 1`` for a body of ``T`` records.
        Per-iteration arrays cover all ``sum(counts)`` iterations in loop
        order; ``Dep.prev(first=)`` and ``Dep.at`` take one absolute
        index or one per loop. Loops with no iteration place nothing and
        leave no snapshot.
        """
        counts = np.asarray(counts, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        n_loops = counts.shape[0]
        if counts.shape != (n_loops,) or starts.shape != (n_loops,):
            raise TraceError(f"loop counts {counts.shape} and starts "
                             f"{starts.shape} must be matching 1-D arrays")
        if n_loops and int(counts.min()) < 0:
            raise TraceError("negative iteration count")
        T = len(self._scal)
        n = int(counts.sum())
        if n == 0 or T == 0:
            return
        live = counts > 0
        loop = np.repeat(np.arange(n_loops, dtype=np.int64), counts)
        it_lo = np.cumsum(counts) - counts  # first iteration of each loop
        base = starts[loop] + (np.arange(n, dtype=np.int64)
                               - it_lo[loop]) * T
        first = np.zeros(n, dtype=bool)
        first[it_lo[live]] = True

        def per_loop(value, what):
            if isinstance(value, np.ndarray) and value.shape != (n_loops,):
                raise TraceError(f"{what}: {value.shape} values for "
                                 f"{n_loops} loops")
            return value

        # one prototype row per slot, plus the per-iteration fields as
        # patches; everything is validated before the batch is touched
        rel = batch._rel(base[:, None] + np.arange(T, dtype=np.int64))
        rows, patches, addrs_at, writes_at = [], [], [], []

        def vary(t, col, value, name):
            """Patch one value per iteration into field ``col``."""
            _per_iter(value, n, name)
            patches.append((col, rel[:, t], value))
            return 0

        intern = self.trace.intern
        for t, (sc, v, name) in enumerate(zip(self._scal, self._var,
                                              self._strs)):
            kind, mlp, nbytes, opclass, pattern, write, masked, sdest = sc
            # intern in slot order — the exact order per-iteration
            # emission's first iteration would have interned
            sid = intern(name)
            vl, active, n_alu, d, base_addrs, ioff, flat, c, w = v
            if active is None:
                active = vl
            if isinstance(vl, np.ndarray):
                vl = vary(t, _O_VL, vl, "vl")
            if isinstance(active, np.ndarray):
                active = vary(t, _O_ACTIVE, active, "active")
            if isinstance(n_alu, np.ndarray):
                n_alu = vary(t, _O_NALU, n_alu, "n_alu")
            n_addr = 0
            if base_addrs is not None:
                if ioff.shape != (n,):
                    raise TraceError(f"slot {t}: iter_offsets has shape "
                                     f"{ioff.shape}, expected ({n},)")
                n_addr = base_addrs.shape[0]
                if n_addr:
                    addrs_at.append((rel[:, t], ioff[:, None] + base_addrs))
            elif flat is not None:
                if c.shape != (n,):
                    raise TraceError(f"slot {t}: counts has shape "
                                     f"{c.shape}, expected ({n},)")
                if int(c.sum()) != flat.shape[0]:
                    raise TraceError(
                        f"slot {t}: counts sum to {int(c.sum())} but "
                        f"{flat.shape[0]} flat addresses given")
                n_addr = vary(t, _O_NADDR, c, "counts")
                addrs_at.append((rel[:, t], flat))
            if w is not None and kind == REC_SCALAR:
                if base_addrs is not None and \
                        w.shape[0] != base_addrs.shape[0]:
                    raise TraceError(f"slot {t}: writes shape mismatch")
                writes_at.append((rel[:, t], w))
            # local and prev deps are a constant offset from the record's
            # own position; iteration 0 of a prev dep takes its loop's
            # ``first``
            relative = d.mode in (_D_LOCAL, _D_PREV)
            if relative and not 0 <= d.slot < T:
                what = "local" if d.mode == _D_LOCAL else "prev"
                raise TraceError(f"slot {t}: {what} dep {d.slot} out of "
                                 "range")
            if d.mode == _D_LOCAL:
                dep = d.slot - t
            elif d.mode == _D_PREV:
                dep = d.slot - t - T
                patches.append((_O_DEP, rel[first, t], np.broadcast_to(
                    per_loop(d.first, f"slot {t}: prev dep first"),
                    (n_loops,))[live]))
            elif d.mode == _D_ABS:
                dep = per_loop(d.first, f"slot {t}: absolute dep")
                if isinstance(dep, np.ndarray):
                    dep = vary(t, _O_DEP, dep[loop], "dep")
            else:
                dep = -1
            is_vec = kind == REC_VECTOR
            rows.append((kind, n_alu, mlp, nbytes, vl, active, opclass,
                         pattern, write, masked, dep, sdest,
                         sid if is_vec else 0, 0 if is_vec else sid, n_addr,
                         1 if relative else 0))

        if _CAPTURE is not None:
            self._capture(counts, starts, it_lo)
        batch._put(rel, rows)
        batch._patches += patches
        batch._addrs += addrs_at
        batch._writes += writes_at

    def _capture(self, counts: np.ndarray, starts: np.ndarray,
                 it_lo: np.ndarray) -> None:
        """One :class:`TemplateSnapshot` per loop with iterations: the
        body with every per-iteration array and per-loop dep index cut
        down to that loop, as a one-loop expansion would have recorded."""
        flat_lo = [None if v[_V_COUNTS] is None
                   else np.concatenate(([0], np.cumsum(v[_V_COUNTS])))
                   for v in self._var]

        def cut(value, lo, hi):
            return value[lo:hi] if isinstance(value, np.ndarray) else value

        for s in np.flatnonzero(counts).tolist():
            lo, hi = int(it_lo[s]), int(it_lo[s] + counts[s])
            var = []
            for v, fo in zip(self._var, flat_lo):
                d = v[_V_DEP]
                if isinstance(d.first, np.ndarray):
                    d = Dep(d.mode, d.slot, int(d.first[s]))
                flat = v[_V_FLAT]
                if flat is not None:
                    flat = flat[int(fo[lo]):int(fo[hi])]
                var.append((
                    cut(v[_V_VL], lo, hi), cut(v[_V_ACTIVE], lo, hi),
                    cut(v[_V_NALU], lo, hi), d, v[_V_BASE],
                    cut(v[_V_IOFF], lo, hi), flat, cut(v[_V_COUNTS], lo, hi),
                    v[_V_WRITES],
                ))
            _CAPTURE.append(TemplateSnapshot(
                tuple(self._scal), tuple(var), tuple(self._strs),
                hi - lo, int(starts[s])))
