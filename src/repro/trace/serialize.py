"""Trace serialization: save a recorded trace to one ``.npz`` file.

Trace generation is the expensive stage of the pipeline (a paper-scale BFS
trace takes far longer to generate than to re-time). Persisting sealed
traces lets a workflow record once and re-time under many machine
configurations later, in other processes, or on other machines — the
simulator-world analogue of keeping the compiled benchmark binary around.

Format v2 is the buffer's columnar (SoA) form verbatim: the record columns,
the pooled address/write arena with per-record offsets, and the interned
string table. Saving is a handful of array writes and loading is
:meth:`repro.trace.events.TraceBuffer.from_columns` — no per-record Python
loop in either direction. v1 files (one object-array entry per record
string, reconstructed through the dataclass path) still load.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from repro.errors import TraceError
from repro.trace.events import (
    Barrier,
    ScalarBlock,
    TraceBuffer,
    TraceColumns,
    VectorInstr,
    VMemPattern,
    VOpClass,
)

#: current on-disk format; also part of the sweep trace-cache key, so stale
#: cache entries from an older schema are never picked up.
FORMAT_VERSION = 2

#: on-disk format of the classified sidecar (``<trace>.clsN-<geom>.npz``)
#: that lets ``--trace-cache`` reloads skip reclassification entirely.
CLASSIFIED_FORMAT_VERSION = 1

_V1_KIND = {"scalar": 0, "vector": 1, "barrier": 2}
_OPCLASS = list(VOpClass)
_OPCLASS_ID = {c: i for i, c in enumerate(VOpClass)}
_PATTERN = list(VMemPattern)
_PATTERN_ID = {p: i for i, p in enumerate(VMemPattern)}

#: the fixed-width columns of a v2 file, in schema order
_V2_COLUMNS = (
    "kind", "n_alu", "mlp", "mem_bytes", "vl", "active", "opclass",
    "pattern", "is_write", "masked", "dep", "scalar_dest",
    "opcode_id", "label_id",
)


def save_trace(trace: TraceBuffer, path: str | os.PathLike) -> None:
    """Write a sealed trace to ``path`` (.npz, compressed, format v2)."""
    if not trace.sealed:
        raise TraceError("only sealed traces can be saved")
    c = trace.cols
    # '\0' never occurs in opcodes/labels, so the intern table packs into
    # one flat string (no pickled object arrays in v2 files)
    for s in c.strings:
        if "\0" in s:
            raise TraceError(f"string table entry contains NUL: {s!r}")
    np.savez_compressed(
        path,
        version=np.int64(FORMAT_VERSION),
        addr_off=c.addr_off, addrs=c.addrs, writes=c.writes,
        strings=np.frombuffer(
            "\0".join(c.strings).encode("utf-8"), dtype=np.uint8),
        **{name: getattr(c, name) for name in _V2_COLUMNS},
    )


def load_trace(path: str | os.PathLike) -> TraceBuffer:
    """Read a trace saved by :func:`save_trace`; returns it sealed."""
    with np.load(path, allow_pickle=True) as z:
        version = int(z["version"])
        if version == 2:
            return _load_v2(z)
        if version == 1:
            return _load_v1(z)
    raise TraceError(
        f"trace format version {version} unsupported "
        f"(this build reads versions 1..{FORMAT_VERSION})"
    )


def _load_v2(z) -> TraceBuffer:
    strings = bytes(z["strings"]).decode("utf-8").split("\0")
    cols = TraceColumns(
        addr_off=z["addr_off"], addrs=z["addrs"], writes=z["writes"],
        strings=strings,
        **{name: z[name] for name in _V2_COLUMNS},
    )
    return TraceBuffer.from_columns(cols)


# ------------------------------------------------------- classified sidecar

def save_classified(ct, path: str | os.PathLike, *,
                    geometry_fp: str) -> None:
    """Persist a trace's knob-independent classification next to its
    cached trace file.

    ``ct`` is a :class:`repro.memory.classify.ClassifiedTrace`;
    ``geometry_fp`` is the cache-geometry fingerprint
    (:meth:`repro.soc.sdv.FpgaSdv.geometry_fingerprint`) the
    classification was computed under — embedded so a loader never
    trusts the filename alone. The ragged ``levels`` list is stored as
    the ``(lens, flat)`` pair of
    :func:`repro.memory.classify_fast.pack_levels`.
    """
    from repro.memory.classify_fast import pack_levels

    lens, flat = pack_levels(ct.levels)
    np.savez_compressed(
        path,
        version=np.int64(CLASSIFIED_FORMAT_VERSION),
        geometry=np.asarray(geometry_fp),
        rows=np.ascontiguousarray(ct.rows),
        lens=lens, flat=flat,
    )


def load_classified(path: str | os.PathLike, trace: TraceBuffer, config, *,
                    geometry_fp: str):
    """Load a classified sidecar saved by :func:`save_classified`.

    Returns a :class:`~repro.memory.classify.ClassifiedTrace` bound to
    ``trace``/``config``, or ``None`` when the sidecar is unreadable,
    from a different format version, recorded under a different cache
    geometry, or misaligned with the trace — any of which just means
    "reclassify" to the caller, never an error.
    """
    from repro.memory.classify import ClassifiedTrace
    from repro.memory.classify_fast import unpack_levels

    try:
        with np.load(path) as z:
            if int(z["version"]) != CLASSIFIED_FORMAT_VERSION:
                return None
            if str(z["geometry"]) != geometry_fp:
                return None
            rows = z["rows"]
            lens = z["lens"]
            flat = z["flat"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    if rows.shape[0] != len(trace) or lens.shape[0] != len(trace):
        return None
    return ClassifiedTrace(rows=rows, levels=unpack_levels(lens, flat),
                           trace=trace, config=config)


# --------------------------------------------------------------- v1 support

def _save_v1(trace: TraceBuffer, path: str | os.PathLike) -> None:
    """Legacy record-loop writer, kept so tests can pin v1 loading."""
    if not trace.sealed:
        raise TraceError("only sealed traces can be saved")
    n = len(trace)
    kind = np.zeros(n, dtype=np.uint8)
    n_alu = np.zeros(n, dtype=np.int64)
    mlp = np.zeros(n, dtype=np.int64)
    mem_bytes = np.zeros(n, dtype=np.int32)
    vl = np.zeros(n, dtype=np.int32)
    active = np.zeros(n, dtype=np.int32)
    opclass = np.full(n, 255, dtype=np.uint8)
    pattern = np.full(n, 255, dtype=np.uint8)
    is_write = np.zeros(n, dtype=np.uint8)
    masked = np.zeros(n, dtype=np.uint8)
    dep = np.full(n, -1, dtype=np.int64)
    scalar_dest = np.zeros(n, dtype=np.uint8)
    addr_off = np.zeros(n + 1, dtype=np.int64)
    opcodes: list[str] = []
    labels: list[str] = []

    addr_chunks: list[np.ndarray] = []
    write_chunks: list[np.ndarray] = []
    total = 0
    for i, rec in enumerate(trace):
        if isinstance(rec, ScalarBlock):
            kind[i] = _V1_KIND["scalar"]
            n_alu[i] = rec.n_alu_ops
            mlp[i] = rec.mlp_hint
            mem_bytes[i] = rec.mem_bytes
            labels.append(rec.label)
            opcodes.append("")
            addr_chunks.append(rec.mem_addrs)
            write_chunks.append(rec.mem_is_write)
            total += rec.mem_addrs.shape[0]
        elif isinstance(rec, VectorInstr):
            kind[i] = _V1_KIND["vector"]
            vl[i] = rec.vl
            active[i] = rec.active if rec.active is not None else rec.vl
            opclass[i] = _OPCLASS_ID[rec.op]
            if rec.pattern is not None:
                pattern[i] = _PATTERN_ID[rec.pattern]
            is_write[i] = 1 if rec.is_write else 0
            masked[i] = 1 if rec.masked else 0
            dep[i] = rec.dep
            scalar_dest[i] = 1 if rec.scalar_dest else 0
            mem_bytes[i] = rec.elem_bytes
            opcodes.append(rec.opcode)
            labels.append("")
            if rec.addrs is not None:
                addr_chunks.append(rec.addrs)
                write_chunks.append(
                    np.full(rec.addrs.shape[0], rec.is_write))
                total += rec.addrs.shape[0]
        else:  # Barrier
            kind[i] = _V1_KIND["barrier"]
            labels.append(rec.label)
            opcodes.append("")
        addr_off[i + 1] = total

    np.savez_compressed(
        path,
        version=np.int64(1),
        kind=kind, n_alu=n_alu, mlp=mlp, mem_bytes=mem_bytes,
        vl=vl, active=active, opclass=opclass, pattern=pattern,
        is_write=is_write, masked=masked, dep=dep, scalar_dest=scalar_dest,
        addr_off=addr_off,
        addrs=(np.concatenate(addr_chunks) if addr_chunks
               else np.empty(0, dtype=np.int64)),
        writes=(np.concatenate(write_chunks) if write_chunks
                else np.empty(0, dtype=bool)),
        opcodes=np.array(opcodes, dtype=object),
        labels=np.array(labels, dtype=object),
        allow_pickle=True,
    )


def _load_v1(z) -> TraceBuffer:
    # each z[...] access decompresses that member from scratch, so pull
    # every column out exactly once before the per-record loop
    kind = z["kind"]
    addr_off = z["addr_off"]
    addrs = z["addrs"]
    writes = z["writes"]
    opcodes = z["opcodes"]
    labels = z["labels"]
    n_alu = z["n_alu"]
    mlp = z["mlp"]
    mem_bytes = z["mem_bytes"]
    vl = z["vl"]
    active = z["active"]
    opclass = z["opclass"]
    pattern = z["pattern"]
    is_write = z["is_write"]
    masked = z["masked"]
    dep = z["dep"]
    scalar_dest = z["scalar_dest"]

    trace = TraceBuffer()
    for i in range(kind.shape[0]):
        lo, hi = int(addr_off[i]), int(addr_off[i + 1])
        if kind[i] == _V1_KIND["scalar"]:
            trace.append(ScalarBlock(
                n_alu_ops=int(n_alu[i]),
                mem_addrs=addrs[lo:hi],
                mem_is_write=writes[lo:hi],
                mem_bytes=int(mem_bytes[i]),
                mlp_hint=int(mlp[i]),
                label=str(labels[i]),
            ))
        elif kind[i] == _V1_KIND["vector"]:
            op = _OPCLASS[int(opclass[i])]
            pat = (None if pattern[i] == 255
                   else _PATTERN[int(pattern[i])])
            trace.append(VectorInstr(
                op=op,
                vl=int(vl[i]),
                opcode=str(opcodes[i]),
                pattern=pat,
                addrs=addrs[lo:hi] if hi > lo or op is VOpClass.MEM
                else None,
                is_write=bool(is_write[i]),
                elem_bytes=int(mem_bytes[i]),
                masked=bool(masked[i]),
                active=int(active[i]),
                dep=int(dep[i]),
                scalar_dest=bool(scalar_dest[i]),
            ))
        else:
            trace.append(Barrier(label=str(labels[i])))
    return trace.seal()
