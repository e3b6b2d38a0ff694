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
loop in either direction. Files are opened with ``allow_pickle=False``, so
a file with a pickled member is refused rather than unpickled.

A file may also hold the trace's knob-independent classification (the
``cls_*`` members, see :func:`save_trace`): a trace-cache entry keeps both
in one file, so a reload skips reclassification too.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.trace.events import TraceBuffer, TraceColumns

#: current on-disk format; also part of the sweep trace-cache key, so stale
#: cache entries from an older schema are never picked up.
FORMAT_VERSION = 2

#: the fixed-width columns of a v2 file, in schema order
_V2_COLUMNS = (
    "kind", "n_alu", "mlp", "mem_bytes", "vl", "active", "opclass",
    "pattern", "is_write", "masked", "dep", "scalar_dest",
    "opcode_id", "label_id",
)


def save_trace(trace: TraceBuffer, path: str | os.PathLike, *,
               classified=None) -> None:
    """Write a sealed trace to ``path`` (.npz, compressed, format v2).

    ``classified`` is the trace's
    :class:`~repro.memory.classify.ClassifiedTrace`, stored alongside as
    ``cls_rows``, ``cls_req_off``, ``cls_lines`` and ``cls_levels`` (as
    they are in memory) for :func:`load_classified`. The file is written to a
    temporary sibling and renamed into place, so ``path`` either holds a
    whole file or none: a failed or interrupted save never leaves a
    truncated one there.
    """
    if not trace.sealed:
        raise TraceError("only sealed traces can be saved")
    c = trace.cols
    # '\0' never occurs in opcodes/labels, so the intern table packs into
    # one flat string (no pickled object arrays in v2 files)
    for s in c.strings:
        if "\0" in s:
            raise TraceError(f"string table entry contains NUL: {s!r}")
    members = dict(
        version=np.int64(FORMAT_VERSION),
        addr_off=c.addr_off, addrs=c.addrs, writes=c.writes,
        strings=np.frombuffer(
            "\0".join(c.strings).encode("utf-8"), dtype=np.uint8),
        **{name: getattr(c, name) for name in _V2_COLUMNS},
    )
    if classified is not None:
        members.update(cls_rows=classified.rows,
                       cls_req_off=classified.req_off,
                       cls_lines=classified.lines,
                       cls_levels=classified.levels)
    path = Path(path)
    # not a cache-entry name: the cache audit flags a leftover as S003
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **members)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_trace(path: str | os.PathLike) -> TraceBuffer:
    """Read a trace saved by :func:`save_trace`; returns it sealed."""
    with np.load(path, allow_pickle=False) as z:
        version = int(z["version"])
        if version == FORMAT_VERSION:
            return _load_v2(z)
    raise TraceError(
        f"trace format version {version} unsupported "
        f"(this build reads version {FORMAT_VERSION})"
    )


def _load_v2(z) -> TraceBuffer:
    strings = bytes(z["strings"]).decode("utf-8").split("\0")
    cols = TraceColumns(
        addr_off=z["addr_off"], addrs=z["addrs"], writes=z["writes"],
        strings=strings,
        **{name: z[name] for name in _V2_COLUMNS},
    )
    return TraceBuffer.from_columns(cols)


def load_classified(path: str | os.PathLike, trace: TraceBuffer, config):
    """The classification stored in ``path`` by :func:`save_trace`.

    Returns a :class:`~repro.memory.classify.ClassifiedTrace` bound to
    ``trace`` (loaded from the same file) and ``config``. Raises
    :class:`TraceError` when the file holds no classification, or one
    that does not fit the trace or itself: the counts must be one
    :data:`~repro.memory.classify.COUNT_DTYPE` row per record, the
    request offsets must run from 0 without decreasing to the length of
    both the lines and the levels, every level must name an
    :class:`~repro.memory.classify.AccessLevel`, and each record's L1
    hits, L2 hits and DRAM reads must add up to its requests.
    """
    from repro.memory.classify import (
        COUNT_DTYPE,
        AccessLevel,
        ClassifiedTrace,
    )

    with np.load(path, allow_pickle=False) as z:
        if "cls_rows" not in z.files:
            raise TraceError(f"{path} holds no classification")
        rows = z["cls_rows"]
        req_off = z["cls_req_off"]
        lines = z["cls_lines"]
        levels = z["cls_levels"]
    n = len(trace)
    if rows.dtype != COUNT_DTYPE or rows.shape != (n,):
        raise TraceError(
            f"classification rows {rows.dtype} {rows.shape} do not fit "
            f"a trace of {n} records")
    if not (req_off.dtype == lines.dtype == np.int64
            and levels.dtype == np.uint8
            and req_off.shape == (n + 1,) and req_off[0] == 0
            and (req_off[1:] >= req_off[:-1]).all()
            and req_off[-1] == levels.size == lines.size):
        raise TraceError("stored line requests do not tile their levels")
    if levels.size and levels.max() > AccessLevel.DRAM:
        raise TraceError(f"stored level {int(levels.max())} is no "
                         "access level")
    served = rows["l1_hits"] + rows["l2_hits"] + rows["dram_reads"]
    bad = np.flatnonzero(served != np.diff(req_off))
    if bad.size:
        raise TraceError(f"record {int(bad[0])}: stored counts do not "
                         "match its line requests")
    return ClassifiedTrace(rows=rows, req_off=req_off, lines=lines,
                           levels=levels, trace=trace, config=config)
