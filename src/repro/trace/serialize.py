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
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from repro.errors import TraceError
from repro.trace.events import TraceBuffer, TraceColumns

#: current on-disk format; also part of the sweep trace-cache key, so stale
#: cache entries from an older schema are never picked up.
FORMAT_VERSION = 2

#: on-disk format of the classified sidecar (``<trace>.clsN-<geom>.npz``)
#: that lets ``--trace-cache`` reloads skip reclassification entirely.
CLASSIFIED_FORMAT_VERSION = 1

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
    :func:`repro.memory.classify.pack_levels`.
    """
    from repro.memory.classify import pack_levels

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
    from repro.memory.classify import ClassifiedTrace, unpack_levels

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

