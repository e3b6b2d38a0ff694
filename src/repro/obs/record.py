"""One observability stream: the recorder and its renderings.

Every piece of harness telemetry is one plain dict record in one list.
There are five kinds:

* ``begin`` / ``end`` — a span (one timed harness stage) opens / closes;
  ``begin`` carries the span's ``attrs``;
* ``event`` — something happened: a ``level`` plus ``attrs``;
* ``count`` — add ``n`` to a named counter;
* ``high`` — a named high-water mark saw ``value``.

Every record also carries ``ts`` (one monotonic clock, shared by every
process on the host, so span durations cannot go negative and worker
records sort among the parent's), ``pid`` and ``seq`` (a per-process
sequence number that breaks same-``ts`` ties in creation order). Records
pickle and JSON-serialize: a sweep task records into a fresh recorder
(:func:`recording`), returns the list, and the parent
:meth:`Recorder.adopt`-s it — serial and pool tasks alike.

The process-wide recorder starts switched off; every call then costs one
attribute check and records nothing. Engines read the switch once per
run. The Perfetto trace (:func:`repro.obs.perfetto.
trace_events_from_spans`), the JSONL run log (:func:`write_runlog`), the
``--engine-stats`` table (:func:`counter_table`), manifests'
``engine_stats`` (:func:`fold`) and the dashboard are functions over a
record list. The counter glossary lives in ``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

#: bump on any backwards-incompatible run-log layout change.
RUNLOG_SCHEMA = "repro.runlog/2"

#: record kinds; each carries the common keys plus its own.
KINDS = {"begin": ("attrs",), "end": (), "event": ("level", "attrs"),
         "count": ("n",), "high": ("value",)}

#: event severity levels, least to most severe.
LEVELS = ("debug", "info", "warn", "error")

#: keys every record carries.
_COMMON = ("ts", "pid", "seq", "kind", "name")

_SEQ = itertools.count()


class Recorder:
    """Collects records: the process-wide one (:func:`get_recorder`), or a
    fresh one per :func:`recording` block."""

    def __init__(self, *, on: bool = False) -> None:
        self.on = on
        self.records: list[dict] = []
        self._open: list[str] = []

    def _add(self, kind: str, name: str, **fields) -> None:
        self.records.append({"ts": time.perf_counter(), "pid": os.getpid(),
                             "seq": next(_SEQ), "kind": kind, "name": name,
                             **fields})

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the block as one span. Yields ``attrs`` — the dict the
        ``begin`` record holds — so the block can add attributes late."""
        if not self.on:
            yield attrs
            return
        self._add("begin", name, attrs=attrs)
        self._open.append(name)
        try:
            yield attrs
        finally:
            if self._open:  # reset() may have closed it already
                self._open.pop()
                self._add("end", name)

    def event(self, name: str, *, level: str = "info", **attrs) -> None:
        if not self.on:
            return
        if level not in LEVELS:
            raise ValueError(f"unknown event level {level!r}")
        self._add("event", name, level=level, attrs=attrs)

    def count(self, name: str, n: float = 1) -> None:
        if self.on:
            self._add("count", name, n=n)

    def high(self, name: str, value: float) -> None:
        if self.on:
            self._add("high", name, value=value)

    def adopt(self, records: list[dict]) -> None:
        """Fold records made elsewhere (a sweep task, maybe in a worker
        process) into this stream; their ts, pids and seqs are kept."""
        if self.on:
            self.records.extend(records)

    def reset(self) -> int:
        """Figure boundary: close the spans a failed figure left open,
        keeping every record. Returns how many were closed — nonzero
        means the previous figure did not unwind, which is also logged as
        a ``figure.dangling_spans`` warning."""
        dangling = len(self._open)
        while self._open:
            self._add("end", self._open.pop())
        if dangling:
            self.event("figure.dangling_spans", level="warn",
                       count=dangling)
        return dangling


_REC = Recorder()


def get_recorder() -> Recorder:
    """The process-wide recorder (inside :func:`recording`, the block's)."""
    return _REC


def set_recording(on: bool) -> Recorder:
    """Switch the process-wide recorder; returns it. Switching on starts
    an empty one, so a capture covers one command."""
    global _REC
    if on and not _REC.on:
        _REC = Recorder()
    _REC.on = bool(on)
    return _REC


@contextmanager
def recording() -> Iterator[Recorder]:
    """Record the block into a fresh recorder that is on, and yield it;
    the previous recorder and its switch come back afterwards."""
    global _REC
    prev, _REC = _REC, Recorder(on=True)
    try:
        yield _REC
    finally:
        _REC = prev


# ------------------------------------------------------------ renderings


def ordered(records: Iterable[dict]) -> list[dict]:
    """Records in one deterministic order: clock, then pid, then seq."""
    return sorted(records, key=lambda r: (r["ts"], r["pid"], r["seq"]))


def spans(records: Iterable[dict]) -> list[dict]:
    """Pair ``begin``/``end`` records into closed spans, in begin order:
    ``{"name", "pid", "depth", "t0", "t1", "attrs"}``. Depth is the
    nesting within the recording process; an unclosed span is left out."""
    out: list[dict] = []
    stacks: dict[int, list[dict]] = {}
    for r in ordered(records):
        stack = stacks.setdefault(r["pid"], [])
        if r["kind"] == "begin":
            s = {"name": r["name"], "pid": r["pid"], "depth": len(stack),
                 "t0": r["ts"], "t1": None, "attrs": r["attrs"]}
            stack.append(s)
            out.append(s)
        elif r["kind"] == "end" and stack:
            stack.pop()["t1"] = r["ts"]
    return [s for s in out if s["t1"] is not None]


def fold(records: Iterable[dict]) -> dict:
    """Counters summed and high-water marks maxed:
    ``{"counters": {...}, "highs": {...}}`` (plain, JSON-serializable)."""
    counters: dict[str, float] = {}
    highs: dict[str, float] = {}
    for r in records:
        if r["kind"] == "count":
            counters[r["name"]] = counters.get(r["name"], 0) + r["n"]
        elif r["kind"] == "high":
            highs[r["name"]] = max(highs.get(r["name"], r["value"]),
                                   r["value"])
    return {"counters": counters, "highs": highs}


#: derived rate -> (numerator counter, counters summed as denominator);
#: a rate shows only when its denominator is nonzero
_RATIOS = {
    **{f"{c}.hit_rate": (f"{c}.hits", (f"{c}.hits", f"{c}.misses"))
       for c in ("plan_cache", "classify_cache", "lower_cache",
                 "trace_cache")},
    "limiter.fast_path_rate": ("limiter.fast_path_admits",
                               ("limiter.admits",)),
    "event.slab_recycle_rate": ("event.lines_recycled",
                                ("event.line_spawns",)),
    "event.tokens_per_timestamp": ("event.tokens", ("event.timestamps",)),
}


def ratios(counters: dict) -> dict[str, float]:
    """Derived hit/efficiency rates (only the ones with data)."""
    out = {}
    for name, (num, den) in _RATIOS.items():
        total = sum(counters.get(c, 0) for c in den)
        if total:
            out[name] = counters.get(num, 0) / total
    return out


def counter_rows(stats: dict) -> list[tuple[str, str]]:
    """(label, value) rows of a :func:`fold`: counters, high-water marks
    and the derived rates."""
    counters, highs = stats["counters"], stats["highs"]
    rates = ratios(counters)
    return ([(n, f"{counters[n]:,.0f}") for n in sorted(counters)]
            + [(f"{n} (max)", f"{highs[n]:,.0f}") for n in sorted(highs)]
            + [(n, f"{rates[n]:.3f}") for n in sorted(rates)])


def counter_table(records: Iterable[dict]) -> str:
    """The ``--engine-stats`` counter table over a record list."""
    rows = counter_rows(fold(records))
    if not rows:
        return ("engine introspection\n  (no counters recorded — "
                "recording was off)")
    return "\n".join(["engine introspection"]
                     + [f"  {n:<32s} {v:>14s}" for n, v in rows])


# --------------------------------------------------------------- run log


def write_runlog(path, records: list[dict], **meta) -> Path:
    """Validate and write the stream as a JSONL run log: a header line,
    then every record in :func:`ordered` order, all stamped with one
    fresh 16-hex trace id. Returns the path."""
    trace = uuid.uuid4().hex[:16]
    header = {"schema": RUNLOG_SCHEMA, "trace": trace,
              "created_unix": time.time(), "records": len(records), **meta}
    lines = [header] + [dict(r, trace=trace) for r in ordered(records)]
    validate_runlog_lines(lines)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return p


def validate_runlog_lines(lines: list[dict]) -> None:
    """Raise ``ValueError`` unless ``lines`` form a valid run log.

    Checks: a schema-tagged header first, the advertised record count,
    every record's keys and types for its kind, known severity levels,
    one trace id across header and records, and ``(ts, pid, seq)``
    order.
    """
    if not lines:
        raise ValueError("run log is empty (missing header line)")
    header = lines[0]
    if not isinstance(header, dict):
        raise ValueError("run-log header must be a JSON object")
    if header.get("schema") != RUNLOG_SCHEMA:
        raise ValueError(
            f"unsupported run-log schema {header.get('schema')!r} "
            f"(expected {RUNLOG_SCHEMA})"
        )
    trace = header.get("trace")
    if not isinstance(trace, str) or not trace:
        raise ValueError("run-log header 'trace' must be a non-empty string")
    records = lines[1:]
    if header.get("records") != len(records):
        raise ValueError(
            f"run-log header advertises {header.get('records')!r} records, "
            f"file has {len(records)}"
        )
    last_key = None
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if not isinstance(rec, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(rec.get("kind"), str) or rec["kind"] not in KINDS:
            raise ValueError(f"{where} has unknown kind {rec.get('kind')!r}")
        for key in _COMMON + KINDS[rec["kind"]]:
            if key not in rec:
                raise ValueError(f"{where} missing required key {key!r}")
        if not isinstance(rec["ts"], (int, float)):
            raise ValueError(f"{where} ts must be a number")
        if not isinstance(rec["pid"], int) or not isinstance(rec["seq"], int):
            raise ValueError(f"{where} pid/seq must be integers")
        if not isinstance(rec["name"], str) or not rec["name"]:
            raise ValueError(f"{where} name must be a non-empty string")
        if rec["kind"] == "event" and rec["level"] not in LEVELS:
            raise ValueError(f"{where} has unknown level {rec['level']!r}")
        for key in ("n", "value"):
            if key in KINDS[rec["kind"]] and \
                    not isinstance(rec[key], (int, float)):
                raise ValueError(f"{where} {key} must be a number")
        if rec.get("trace") != trace:
            raise ValueError(
                f"{where} trace {rec.get('trace')!r} does not match the "
                f"header trace {trace!r}"
            )
        key = (rec["ts"], rec["pid"], rec["seq"])
        if last_key is not None and key < last_key:
            raise ValueError(f"{where} out of (ts, pid, seq) order")
        last_key = key


def load_and_validate(path) -> list[dict]:
    """Read a JSONL run log and validate it; returns the parsed lines
    (header first)."""
    lines = []
    with Path(path).open(encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError as e:
                raise ValueError(f"line {n} is not valid JSON: {e}") from e
    validate_runlog_lines(lines)
    return lines
