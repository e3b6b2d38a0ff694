"""Chrome/Perfetto ``trace_event`` JSON export.

Both exporters produce the stable JSON object format understood by
``chrome://tracing``, https://ui.perfetto.dev and ``trace_processor``:
a top-level ``{"traceEvents": [...]}`` with complete (``"ph": "X"``)
events carrying microsecond ``ts``/``dur``.

Two sources, two time bases:

* harness **spans** (the ``begin``/``end`` records of
  :mod:`repro.obs.record`) — monotonic-clock seconds, scaled to
  microseconds; one Perfetto process row per OS pid, so ``--jobs`` worker
  activity lands on separate rows;
* engine **timelines** (:mod:`repro.obs.timeline`) — simulated cycles,
  exported 1 cycle = 1 µs; one thread row per machine unit track.

``validate_trace_events`` is the schema gate CI runs over emitted files.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.record import spans
from repro.obs.timeline import TimelineRecorder

#: allowed phase codes in emitted traces (complete slices + instants +
#: metadata records).
_PHASES = {"X", "i", "M"}


def trace_events_from_spans(records: list[dict]) -> list[dict]:
    """Span records -> complete events; pid = recording process, tid =
    nest depth."""
    closed = spans(records)
    if not closed:
        return []
    t0 = min(s["t0"] for s in closed)
    # the first process to open a span is the harness; the rest are
    # --jobs workers
    pids = list(dict.fromkeys(s["pid"] for s in closed))
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "sweep-harness" if pid == pids[0]
                        else f"worker-{pid}"}}
              for pid in pids]
    for s in closed:
        events.append({
            "ph": "X",
            "name": s["name"],
            "cat": "harness",
            "pid": s["pid"],
            "tid": s["depth"],
            "ts": (s["t0"] - t0) * 1e6,
            "dur": (s["t1"] - s["t0"]) * 1e6,
            "args": dict(s["attrs"]),
        })
    return events


def trace_events_from_timeline(timeline: TimelineRecorder, *,
                               pid: int = 1, label: str = "") -> list[dict]:
    """Engine timeline -> complete events, 1 simulated cycle = 1 µs."""
    tracks = []
    for e in timeline.events:
        if e.track not in tracks:
            tracks.append(e.track)
    name = label or (f"sim[{timeline.engine}]" if timeline.engine else "sim")
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": name}},
    ]
    for tid, track in enumerate(tracks):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
    tids = {track: tid for tid, track in enumerate(tracks)}
    for e in timeline.events:
        ev = {
            "ph": "X" if e.dur > 0 else "i",
            "name": e.name,
            "cat": "sim",
            "pid": pid,
            "tid": tids[e.track],
            "ts": e.start,
            "args": dict(e.args),
        }
        if e.dur > 0:
            ev["dur"] = e.dur
        else:
            ev["s"] = "t"  # instant scope: thread
        events.append(ev)
    return events


def write_trace(path, events: list[dict], *, metadata: dict | None = None
                ) -> Path:
    """Write a trace_event JSON object file; returns the path."""
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def validate_trace_events(obj) -> None:
    """Raise ``ValueError`` unless ``obj`` is a valid trace_event object.

    Checks the object format's structural contract: a ``traceEvents`` list
    whose entries carry a known phase, a name, integer pid/tid, and — for
    complete events — non-negative ``ts``/``dur`` numbers.
    """
    if not isinstance(obj, dict):
        raise ValueError("trace must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace missing 'traceEvents' list")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            raise ValueError(f"{where} has unsupported phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(f"{where} missing event name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise ValueError(f"{where} missing integer {key!r}")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where} needs a non-negative ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} needs a non-negative dur")


def load_and_validate(path) -> dict:
    """Read a trace file and validate it; returns the parsed object."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_trace_events(obj)
    return obj
