"""Observability: explain *why* a run took the cycles it took.

The paper's claims are causal — long vectors tolerate latency because the
memory queue keeps enough element requests outstanding to overlap the added
DDR4 cycles — but a bare cycle total cannot show that. This package turns
the simulator into a study instrument:

* :mod:`repro.obs.attribution` — decomposes every run's cycle total into
  named buckets (issue/decode, vector-unit busy, exposed DRAM latency,
  bandwidth throttle, NoC, cache service) that sum **bit-exactly** to
  ``CycleReport.cycles`` in every engine, plus the derived
  "latency hidden by overlap" metric — the paper's claim (i), observable;
* :mod:`repro.obs.record` — the one telemetry stream: span begin/end,
  event, count and high-water records from the harness stages and the
  engine hot paths, one process-wide switch, one worker-merge path
  (``adopt``), and its renderings (JSONL run log, counter table);
* :mod:`repro.obs.timeline` — per-record machine activity recorded by the
  timing engines (simulated-cycle extents);
* :mod:`repro.obs.perfetto` — Chrome/Perfetto ``trace_event`` JSON export
  for both span records and timelines;
* :mod:`repro.obs.manifest` — schema-versioned machine-readable run
  manifests written next to sweep results;
* :mod:`repro.obs.profile` — the ``repro-sdv profile`` harness: the
  per-VL attribution table ("short reasons" view);
* :mod:`repro.obs.ledger` — longitudinal machine-fingerprinted perf
  records with a median+MAD regression detector (``repro-sdv
  perf-diff``);
* :mod:`repro.obs.htmlreport` — the self-contained HTML run dashboard
  (``repro-sdv dash``).
"""

from repro.obs.attribution import (
    BUCKET_ORDER,
    CycleAttribution,
    attribute,
    attribute_many,
    attribution_ladder,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    validate_manifest,
    write_manifest,
)
from repro.obs.htmlreport import (
    DASH_SCHEMA,
    build_dashboard,
    render_dashboard,
    validate_dashboard,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Verdict,
    append_record,
    build_record,
    check_series,
    detect_regression,
    perf_diff,
)
from repro.obs.perfetto import (
    trace_events_from_spans,
    trace_events_from_timeline,
    validate_trace_events,
    write_trace,
)
from repro.obs.record import (
    RUNLOG_SCHEMA,
    Recorder,
    fold,
    get_recorder,
    recording,
    set_recording,
    write_runlog,
)
from repro.obs.timeline import TimelineRecorder

__all__ = [
    "BUCKET_ORDER",
    "CycleAttribution",
    "DASH_SCHEMA",
    "LEDGER_SCHEMA",
    "MANIFEST_SCHEMA",
    "RUNLOG_SCHEMA",
    "Recorder",
    "TimelineRecorder",
    "Verdict",
    "append_record",
    "attribute",
    "attribute_many",
    "attribution_ladder",
    "build_dashboard",
    "build_manifest",
    "build_record",
    "check_series",
    "config_hash",
    "detect_regression",
    "fold",
    "get_recorder",
    "perf_diff",
    "recording",
    "render_dashboard",
    "set_recording",
    "trace_events_from_spans",
    "trace_events_from_timeline",
    "validate_dashboard",
    "validate_manifest",
    "validate_trace_events",
    "write_manifest",
    "write_runlog",
    "write_trace",
]
