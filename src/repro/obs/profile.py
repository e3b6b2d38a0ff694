"""The ``repro-sdv profile`` harness: per-VL attribution breakdowns.

Runs one kernel at every vector length (plus the scalar build), attributes
each run's cycles via :mod:`repro.obs.attribution`, and renders the result
as a table with one column per bucket — the "short reasons" view: reading
down the DRAM-stall column shows the paper's latency-tolerance mechanism
directly, as exposed stall cycles shrinking while vectors grow.

Also the export point for single-run artifacts: a schema-versioned
manifest (:mod:`repro.obs.manifest`) and a Perfetto trace combining the
engine timelines of every implementation with the harness spans
(:mod:`repro.obs.perfetto`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sweeps import (
    DEFAULT_VLS,
    _impls,
    impl_label,
    run_implementation,
    workload_fingerprint,
)
from repro.engine import check_engine
from repro.engine.event_fast import simulate_events_fast
from repro.engine.fast_sim import simulate_fast
from repro.engine.results import CycleReport
from repro.kernels import KERNELS
from repro.obs.attribution import BUCKET_LABELS, BUCKET_ORDER, CycleAttribution
from repro.obs.manifest import build_manifest
from repro.obs.perfetto import (
    trace_events_from_spans,
    trace_events_from_timeline,
)
from repro.obs.record import counter_table, fold, get_recorder
from repro.obs.timeline import TimelineRecorder
from repro.util.tables import TextTable
from repro.workloads import get_scale


@dataclass
class ProfileEntry:
    """One implementation's timed + attributed run."""

    impl: str
    vl: int | None
    report: CycleReport
    attribution: CycleAttribution
    timeline: TimelineRecorder | None = None


@dataclass
class ProfileResult:
    """All implementations of one kernel, timed, attributed, exportable."""

    kernel: str
    scale: str
    seed: int
    engine: str
    config: object            # the base SdvConfig (max VL varies per entry)
    workload_fp: str
    entries: list[ProfileEntry] = field(default_factory=list)
    #: what this profile recorded (empty while recording is off)
    records: list[dict] = field(default_factory=list)

    def render(self, *, fractions: bool = False) -> str:
        """The per-VL attribution table (cycles, or shares of the total)."""
        cols = ["impl", "cycles"] + [BUCKET_LABELS[b] for b in BUCKET_ORDER]
        cols += ["DRAM lat hidden"]
        t = TextTable(cols)
        for e in self.entries:
            a = e.attribution
            if fractions:
                row = [f"{a.fraction(b) * 100:.1f}%" for b in BUCKET_ORDER]
                hidden = (a.dram_latency_hidden / a.dram_latency_demand
                          if a.dram_latency_demand else 0.0)
                row.append(f"{hidden * 100:.1f}%")
            else:
                row = [f"{a.buckets[b] / 1e3:.1f}k" for b in BUCKET_ORDER]
                row.append(f"{a.dram_latency_hidden / 1e3:.1f}k")
            t.add_row([e.impl, f"{a.total / 1e3:.1f}k"] + row)
        unit = "% of total" if fractions else "kcycles"
        return (f"cycle attribution — {self.kernel} ({self.scale} scale, "
                f"{self.engine} engine, {unit})\n" + t.render())

    def render_engine_stats(self) -> str:
        """The engine-counter table (``repro-sdv profile --engine-stats``)."""
        return counter_table(self.records)

    def manifest(self) -> dict:
        """Schema-versioned manifest with per-run attribution buckets."""
        runs = []
        for e in self.entries:
            a = e.attribution
            runs.append({
                "impl": e.impl,
                "vl": e.vl,
                "cycles": a.total,
                "buckets": {b: a.buckets[b] for b in BUCKET_ORDER},
                "dram_latency_demand": a.dram_latency_demand,
                "dram_latency_hidden": a.dram_latency_hidden,
            })
        extra = {"engine_stats": fold(self.records)} if self.records else None
        return build_manifest(
            kernel=self.kernel, engine=self.engine, config=self.config,
            runs=runs, scale=self.scale, seed=self.seed,
            workload_fingerprint=self.workload_fp, extra=extra,
        )

    def trace_events(self) -> list[dict]:
        """Perfetto events: one process row per impl timeline + this
        profile's spans."""
        events: list[dict] = []
        pid = 1
        for e in self.entries:
            if e.timeline is not None:
                events.extend(trace_events_from_timeline(
                    e.timeline, pid=pid,
                    label=f"{self.kernel}/{e.impl} [{e.timeline.engine}]"))
                pid += 1
        events.extend(trace_events_from_spans(self.records))
        return events


def profile_kernel(name: str, *, scale: str = "ci", seed: int = 7,
                   vls=DEFAULT_VLS, engine: str = "batch",
                   include_scalar: bool = True, verify: bool = True,
                   trace_cache=None, timelines: bool = False
                   ) -> ProfileResult:
    """Time + attribute one kernel at every VL (and the scalar build).

    ``timelines=True`` additionally records each run's machine-activity
    timeline: with the event engine when ``engine="event"``, else with
    ``simulate_fast``, the batch engine's specification — the batch walk
    computes identical cycles but keeps no per-record schedule.

    While recording is on, :attr:`ProfileResult.records` holds the records
    of exactly these runs: their spans and engine counters.
    """
    check_engine(engine)
    spec = KERNELS[name]
    workload = spec.prepare(get_scale(scale), seed)
    reference = spec.reference(workload) if verify else None
    rec = get_recorder()
    start = len(rec.records)
    result = None
    for vl in _impls(vls, include_scalar):
        label = impl_label(vl)
        with rec.span(f"profile:{name}:{label}", kernel=name, impl=label):
            sdv, trace = run_implementation(spec, workload, vl,
                                            verify=verify,
                                            reference=reference,
                                            trace_cache=trace_cache)
            if result is None:
                result = ProfileResult(
                    kernel=name, scale=scale, seed=seed, engine=engine,
                    config=sdv.config,
                    workload_fp=workload_fingerprint(workload),
                )
            report = sdv.time(trace, engine=engine)
            att = sdv.attribute(trace, engine=engine)
            report.attribution = att
            timeline = None
            if timelines:
                timeline = TimelineRecorder()
                ct = sdv.classify(trace)
                if engine == "event":
                    simulate_events_fast(ct, timeline=timeline)
                else:
                    simulate_fast(ct, timeline=timeline)
            result.entries.append(ProfileEntry(
                impl=label, vl=vl, report=report, attribution=att,
                timeline=timeline,
            ))
    result.records = rec.records[start:]
    return result
