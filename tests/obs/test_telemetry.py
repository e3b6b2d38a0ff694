"""Unit tests for the telemetry plumbing: recorder spans, timeline
recorder, Perfetto export, and run manifests."""

import pytest

from repro.config import SdvConfig
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    load_and_validate,
    validate_manifest,
    write_manifest,
)
from repro.obs.perfetto import (
    trace_events_from_spans,
    trace_events_from_timeline,
    validate_trace_events,
    write_trace,
)
from repro.obs.perfetto import load_and_validate as load_trace
from repro.obs.record import Recorder, spans
from repro.obs.timeline import TimelineRecorder


class TestSpans:
    def test_nested_spans_record_depth(self):
        rec = Recorder(on=True)
        with rec.span("outer", kernel="spmv"):
            with rec.span("inner") as attrs:
                attrs["walk"] = "compiled"  # set late, still recorded
        assert [r["kind"] for r in rec.records] == [
            "begin", "begin", "end", "end"]
        outer, inner = spans(rec.records)
        assert (outer["name"], inner["name"]) == ("outer", "inner")
        assert outer["depth"] == 0 and inner["depth"] == 1
        assert outer["t0"] <= inner["t0"] <= inner["t1"] <= outer["t1"]
        assert outer["attrs"] == {"kernel": "spmv"}
        assert inner["attrs"] == {"walk": "compiled"}

    def test_disabled_tracer_records_nothing(self):
        rec = Recorder()
        with rec.span("x", kernel="fft") as attrs:
            attrs["late"] = 1  # the block may still set attrs
        rec.event("e")
        rec.count("c")
        rec.high("h", 3)
        rec.adopt([{"kind": "count", "name": "c", "n": 1}])
        assert rec.records == []

    def test_adopt_preserves_worker_spans(self):
        parent, worker = Recorder(on=True), Recorder(on=True)
        with parent.span("sweep"):
            with worker.span("work", impl="vl8"):
                pass
            parent.adopt(worker.records)
        by_name = {s["name"]: s for s in spans(parent.records)}
        assert by_name["work"]["attrs"]["impl"] == "vl8"
        # same process: the adopted span nests under the open one
        assert by_name["work"]["depth"] == by_name["sweep"]["depth"] + 1


class TestTimelineAndPerfetto:
    def _timeline(self):
        tl = TimelineRecorder(engine="fast")
        tl.add("scalar-core", "scalar[0]", 0.0, 10.0, issue=4)
        tl.add("vpu-mem", "vmem[1]", 5.0, 30.0, vl=64)
        tl.instant("scalar-core", "barrier[2]", 30.0)
        return tl

    def test_recorder_tracks_end_cycle(self):
        tl = self._timeline()
        assert tl.end_cycle == 30.0
        assert len(tl.events) == 3

    def test_timeline_export_validates(self):
        events = trace_events_from_timeline(self._timeline(), pid=3,
                                            label="unit")
        validate_trace_events({"traceEvents": events})
        names = {e["name"] for e in events}
        assert {"scalar[0]", "vmem[1]", "barrier[2]"} <= names
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "unit" for e in meta)

    def test_span_export_validates(self):
        rec = Recorder(on=True)
        with rec.span("sweep:spmv:latency"):
            with rec.span("re-time:spmv:vl8"):
                pass
        events = trace_events_from_spans(rec.records)
        validate_trace_events({"traceEvents": events})
        x = [e for e in events if e["ph"] == "X"]
        assert len(x) == 2 and all(e["ts"] >= 0 for e in x)

    def test_write_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        events = trace_events_from_timeline(self._timeline())
        write_trace(path, events, metadata={"kernel": "spmv"})
        obj = load_trace(path)
        assert obj["otherData"]["kernel"] == "spmv"

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace_events({"traceEvents": [{"ph": "Z", "name": "x",
                                                    "pid": 0, "tid": 0}]})
        with pytest.raises(ValueError):
            validate_trace_events({"no_events": []})


class TestEngineTimelines:
    @pytest.fixture(scope="class")
    def classified(self):
        from repro.core.sweeps import run_implementation
        from repro.kernels import KERNELS
        from repro.workloads import get_scale

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        sdv, trace = run_implementation(spec, workload, 8, verify=False)
        return sdv.classify(trace)

    def test_event_engine_timeline_exports_valid_trace(self, classified,
                                                       tmp_path):
        from repro.engine import simulate_events_fast

        tl = TimelineRecorder()
        report = simulate_events_fast(classified, timeline=tl)
        assert tl.engine == "event"
        assert tl.events  # the DES actually recorded its schedule
        assert tl.end_cycle <= report.cycles
        events = trace_events_from_timeline(tl, label="event engine")
        validate_trace_events({"traceEvents": events})
        tracks = {e.track for e in tl.events}
        assert "scalar-core" in tracks and "vpu-arith" in tracks
        path = tmp_path / "event.trace.json"
        write_trace(path, events)
        assert load_trace(path)["traceEvents"]

    def test_event_and_ref_timelines_identical(self, classified):
        # the bit-exactness contract extends to the recorded schedule:
        # both DES engines must dump the same machine-activity timeline,
        # event for event, in the same order
        from repro.engine import simulate_events, simulate_events_fast

        tl_fast, tl_ref = TimelineRecorder(), TimelineRecorder()
        fast = simulate_events_fast(classified, timeline=tl_fast)
        ref = simulate_events(classified, timeline=tl_ref)
        assert fast.cycles == ref.cycles
        assert (tl_fast.engine, tl_ref.engine) == ("event", "event-ref")
        key = [(e.track, e.name, e.start, e.dur, e.args)
               for e in tl_fast.events]
        assert key == [(e.track, e.name, e.start, e.dur, e.args)
                       for e in tl_ref.events]


class TestManifest:
    def _manifest(self, **kwargs):
        return build_manifest(
            kernel="spmv", engine="fast", config=SdvConfig().validate(),
            runs=[{"impl": "vl8", "cycles": 10.0,
                   "buckets": {"a": 4.0, "b": 6.0}}],
            **kwargs,
        )

    def test_build_and_validate(self):
        m = self._manifest(scale="ci", seed=7, axis="latency",
                           points=[0, 32])
        validate_manifest(m)
        assert m["schema"] == MANIFEST_SCHEMA
        assert m["points"] == [0, 32]

    def test_config_hash_tracks_knobs(self):
        base = SdvConfig().validate()
        assert config_hash(base) != config_hash(base.with_extra_latency(64))
        assert config_hash(base) == config_hash(SdvConfig().validate())

    def test_rejects_bucket_sum_mismatch(self):
        m = self._manifest()
        m["runs"][0]["buckets"]["a"] = 5.0
        with pytest.raises(ValueError, match="buckets sum"):
            validate_manifest(m)

    def test_rejects_wrong_schema_and_missing_keys(self):
        m = self._manifest()
        m["schema"] = "repro.manifest/999"
        with pytest.raises(ValueError, match="schema"):
            validate_manifest(m)
        m = self._manifest()
        del m["config_hash"]
        with pytest.raises(ValueError, match="config_hash"):
            validate_manifest(m)

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        m = self._manifest()
        write_manifest(path, m)
        again = load_and_validate(path)
        # float cycle totals survive the JSON round-trip bit-exactly
        assert again["runs"][0]["buckets"] == m["runs"][0]["buckets"]
