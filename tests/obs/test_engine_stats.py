"""Engine counters in the recorder's stream: folding count/high records,
the counter table, and the live hooks — a real event-engine run must
record counters while recording is on and nothing while it is off — plus
the figure-boundary reset, which must repair dangling spans without
losing completed records."""

import json

import pytest

from repro.core.sweeps import run_implementation
from repro.engine import simulate_events_fast, simulate_fast
from repro.kernels import KERNELS
from repro.obs.record import (
    Recorder,
    counter_table,
    fold,
    get_recorder,
    ratios,
    recording,
    set_recording,
)
from repro.workloads import get_scale


@pytest.fixture(scope="module")
def classified():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    return sdv.classify(trace)


class TestEngineStats:
    def test_count_and_high(self):
        rec = Recorder(on=True)
        rec.count("a")
        rec.count("a", 4)
        rec.count("zero", 0)
        rec.high("h", 3)
        rec.high("h", 2)
        stats = fold(rec.records)
        assert stats["counters"] == {"a": 5, "zero": 0}
        assert stats["highs"] == {"h": 3}

    def test_snapshot_merge(self):
        parent, worker = Recorder(on=True), Recorder(on=True)
        parent.count("n", 1)
        worker.count("n", 4)
        worker.high("depth", 9)
        assert json.dumps(worker.records)  # plain data, serializable
        parent.adopt(worker.records)
        stats = fold(parent.records)
        assert stats["counters"]["n"] == 5
        assert stats["highs"]["depth"] == 9

    def test_ratios_derived_only_with_data(self):
        assert ratios({}) == {}
        r = ratios({"event.line_spawns": 10, "event.lines_recycled": 8,
                    "event.timestamps": 4, "event.tokens": 12})
        assert r["event.slab_recycle_rate"] == pytest.approx(0.8)
        assert r["event.tokens_per_timestamp"] == pytest.approx(3.0)
        assert "plan_cache.hit_rate" not in r

    def test_render_mentions_counters(self):
        rec = Recorder(on=True)
        rec.count("event.runs", 2)
        rec.high("event.max_drain_depth", 5)
        text = counter_table(rec.records)
        assert "event.runs" in text
        assert "event.max_drain_depth (max)" in text
        assert "no counters recorded" in counter_table([])


class TestLiveIntrospection:
    def test_event_engine_fills_counters_when_enabled(self, classified):
        with recording() as rec:
            simulate_events_fast(classified)
        stats = fold(rec.records)
        c = stats["counters"]
        assert c["event.runs"] == 1
        assert c["event.timestamps"] > 0
        assert c["event.tokens"] >= c["event.timestamps"]
        assert c["event.line_spawns"] > 0
        assert stats["highs"]["event.slab_high_water"] > 0
        # recycling never exceeds spawning
        assert c["event.lines_recycled"] <= c["event.line_spawns"]

    def test_reference_engine_fills_counters_when_enabled(self, classified):
        from repro.engine import simulate_events

        with recording() as rec:
            simulate_events(classified)
        c = fold(rec.records)["counters"]
        assert c.get("event_ref.timestamps", 0) > 0
        assert c.get("event_ref.events", 0) > 0

    def test_disabled_engines_record_nothing(self, classified):
        rec = get_recorder()
        before = len(rec.records)
        assert not rec.on
        simulate_events_fast(classified)
        simulate_fast(classified)
        assert len(rec.records) == before

    def test_enable_clears_only_on_off_to_on_edge(self):
        try:
            rec = set_recording(True)
            rec.count("sticky", 1)
            assert set_recording(True).records == rec.records != []
            set_recording(False)
            assert set_recording(True).records == []
        finally:
            set_recording(False)


class TestFigureReset:
    def test_reset_repairs_nesting(self):
        rec = Recorder(on=True)
        with rec.span("done"):
            pass
        rec.event("keep.me")
        # a figure aborted mid-span: the span opened, never closed
        dangling = rec.span("dangling")
        dangling.__enter__()

        assert rec.reset() == 1
        # completed records survive the boundary; the dangling span is
        # closed by an end record and reported
        names = [r["name"] for r in rec.records]
        assert names[:3] == ["done", "done", "keep.me"]
        assert [r["kind"] for r in rec.records[3:]] == [
            "begin", "end", "event"]
        assert names[-1] == "figure.dangling_spans"
        assert rec.records[-1]["level"] == "warn"
        assert rec.reset() == 0
        # the span's own exit, if it ever comes, closes nothing twice
        dangling.__exit__(None, None, None)
        assert len(rec.records) == 6

    def test_clean_reset_is_quiet(self):
        rec = Recorder(on=True)
        assert rec.reset() == 0
        assert rec.records == []
