"""Unit tests for the JSONL run log, the recorder stream written to disk:
record shape, span scoping, cross-process merge ordering, and the on-disk
round trip."""

import json

import pytest

from repro.obs.check import check_file
from repro.obs.record import (
    RUNLOG_SCHEMA,
    Recorder,
    load_and_validate,
    ordered,
    validate_runlog_lines,
    write_runlog,
)


def _lines(tmp_path, rec, **meta):
    return load_and_validate(write_runlog(tmp_path / "run.jsonl",
                                          rec.records, **meta))


class TestRunLog:
    def test_event_records_required_keys(self):
        rec = Recorder(on=True)
        rec.event("sweep.start", kernel="fft", points=9)
        (r,) = rec.records
        assert r["kind"] == "event"
        assert r["name"] == "sweep.start"
        assert r["level"] == "info"
        assert r["attrs"] == {"kernel": "fft", "points": 9}
        assert {"ts", "pid", "seq"} <= set(r)

    def test_disabled_log_records_nothing(self):
        rec = Recorder()
        rec.event("x")
        assert rec.records == []

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            Recorder(on=True).event("x", level="fatal")

    def test_seq_increments_per_record(self):
        rec = Recorder(on=True)
        rec.event("a")
        rec.count("b")
        a, b = rec.records
        assert b["seq"] > a["seq"]

    def test_context_unwinds_on_exception(self):
        # a span is the run log's scope: its end record is written even
        # when the block raises
        rec = Recorder(on=True)
        with pytest.raises(RuntimeError):
            with rec.span("figure"):
                raise RuntimeError
        assert [r["kind"] for r in rec.records] == ["begin", "end"]
        assert rec.reset() == 0

    def test_adopt_preserves_worker_identity(self):
        parent, worker = Recorder(on=True), Recorder(on=True)
        worker.event("worker.task")
        parent.event("parent.dispatch")
        worker_rec = dict(worker.records[0])
        parent.adopt(worker.records)
        assert len(parent.records) == 2
        assert worker_rec in parent.records  # ts, pid and seq kept

    def test_merged_records_ordered_by_ts_pid_seq(self):
        # hand-built out-of-order records across two fake pids
        records = [
            {"ts": 2.0, "pid": 9, "seq": 0, "kind": "event", "name": "c",
             "level": "info"},
            {"ts": 1.0, "pid": 9, "seq": 1, "kind": "event", "name": "b",
             "level": "info"},
            {"ts": 1.0, "pid": 3, "seq": 5, "kind": "event", "name": "a",
             "level": "info"},
        ]
        assert [r["name"] for r in ordered(records)] == ["a", "b", "c"]


class TestRunlogFile:
    def test_write_load_roundtrip(self, tmp_path):
        rec = Recorder(on=True)
        with rec.span("figure"):
            rec.event("point", latency=64)
            rec.count("sweep.points_timed", 7)
            rec.high("event.max_drain_depth", 3)
        lines = _lines(tmp_path, rec, command="fig3")
        header = lines[0]
        assert header["schema"] == RUNLOG_SCHEMA
        assert header["command"] == "fig3"
        assert header["records"] == len(lines) - 1 == 5
        # the trace id is stamped when the file is written
        assert {r["trace"] for r in lines[1:]} == {header["trace"]}
        assert [r["kind"] for r in lines[1:]] == [
            "begin", "event", "count", "high", "end"]
        assert check_file(str(tmp_path / "run.jsonl")) == "runlog"
        again = _lines(tmp_path, rec)
        assert again[0]["trace"] != header["trace"]

    def test_header_only_log_is_valid_and_sniffable(self, tmp_path):
        # a single-line JSONL file parses as whole-file JSON; the checker
        # must still route it by its schema tag
        path = write_runlog(tmp_path / "empty.jsonl", [])
        assert load_and_validate(path)[0]["records"] == 0
        assert check_file(str(path)) == "runlog"

    def test_validator_rejects_drift(self, tmp_path):
        rec = Recorder(on=True)
        rec.event("a")
        rec.count("c", 2)
        good = _lines(tmp_path, rec)

        bad_schema = [dict(good[0], schema="repro.runlog/1")] + good[1:]
        with pytest.raises(ValueError, match="schema"):
            validate_runlog_lines(bad_schema)

        bad_count = [dict(good[0], records=7)] + good[1:]
        with pytest.raises(ValueError, match="advertises"):
            validate_runlog_lines(bad_count)

        bad_trace = good[:1] + [dict(good[1], trace="deadbeef"), good[2]]
        with pytest.raises(ValueError, match="trace"):
            validate_runlog_lines(bad_trace)

        bad_level = good[:1] + [dict(good[1], level="fatal"), good[2]]
        with pytest.raises(ValueError, match="level"):
            validate_runlog_lines(bad_level)

        for kind in ("gauge", ["event"]):
            bad_kind = good[:1] + [dict(good[1], kind=kind), good[2]]
            with pytest.raises(ValueError, match="kind"):
                validate_runlog_lines(bad_kind)

        no_n = {k: v for k, v in good[2].items() if k != "n"}
        with pytest.raises(ValueError, match="'n'"):
            validate_runlog_lines(good[:2] + [no_n])

        with pytest.raises(ValueError, match="empty"):
            validate_runlog_lines([])

    def test_validator_rejects_disorder(self, tmp_path):
        rec = Recorder(on=True)
        rec.event("a")
        rec.event("b")
        header, first, second = _lines(tmp_path, rec)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in
                                  [header, second, first]) + "\n")
        with pytest.raises(ValueError, match="order"):
            load_and_validate(path)

