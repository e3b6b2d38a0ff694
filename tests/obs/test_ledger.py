"""Perf-ledger unit tests: record schema, the median+MAD detector (a
synthetic 30% regression must trip it; its own noise must not), the
direction tag for lower-is-better series, the perf-diff CLI verb, and —
the keystone — the committed ledger must judge itself clean."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.check import check_file
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    Verdict,
    append_record,
    build_record,
    check_series,
    detect_regression,
    load_and_validate,
    load_ledger,
    machine_fingerprint,
    perf_diff,
    render_perf_diff,
    series,
    series_direction,
    series_keys,
    validate_record,
)

COMMITTED_LEDGER = (Path(__file__).resolve().parents[2] / "benchmarks" /
                    "results" / "ledger.jsonl")


def _rec(value, *, bench="bench_x", metric="speedup", scale="ci",
         attrs=None):
    return build_record(bench=bench, metric=metric, value=value,
                        unit="ratio", scale=scale, attrs=attrs,
                        git_rev="deadbeef")


def _rec_on(machine_id, value):
    """A lower-is-better wall-time record measured on ``machine_id``."""
    rec = build_record(bench="bench_x", metric="e2e_s", value=value,
                       unit="s", scale="ci", attrs={"direction": "lower"},
                       git_rev="deadbeef")
    rec["machine"] = dict(rec["machine"], id=machine_id)
    return rec


class TestRecords:
    def test_build_validate_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_record(path, _rec(5.5))
        append_record(path, _rec(5.6, attrs={"records": 9}))
        records = load_and_validate(path)
        assert len(records) == 2
        assert records[0]["schema"] == LEDGER_SCHEMA
        assert records[1]["attrs"] == {"records": 9}
        assert check_file(str(path)) == "ledger"

    def test_single_record_file_sniffs_as_ledger(self, tmp_path):
        # one JSONL line parses as whole-file JSON; the checker must
        # still route it by its schema tag
        path = tmp_path / "one.jsonl"
        append_record(path, _rec(5.5))
        assert check_file(str(path)) == "ledger"

    def test_validate_rejects_drift(self):
        with pytest.raises(ValueError, match="schema"):
            validate_record(dict(_rec(1.0), schema="repro.ledger/999"))
        rec = _rec(1.0)
        del rec["machine"]
        with pytest.raises(ValueError, match="machine"):
            validate_record(rec)
        with pytest.raises(ValueError, match="non-empty"):
            validate_record(dict(_rec(1.0), bench=""))
        with pytest.raises(ValueError, match="number"):
            validate_record(dict(_rec(1.0), value="fast"))

    def test_machine_fingerprint_is_anonymized(self):
        m = _rec(1.0)["machine"]
        assert set(m) == {"id", "platform", "python", "cpus"}
        assert len(m["id"]) == 12  # hash prefix, not a raw host name

    def test_missing_ledger_loads_empty(self, tmp_path):
        assert load_ledger(tmp_path / "absent.jsonl") == []
        with pytest.raises(ValueError, match="empty or missing"):
            load_and_validate(tmp_path / "absent.jsonl")

    def test_series_helpers(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for v in (1.0, 2.0):
            append_record(path, _rec(v))
        append_record(path, _rec(9.0, metric="other",
                                 attrs={"direction": "lower"}))
        records = load_ledger(path)
        assert series(records, "bench_x", "speedup", "ci") == [1.0, 2.0]
        assert series_keys(records) == [("bench_x", "speedup", "ci"),
                                        ("bench_x", "other", "ci")]
        assert series_direction(records, "bench_x", "speedup", "ci") == \
            "higher"
        assert series_direction(records, "bench_x", "other", "ci") == \
            "lower"


class TestDetector:
    def test_insufficient_history(self):
        v = detect_regression([5.5] * 4, 1.0)
        assert v.status == "insufficient"
        assert not v.is_regression

    def test_synthetic_30pct_regression_trips(self):
        # the acceptance scenario: a stable ~5.5x series, then an engine
        # change lands and throughput drops 30% — the detector must flag
        # it with no hand-set threshold anywhere
        history = [5.4, 5.6, 5.5, 5.45, 5.58, 5.52, 5.47, 5.55]
        v = detect_regression(history, 0.7 * 5.5)
        assert v.is_regression
        assert "below the trailing median" in v.reason

    def test_own_noise_passes(self):
        history = [5.4, 5.6, 5.5, 5.45, 5.58, 5.52, 5.47, 5.55]
        for value in history:
            assert detect_regression(history, value).status == "ok"

    def test_noisy_series_swing_is_not_material_failure(self):
        # MAD is large: a 15% swing is normal for this series, so the
        # materiality band alone (10%) must not fail it — the bar is
        # min(noise, material), both must be broken
        history = [30.0, 25.0, 33.0, 26.5, 31.0, 24.5, 32.0]
        med = sorted(history)[len(history) // 2]
        v = detect_regression(history, 0.85 * med)
        assert v.status == "ok"

    def test_tight_series_jitter_is_not_statistical_failure(self):
        # MAD ~ 0: any jitter is "statistically significant", so the
        # noise band alone must not fail a sub-material dip
        history = [5.5, 5.5, 5.5, 5.5, 5.5, 5.5]
        v = detect_regression(history, 5.5 * 0.95)
        assert v.status == "ok"
        v = detect_regression(history, 5.5 * 0.7)
        assert v.is_regression

    def test_window_limits_history(self):
        history = [100.0] * 30 + [5.5] * 20
        v = detect_regression(history, 5.5, window=20)
        assert v.status == "ok" and v.median == 5.5

    def test_check_series_reads_ledger_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for v in (5.5, 5.4, 5.6, 5.5, 5.45, 5.5):
            append_record(path, _rec(v))
        verdict = check_series(load_ledger(path), "bench_x", "speedup",
                               "ci", 2.0)
        assert verdict.is_regression

    def test_check_series_takes_the_series_direction(self, tmp_path):
        # a lower-is-better series is judged as one without being told:
        # the direction comes from the records' attrs tag
        path = tmp_path / "ledger.jsonl"
        for v in (4.0, 4.2, 3.9, 4.1, 4.0, 4.05):
            append_record(path, _rec(v, metric="overhead_pct",
                                     attrs={"direction": "lower"}))
        records = load_ledger(path)
        assert check_series(records, "bench_x", "overhead_pct", "ci",
                            1.0).status == "ok"
        assert check_series(records, "bench_x", "overhead_pct", "ci",
                            12.0).is_regression


class TestPerfDiff:
    def _seed(self, path, values, **kwargs):
        for v in values:
            append_record(path, _rec(v, **kwargs))

    def test_latest_judged_against_prior(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._seed(path, [5.5, 5.4, 5.6, 5.5, 5.45, 5.5, 3.0])
        [(key, v)] = perf_diff(load_ledger(path))
        assert key == ("bench_x", "speedup", "ci")
        assert v.is_regression

    def test_lower_is_better_series_judged_negated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        attrs = {"direction": "lower"}
        # an overhead series improving (dropping) must NOT regress ...
        self._seed(path, [4.0, 4.2, 3.9, 4.1, 4.0, 4.05, 1.0],
                   metric="overhead_pct", attrs=attrs)
        # ... and one blowing up 3x must
        self._seed(path, [4.0, 4.2, 3.9, 4.1, 4.0, 4.05, 12.0],
                   metric="worse_pct", attrs=attrs)
        results = dict(perf_diff(load_ledger(path)))
        good = results[("bench_x", "overhead_pct", "ci")]
        bad = results[("bench_x", "worse_pct", "ci")]
        assert good.status == "ok"
        assert bad.is_regression
        # verdict values map back to the original sign
        assert good.value == pytest.approx(1.0)
        assert bad.value == pytest.approx(12.0)

    def test_wall_time_series_judged_per_machine(self, tmp_path):
        # seconds measured on one machine say nothing about another: a
        # 3x slower value from a new machine has no history to fail
        # against, while the same value from the history's machine does
        path = tmp_path / "ledger.jsonl"
        for v in (0.80, 0.82, 0.79, 0.81, 0.80, 0.80):
            append_record(path, _rec_on("dev", v))
        append_record(path, _rec_on("runner", 2.4))
        [(_, v)] = perf_diff(load_ledger(path))
        assert v.status == "insufficient" and v.samples == 0
        append_record(path, _rec_on("dev", 2.4))
        [(_, v)] = perf_diff(load_ledger(path))
        assert v.is_regression and v.samples == 6

    def test_ratio_series_judged_across_machines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for v in (5.5, 5.4, 5.6, 5.5, 5.45, 5.5):
            append_record(path, _rec(v))
        rec = _rec(3.0)
        rec["machine"] = dict(rec["machine"], id="runner")
        append_record(path, rec)
        [(_, v)] = perf_diff(load_ledger(path))
        assert v.is_regression

    def test_check_series_wall_time_uses_this_machine(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        for v in (0.80, 0.82, 0.79, 0.81, 0.80, 0.80):
            append_record(path, _rec_on("elsewhere", v))
        records = load_ledger(path)
        assert check_series(records, "bench_x", "e2e_s", "ci",
                            2.4).status == "insufficient"
        here = machine_fingerprint()["id"]
        for v in (0.80, 0.82, 0.79, 0.81, 0.80):
            append_record(path, _rec_on(here, v))
        assert check_series(load_ledger(path), "bench_x", "e2e_s", "ci",
                            2.4).is_regression

    def test_render_orders_worst_first(self):
        results = [
            (("b", "ok_metric", "ci"),
             Verdict("ok", 5.5, 5.5, 0.01, 5.0, 6, "fine")),
            (("b", "bad_metric", "ci"),
             Verdict("regression", 2.0, 5.5, 0.01, 5.0, 6, "dropped")),
        ]
        text = render_perf_diff(results)
        lines = text.splitlines()
        assert "REGRESSED" in lines[1] and "bad_metric" in lines[1]
        assert "ok" in lines[2]


class TestCommittedLedger:
    def test_committed_ledger_validates(self):
        records = load_and_validate(COMMITTED_LEDGER)
        assert len(records) >= 5

    def test_committed_ledger_judges_itself_clean(self):
        # perf-smoke's contract: the ledger as committed must not flag
        # its own latest records
        results = perf_diff(load_and_validate(COMMITTED_LEDGER))
        bad = {key: v.reason for key, v in results if v.is_regression}
        assert not bad


class TestPerfDiffCli:
    def _seed(self, path, values):
        for v in values:
            append_record(path, _rec(v))

    def test_ok_ledger_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._seed(path, [5.5, 5.4, 5.6, 5.5, 5.45, 5.5])
        rc = main(["perf-diff", "--ledger", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf-diff" in out and "bench_x:speedup" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._seed(path, [5.5, 5.4, 5.6, 5.5, 5.45, 5.5, 3.0])
        rc = main(["perf-diff", "--ledger", str(path)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_strict_fails_insufficient(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._seed(path, [5.5, 5.6])
        assert main(["perf-diff", "--ledger", str(path)]) == 0
        assert main(["perf-diff", "--ledger", str(path), "--strict"]) == 1

    def test_bad_ledger_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"schema": "repro.ledger/1"}\n')
        assert main(["perf-diff", "--ledger", str(path)]) == 2
        assert main(["perf-diff", "--ledger",
                     str(tmp_path / "absent.jsonl")]) == 2
