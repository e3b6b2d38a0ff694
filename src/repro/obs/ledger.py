"""Longitudinal perf ledger + robust regression detection.

The benchmarks used to leave bare ``.txt`` ratio dumps and a hand-set
"fail below 0.8x of a committed constant" bar. The ledger replaces both:
every bench run appends one machine-fingerprinted, schema-versioned JSON
line to ``benchmarks/results/ledger.jsonl``, and the detector compares a
fresh value against the *trailing window* of committed history with
robust statistics — median and MAD (median absolute deviation), which a
single outlier run cannot drag — instead of a constant someone typed in.

Detection contract (for "higher is better" metrics like speedup ratios):

* fewer than ``min_samples`` history points -> ``insufficient`` (callers
  fall back to their legacy fixed threshold, so a fresh clone still has
  a perf bar);
* otherwise the value passes if it clears ``median - mad_k * 1.4826 *
  MAD`` (the noise band; 1.4826 scales MAD to a Gaussian sigma) **or**
  ``median - min_rel_drop * abs(median)`` (the materiality band — with a
  tight history MAD approaches zero and any jitter would trip a pure
  noise test). A ``regression`` must fail both: statistically
  significant *and* material.

``repro-sdv perf-diff`` runs the detector over every series in a ledger;
perf-smoke CI runs it through the benches themselves.
"""

from __future__ import annotations

import getpass
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

#: bump on any backwards-incompatible ledger layout change.
LEDGER_SCHEMA = "repro.ledger/1"

#: keys every ledger record must carry (validator contract).
_REQUIRED = ("schema", "bench", "metric", "value", "unit", "scale",
             "created_unix", "machine")

#: default trailing-window shape for the detector.
WINDOW = 20
MIN_SAMPLES = 5


def machine_fingerprint() -> dict:
    """Anonymized description of the machine a record was measured on.

    The host name is hashed (ledgers are committed; raw host names leak),
    but the fields that explain *why* numbers differ across machines —
    platform, Python version, CPU count — stay readable. Ratio metrics
    (speedups measured within one run) are machine-independent; wall-time
    series (:data:`MACHINE_UNITS`) are judged per machine ``id``.
    """
    host = f"{platform.node()}:{_username()}"
    return {
        "id": hashlib.sha256(host.encode()).hexdigest()[:12],
        "platform": platform.platform(terse=True),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def _username() -> str:
    try:
        return getpass.getuser()
    except (KeyError, OSError):  # no passwd entry (containers)
        return "unknown"


def build_record(*, bench: str, metric: str, value: float, unit: str,
                 scale: str, attrs: dict | None = None,
                 git_rev: str | None = None) -> dict:
    """Assemble one schema-versioned ledger record."""
    if git_rev is None:
        from repro.obs.manifest import git_revision

        git_rev = git_revision()
    rec = {
        "schema": LEDGER_SCHEMA,
        "bench": bench,
        "metric": metric,
        "value": float(value),
        "unit": unit,
        "scale": scale,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "git_rev": git_rev,
    }
    if attrs:
        rec["attrs"] = attrs
    return rec


def validate_record(rec, where: str = "record") -> None:
    """Raise ``ValueError`` unless ``rec`` honours the schema."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where} is not an object")
    if rec.get("schema") != LEDGER_SCHEMA:
        raise ValueError(
            f"{where} has unsupported schema {rec.get('schema')!r} "
            f"(expected {LEDGER_SCHEMA})"
        )
    for key in _REQUIRED:
        if key not in rec:
            raise ValueError(f"{where} missing required key {key!r}")
    for key in ("bench", "metric", "unit", "scale"):
        if not isinstance(rec[key], str) or not rec[key]:
            raise ValueError(f"{where} {key} must be a non-empty string")
    if not isinstance(rec["value"], (int, float)):
        raise ValueError(f"{where} value must be a number")
    if not isinstance(rec["created_unix"], (int, float)):
        raise ValueError(f"{where} created_unix must be a number")
    if not isinstance(rec["machine"], dict) or "id" not in rec["machine"]:
        raise ValueError(f"{where} machine must be an object with an 'id'")


def append_record(path, rec: dict) -> Path:
    """Validate and append one record to a JSONL ledger file."""
    validate_record(rec)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return p


def load_ledger(path) -> list[dict]:
    """Read a JSONL ledger; returns ``[]`` for a missing file."""
    p = Path(path)
    if not p.exists():
        return []
    records = []
    with p.open(encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                records.append(json.loads(raw))
            except json.JSONDecodeError as e:
                raise ValueError(f"line {n} is not valid JSON: {e}") from e
    return records


def load_and_validate(path) -> list[dict]:
    """Read a ledger and validate every record; returns them in file
    order (which is append order, i.e. chronological per machine)."""
    records = load_ledger(path)
    if not records:
        raise ValueError(f"ledger {path} is empty or missing")
    for i, rec in enumerate(records):
        validate_record(rec, where=f"record[{i}]")
    return records


def series(records: list[dict], bench: str, metric: str,
           scale: str) -> list[float]:
    """The chronological value series of one (bench, metric, scale) key."""
    return [r["value"] for r in _keyed(records, bench, metric, scale)]


def _keyed(records: list[dict], bench: str, metric: str,
           scale: str) -> list[dict]:
    return [r for r in records
            if r.get("bench") == bench and r.get("metric") == metric
            and r.get("scale") == scale]


#: units whose values depend on the machine that measured them. A series
#: in one of them is judged only against records from the same machine:
#: against another machine's history a slower runner reads as a
#: regression and a faster one hides a real one.
MACHINE_UNITS = frozenset({"s"})


def comparable_series(records: list[dict], bench: str, metric: str,
                      scale: str, machine_id: str) -> list[float]:
    """The values of one series that a value measured on machine
    ``machine_id`` can be judged against: all of them, or — when the
    series' latest record is in a :data:`MACHINE_UNITS` unit — only
    those measured on that machine."""
    keyed = _keyed(records, bench, metric, scale)
    if keyed and keyed[-1].get("unit") in MACHINE_UNITS:
        keyed = [r for r in keyed if r["machine"]["id"] == machine_id]
    return [r["value"] for r in keyed]


def series_keys(records: list[dict]) -> list[tuple[str, str, str]]:
    """Every distinct (bench, metric, scale) key, in first-seen order."""
    seen: dict[tuple[str, str, str], None] = {}
    for r in records:
        seen.setdefault((r["bench"], r["metric"], r["scale"]), None)
    return list(seen)


def series_direction(records: list[dict], bench: str, metric: str,
                     scale: str) -> str:
    """A series' improvement direction: ``"higher"`` (default — speedups,
    throughputs) or ``"lower"`` (overheads, wall times), taken from the
    last record carrying an ``attrs.direction`` tag."""
    direction = "higher"
    for r in _keyed(records, bench, metric, scale):
        direction = (r.get("attrs") or {}).get("direction", direction)
    return direction


# ---------------------------------------------------------------- detector

#: MAD -> sigma for Gaussian noise.
_MAD_SIGMA = 1.4826


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


@dataclass(frozen=True)
class Verdict:
    """One detector decision over one series."""

    status: str            # "ok" | "regression" | "insufficient"
    value: float           # the value under test
    median: float          # trailing-window median (0.0 if insufficient)
    mad: float             # trailing-window MAD
    threshold: float       # the bar the value had to clear
    samples: int           # history points the decision used
    reason: str

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"


def detect_regression(history: list[float], value: float, *,
                      window: int = WINDOW,
                      min_samples: int = MIN_SAMPLES,
                      mad_k: float = 4.0,
                      min_rel_drop: float = 0.10) -> Verdict:
    """Judge ``value`` (higher is better) against its trailing history.

    ``history`` is chronological and must **not** include ``value``. The
    bar is ``min(median - mad_k * 1.4826 * MAD, median - min_rel_drop *
    abs(median))`` — inside the noise band of the last ``window`` runs
    *or* within ``min_rel_drop`` of their median passes; below both is a
    regression.
    """
    if len(history) < min_samples:
        return Verdict(
            status="insufficient", value=value, median=0.0, mad=0.0,
            threshold=0.0, samples=len(history),
            reason=(f"only {len(history)} history samples "
                    f"(need {min_samples}); caller should fall back to "
                    f"its fixed baseline"),
        )
    tail = history[-window:]
    med = _median(tail)
    mad = _median([abs(v - med) for v in tail])
    noise_bar = med - mad_k * _MAD_SIGMA * mad
    # abs() keeps the materiality band below the median when the series
    # is negative (a lower-is-better series judged on its negation)
    material_bar = med - min_rel_drop * abs(med)
    # a regression must be BOTH outside the noise band AND material, so
    # the bar is the lower of the two: a noisy series (large MAD) is not
    # failed for a swing its own history calls normal, and a tight series
    # (MAD ~ 0) is not failed for sub-materiality jitter
    threshold = min(noise_bar, material_bar)
    if value < threshold:
        drop = (med - value) / abs(med) if med else float("inf")
        return Verdict(
            status="regression", value=value, median=med, mad=mad,
            threshold=threshold, samples=len(tail),
            reason=(f"{value:.3g} is {drop:.1%} below the trailing "
                    f"median {med:.3g} (bar {threshold:.3g}, "
                    f"{len(tail)} samples, MAD {mad:.3g})"),
        )
    return Verdict(
        status="ok", value=value, median=med, mad=mad,
        threshold=threshold, samples=len(tail),
        reason=(f"{value:.3g} clears the bar {threshold:.3g} "
                f"(median {med:.3g}, {len(tail)} samples)"),
    )


def _judge(history: list[float], value: float, direction: str,
           **kwargs) -> Verdict:
    """:func:`detect_regression` in the series' direction: a
    lower-is-better series is judged on its negation, with the verdict's
    value/median/threshold mapped back to the original sign."""
    if direction != "lower":
        return detect_regression(history, value, **kwargs)
    v = detect_regression([-x for x in history], -value, **kwargs)
    return Verdict(status=v.status, value=-v.value, median=-v.median,
                   mad=v.mad, threshold=-v.threshold, samples=v.samples,
                   reason=v.reason + " [lower-is-better, judged on the "
                   "negated series]")


def check_series(records: list[dict], bench: str, metric: str, scale: str,
                 value: float, **kwargs) -> Verdict:
    """Detector over a loaded ledger: judge ``value``, measured on this
    machine, against the series' committed history in the series'
    direction (:func:`series_direction`)."""
    history = comparable_series(records, bench, metric, scale,
                                machine_fingerprint()["id"])
    return _judge(history, value,
                  series_direction(records, bench, metric, scale), **kwargs)


def perf_diff(records: list[dict], **kwargs) -> list[tuple[tuple, Verdict]]:
    """Judge the *latest* record of every series against its own prior
    history (``repro-sdv perf-diff``). Returns ``[(key, verdict), ...]``.

    The detector is written for higher-is-better values; lower-is-better
    series (tagged ``attrs.direction: "lower"`` — overheads, wall times)
    are judged on their negation. A wall-time series' latest record is
    judged only against records from its own machine
    (:func:`comparable_series`).
    """
    out = []
    for key in series_keys(records):
        latest = _keyed(records, *key)[-1]
        values = comparable_series(records, *key, latest["machine"]["id"])
        out.append((key, _judge(values[:-1], values[-1],
                                series_direction(records, *key), **kwargs)))
    return out


def render_perf_diff(results: list[tuple[tuple, Verdict]]) -> str:
    """Text table for the CLI: one line per series, worst first."""
    order = {"regression": 0, "insufficient": 1, "ok": 2}
    rows = sorted(results, key=lambda kv: order[kv[1].status])
    lines = ["perf-diff — latest value vs trailing history "
             "(median + MAD)"]
    if not rows:
        lines.append("  (ledger has no series)")
        return "\n".join(lines)
    for (bench, metric, scale), v in rows:
        tag = {"regression": "REGRESSED", "insufficient": "n/a",
               "ok": "ok"}[v.status]
        lines.append(f"  {tag:<9s} {bench}:{metric} [{scale}]  "
                     f"value {v.value:.3g}  {v.reason}")
    return "\n".join(lines)
