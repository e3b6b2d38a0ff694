"""Artifact validator: ``python -m repro.obs.check file [file ...]``.

Sniffs each file's content — a run manifest (``repro.manifest/1``), a
Chrome/Perfetto ``trace_event`` dump, a JSONL run log
(``repro.runlog/2``), a JSONL perf ledger (``repro.ledger/1``), or an
HTML dashboard (``repro.dash/1``) — and validates it against the matching
schema. Exits non-zero on the first invalid or unrecognizable file, so CI
can assert that exported artifacts are well-formed without extra tooling.

Diagnosis rides on the shared :mod:`repro.lint` findings pipeline
(rules ``O001``-``O007``): :func:`check_artifacts` returns a
:class:`repro.lint.findings.FindingsReport` with the same severity and
exit-code model as every other lint pass, and the CLI here is a thin
fail-fast wrapper over it.
"""

from __future__ import annotations

import json
import sys

from repro.lint.findings import Finding, FindingsReport
from repro.lint.rules import finding
from repro.obs.manifest import MANIFEST_SCHEMA, validate_manifest
from repro.obs.perfetto import validate_trace_events


def _sniff(path: str):
    """Read + parse one artifact; returns ``(kind, payload)``.

    ``kind`` is one of ``manifest``/``trace``/``runlog``/``ledger``/
    ``dashboard``; raises ``LookupError`` for an unrecognized shape and
    ``OSError``/``ValueError`` for unreadable/unparseable content.
    """
    from repro.obs.htmlreport import DASH_MARKER
    from repro.obs.ledger import LEDGER_SCHEMA
    from repro.obs.record import RUNLOG_SCHEMA

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("<!DOCTYPE html>") or DASH_MARKER in text[:256]:
        return "dashboard", text
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        if data.get("schema") == MANIFEST_SCHEMA:
            return "manifest", data
        if "traceEvents" in data:
            return "trace", data
        # a one-line JSONL file parses as plain JSON; route by its tag
        if data.get("schema") == RUNLOG_SCHEMA:
            return "runlog", text
        if data.get("schema") == LEDGER_SCHEMA:
            return "ledger", text
    if data is None and stripped.startswith("{"):
        # multiple JSON objects -> JSON Lines; sniff the first line's tag
        first_raw = stripped.splitlines()[0]
        try:
            first = json.loads(first_raw)
        except json.JSONDecodeError as e:
            raise ValueError(f"line 1 is not valid JSON: {e}") from e
        if isinstance(first, dict):
            if first.get("schema") == RUNLOG_SCHEMA:
                return "runlog", text
            if first.get("schema") == LEDGER_SCHEMA:
                return "ledger", text
    raise LookupError(
        f"neither a {MANIFEST_SCHEMA} manifest, a trace_event dump, a "
        "JSONL run log/ledger, nor an HTML dashboard"
    )


#: kind -> (validator over the sniffed payload, O-rule for violations).
def _validate_runlog(path: str, _payload) -> None:
    from repro.obs.record import load_and_validate

    load_and_validate(path)


def _validate_ledger(path: str, _payload) -> None:
    from repro.obs.ledger import load_and_validate

    load_and_validate(path)


_CHECKS = {
    "manifest": (lambda path, data: validate_manifest(data), "O002"),
    "trace": (lambda path, data: validate_trace_events(data), "O003"),
    "runlog": (_validate_runlog, "O005"),
    "ledger": (_validate_ledger, "O006"),
    "dashboard": (None, "O007"),  # resolved lazily (import cycle hygiene)
}


def _run_check(kind: str, path: str, payload) -> None:
    validate, _ = _CHECKS[kind]
    if kind == "dashboard":
        from repro.obs.htmlreport import validate_dashboard

        validate_dashboard(payload)
        return
    validate(path, payload)


def check_file(path: str) -> str:
    """Validate one artifact; returns its kind ('manifest', 'trace',
    'runlog', 'ledger' or 'dashboard').

    Raises ``ValueError`` when the file is none of them, or fails
    validation.
    """
    try:
        kind, payload = _sniff(path)
    except LookupError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _run_check(kind, path, payload)
    return kind


def check_file_finding(path: str) -> tuple[str | None, Finding | None]:
    """Findings-pipeline view of one artifact: ``(kind, finding)``.

    Exactly one of the two is non-None: a recognized, valid artifact
    yields its kind; anything else yields an O0xx ERROR finding. The
    rule follows the stage that rejected the file, not its message:
    unreadable/unparseable -> O004, unrecognized shape -> O001, then
    per-kind validation -> O002 (manifest), O003 (trace), O005 (run
    log), O006 (ledger), O007 (dashboard).
    """
    try:
        kind, payload = _sniff(path)
    except (OSError, ValueError) as exc:
        return None, finding("O004", path, str(exc))
    except LookupError as exc:
        return None, finding("O001", path, str(exc))
    try:
        _run_check(kind, path, payload)
    except ValueError as exc:
        return None, finding(_CHECKS[kind][1], path, str(exc))
    return kind, None


def check_artifacts(paths: list[str]) -> FindingsReport:
    """Validate many artifacts into one findings report (never raises)."""
    report = FindingsReport()
    for path in paths:
        _, bad = check_file_finding(path)
        if bad is not None:
            report.add(bad)
    return report


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        print("usage: python -m repro.obs.check file [file ...]",
              file=sys.stderr)
        return 2
    for path in args:
        kind, bad = check_file_finding(path)
        if bad is not None:
            print(f"FAIL {path}: {bad.message}", file=sys.stderr)
            return FindingsReport([bad]).exit_code()
        print(f"ok   {path} ({kind})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
