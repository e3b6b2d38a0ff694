"""The findings pipeline shared by every lint pass (and ``repro.obs.check``).

A finding is one diagnosed problem: a stable rule id, a severity, a
location string (``file:line`` for source rules, a symbolic path like
``template[spmv/vl8]#2`` for dynamic rules), a message, and a fix hint.
Passes return lists of findings; :class:`FindingsReport` aggregates them,
applies ignores, renders text/JSON, and maps severities to the process
exit code CI gates on: **exit 1 iff any ERROR-severity finding remains**.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

#: schema tag of the JSON report (bump on incompatible layout changes).
#: v2 adds per-finding ``category`` + optional ``pid`` and a report-level
#: ``meta`` block; ``--format json-v1`` still emits the v1 layout.
REPORT_SCHEMA = "repro.lint/2"
REPORT_SCHEMA_V1 = "repro.lint/1"

#: rule-id prefix -> pass category (the v2 per-finding ``category`` key).
_CATEGORIES = {
    "T": "trace", "E": "emitter", "C": "config", "S": "cache",
    "O": "artifact", "P": "concurrency", "W": "hygiene",
}


def category_of(rule: str) -> str:
    """Pass category of a rule id (``'P105' -> 'concurrency'``)."""
    return _CATEGORIES.get(rule[:1], "other") if rule else "other"


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the ordering."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # render as the bare name, not Severity.X
        return self.name


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem, attributable to a rule and a location."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str = ""
    pid: int = 0   # originating process (0 = not process-specific)

    def render(self) -> str:
        text = f"{self.severity.name:<7} {self.rule} {self.location}: " \
               f"{self.message}"
        if self.pid:
            text += f"  [pid {self.pid}]"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self, *, version: int = 2) -> dict:
        d = {
            "rule": self.rule,
            "severity": self.severity.name,
            "location": self.location,
            "message": self.message,
        }
        if self.hint:
            d["hint"] = self.hint
        if version >= 2:
            d["category"] = category_of(self.rule)
            if self.pid:
                d["pid"] = self.pid
        return d


class FindingsReport:
    """An ordered collection of findings with the shared exit-code model."""

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self.findings: list[Finding] = list(findings)
        #: run metadata surfaced in the v2 JSON report (families run,
        #: elapsed time, template count — whatever the runner records)
        self.meta: dict = {}

    # ------------------------------------------------------------ building

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "FindingsReport") -> "FindingsReport":
        self.findings.extend(other.findings)
        return self

    # ----------------------------------------------------------- filtering

    def ignoring(self, rules: Iterable[str]) -> "FindingsReport":
        """Copy of this report without findings from the given rule ids."""
        drop = set(rules)
        out = FindingsReport(f for f in self.findings
                             if f.rule not in drop)
        out.meta = dict(self.meta)
        return out

    def by_severity(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def max_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    def counts(self) -> dict[str, int]:
        """``{"ERROR": n, "WARNING": m, "INFO": k}`` (zero entries kept)."""
        c = Counter(f.severity.name for f in self.findings)
        return {s.name: c.get(s.name, 0) for s in reversed(Severity)}

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    # ------------------------------------------------------------- output

    def exit_code(self) -> int:
        """The CI contract: 1 iff any ERROR finding, else 0."""
        return 1 if self.errors else 0

    def summary(self) -> str:
        if not self.findings:
            return "clean: no findings"
        parts = [f"{n} {name}" for name, n in self.counts().items() if n]
        return f"{len(self.findings)} findings ({', '.join(parts)})"

    def render_text(self) -> str:
        """Sorted most-severe-first, stable within a severity."""
        ordered = sorted(self.findings,
                         key=lambda f: (-int(f.severity), f.rule,
                                        f.location))
        lines = [f.render() for f in ordered]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self, *, version: int = 2) -> dict:
        d = {
            "schema": REPORT_SCHEMA if version >= 2 else REPORT_SCHEMA_V1,
            "counts": self.counts(),
            "exit_code": self.exit_code(),
            "findings": [f.to_dict(version=version)
                         for f in self.findings],
        }
        if version >= 2 and self.meta:
            d["meta"] = dict(self.meta)
        return d

    def to_json(self, indent: int | None = 2, *, version: int = 2) -> str:
        return json.dumps(self.to_dict(version=version), indent=indent)
