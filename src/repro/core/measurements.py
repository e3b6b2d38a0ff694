"""Measurement containers for the study harness."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Measurement:
    """One timed run of one implementation at one knob setting."""

    kernel: str
    impl: str                 # "scalar" or "vl<N>"
    extra_latency: int
    bandwidth_bpc: int        # configured limit in bytes/cycle
    cycles: float
    #: optional CycleAttribution (repro.obs.attribution): buckets summing
    #: bit-exactly to ``cycles``; filled by attribution-enabled sweeps.
    attribution: object | None = None

    @property
    def is_scalar(self) -> bool:
        return self.impl == "scalar"

    @property
    def vl(self) -> int | None:
        """Vector length of the implementation (None for scalar)."""
        if self.is_scalar:
            return None
        return int(self.impl[2:])


@dataclass
class SweepResult:
    """All measurements of one sweep for one kernel."""

    kernel: str
    axis: str                       # "latency" or "bandwidth"
    points: list[int]               # the swept values, in order
    impls: list[str]                # column order: "scalar", "vl8", ...
    measurements: list[Measurement] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, m: Measurement) -> None:
        self.measurements.append(m)

    def cycles(self, impl: str, point: int) -> float:
        """Measured cycles of ``impl`` at sweep value ``point``."""
        for m in self.measurements:
            key = m.extra_latency if self.axis == "latency" else m.bandwidth_bpc
            if m.impl == impl and key == point:
                return m.cycles
        raise KeyError(f"no measurement for {self.kernel}/{impl} @ {point}")

    def series(self, impl: str) -> list[float]:
        """Cycles of one implementation across all sweep points, in order."""
        return [self.cycles(impl, p) for p in self.points]

    def normalized_series(self, impl: str, *, baseline_point: int
                          ) -> list[float]:
        """Series divided by the implementation's own value at one point
        (Figure 4 normalizes to 0 extra latency, Figure 5 to 1 B/cycle)."""
        base = self.cycles(impl, baseline_point)
        return [c / base for c in self.series(impl)]

    def to_csv(self) -> str:
        """CSV with one row per sweep point, one column per implementation."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.axis] + list(self.impls))
        for p in self.points:
            writer.writerow([p] + [f"{self.cycles(i, p):.1f}"
                                   for i in self.impls])
        return buf.getvalue()

    def to_json(self) -> str:
        """Schema-stable JSON: kernel/axis/points + per-impl series."""
        return json.dumps({
            "schema": "repro.sweep/1",
            "kernel": self.kernel,
            "axis": self.axis,
            "points": list(self.points),
            "impls": list(self.impls),
            "cycles": {impl: self.series(impl) for impl in self.impls},
            "meta": self.meta,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_json` output."""
        data = json.loads(text)
        if data.get("schema") != "repro.sweep/1":
            raise ValueError(
                f"unsupported sweep schema {data.get('schema')!r}"
            )
        result = cls(kernel=data["kernel"], axis=data["axis"],
                     points=list(data["points"]),
                     impls=list(data["impls"]), meta=data.get("meta", {}))
        for impl in result.impls:
            for point, cycles in zip(result.points, data["cycles"][impl]):
                result.add(Measurement(
                    kernel=result.kernel, impl=impl,
                    extra_latency=point if result.axis == "latency" else 0,
                    bandwidth_bpc=point if result.axis == "bandwidth" else 64,
                    cycles=float(cycles),
                ))
        return result
