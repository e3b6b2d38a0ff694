"""Per-record machine-activity timeline recorded by the timing engines.

Where :mod:`repro.obs.record` spans time harness stages in wall clock, the
timeline records *simulated* machine activity: which unit (scalar core,
arithmetic pipe, vector memory unit) was busy with which trace record over
which cycle interval. The event engine records its actual schedule; the
fast engine records its analytical start/completion times — comparing the
two dumps side by side in Perfetto is itself a debugging instrument.

Engines take an optional ``timeline=TimelineRecorder()`` argument and pay
nothing when it is ``None`` (the default on every sweep path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: canonical track names used by the engines
TRACK_SCALAR = "scalar-core"
TRACK_VARITH = "vpu-arith"
TRACK_VMEM = "vpu-mem"


@dataclass
class TimelineEvent:
    """One busy interval of one machine unit, in simulated cycles."""

    track: str
    name: str
    start: float
    dur: float
    args: dict = field(default_factory=dict)


@dataclass
class TimelineRecorder:
    """Append-only list of machine-activity intervals."""

    engine: str = ""
    events: list[TimelineEvent] = field(default_factory=list)

    def add(self, track: str, name: str, start: float, end: float,
            **args) -> None:
        self.events.append(TimelineEvent(
            track=track, name=name, start=float(start),
            dur=max(0.0, float(end) - float(start)), args=args,
        ))

    def instant(self, track: str, name: str, at: float, **args) -> None:
        """Zero-duration marker (barriers)."""
        self.events.append(TimelineEvent(
            track=track, name=name, start=float(at), dur=0.0, args=args,
        ))

    @property
    def end_cycle(self) -> float:
        return max((e.start + e.dur for e in self.events), default=0.0)
