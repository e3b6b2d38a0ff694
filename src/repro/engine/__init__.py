"""Timing engines.

Two runtime engines consume a :class:`repro.memory.classify.ClassifiedTrace`:

* :func:`repro.engine.batch_sim.simulate_batch` (``engine="batch"``) — the
  analytic engine that draws every figure: it lowers the classified trace
  once (:mod:`repro.engine.lower`) into flat knob-independent arrays, then
  times **all** sweep points in a single compiled walk with the knob axis
  as the inner loop (a NumPy walk without a C compiler).
* :func:`repro.engine.event_fast.simulate_events_fast` (``engine="event"``)
  — the discrete-event engine: a compiled kernel (``event.c``) of
  per-instruction state machines stepped off an integer-cycle calendar
  queue, at line-request granularity.

Each has a specification it is pinned to bit for bit by the tests; the
specifications cannot be picked at run time, but ``event`` runs its own
where no C compiler can build ``event.c``:

* :func:`repro.engine.fast_sim.simulate_fast` — the per-record analytic
  walk of the machine (scalar core + decoupled VPU + throttled memory),
  one config per call; ``batch`` returns its cycles at every point.
* :func:`repro.engine.event_sim.simulate_events` — the coroutine
  discrete-event model, the readable specification of ``event``.

All share the cost models in :mod:`core_model` and :mod:`vpu_model` and the
two event implementations additionally share the pre-quantized flat
:class:`repro.engine.event_common.EventPlan`, so a disagreement between
them localizes to queueing/overlap behaviour, which is exactly what the
cross-validation tests probe. See ``docs/engines.md`` for the full map.

``ENGINES`` maps the runtime engine names to single-trace entry points
(each takes one classified trace, returns one :class:`CycleReport`);
``FpgaSdv``, the sweeps and the CLI accept exactly its names, and
:func:`check_engine` rejects any other.
"""

from repro.errors import ConfigError
from repro.engine.results import CycleReport
from repro.engine.fast_sim import simulate_fast
from repro.engine.event_fast import simulate_events_fast
from repro.engine.event_sim import simulate_events
from repro.engine.lower import LoweredTrace, lower_trace
from repro.engine.batch_sim import (
    batch_cycles,
    simulate_batch,
    simulate_batch_one,
)

#: name -> ClassifiedTrace -> CycleReport registry (one entry per runtime
#: engine).
ENGINES = {
    "batch": simulate_batch_one,
    "event": simulate_events_fast,
}


def check_engine(name: str) -> None:
    """Raise :class:`ConfigError` unless ``name`` is a runtime engine."""
    if name not in ENGINES:
        raise ConfigError(
            f"unknown engine '{name}' (choose from {sorted(ENGINES)})")


__all__ = [
    "CycleReport",
    "ENGINES",
    "LoweredTrace",
    "batch_cycles",
    "check_engine",
    "lower_trace",
    "simulate_batch",
    "simulate_batch_one",
    "simulate_events",
    "simulate_events_fast",
    "simulate_fast",
]
