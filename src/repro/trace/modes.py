"""Process-wide trace-generation mode toggle.

Two generation paths produce byte-identical record streams:

* **the loops** — the kernels' per-iteration code calls the ISA contexts,
  which write each record into the buffer's columns. This is the
  specification the templated emitters are pinned to; it runs when
  templating is off.
* **templated** — strip-mined kernel loops record one iteration through
  :class:`repro.trace.template.TraceTemplate` and replicate it vectorized
  (the default).

Both must satisfy the one statement of the trace format,
:meth:`repro.trace.events.TraceColumns.problems`. The benchmarks and the
equality-grid tests flip this switch to compare the paths; everything
else should leave it at the default.
"""

from __future__ import annotations

from contextlib import contextmanager

_TEMPLATING = True


def set_templating(enabled: bool) -> None:
    global _TEMPLATING
    _TEMPLATING = bool(enabled)


def templating_enabled() -> bool:
    return _TEMPLATING


@contextmanager
def templating(enabled: bool = True):
    prev = _TEMPLATING
    set_templating(enabled)
    try:
        yield
    finally:
        set_templating(prev)
