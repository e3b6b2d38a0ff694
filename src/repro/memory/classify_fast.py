"""The classification registry.

One classifier: :func:`repro.memory.classify.classify_trace`, whose cache
walk runs compiled (``classify.c``) with its dict walk as specification
and fallback. It stays behind a name because profilers wrap the entries
of :data:`CLASSIFIERS` in place, and :meth:`repro.soc.FpgaSdv.classify`
looks the entry up at call time so such a wrapper sees every call.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.config import SdvConfig
from repro.memory.classify import ClassifiedTrace, classify_trace
from repro.trace.events import TraceBuffer

CLASSIFIERS: dict[str, Callable[[TraceBuffer, SdvConfig], ClassifiedTrace]]
CLASSIFIERS = {"walk": classify_trace}

#: the entry :class:`repro.soc.FpgaSdv` classifies with
DEFAULT_CLASSIFIER = "walk"
