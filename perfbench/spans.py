"""In-memory span recording around the public entry points of each layer.

The benchmark measures the ``repro`` package from outside: :func:`traced`
replaces each layer's entry point *at the name its callers resolve* (a
module attribute, a registry-dict entry, a class attribute or a field of a
registered :class:`~repro.kernels.base.KernelSpec`) with a wrapper that
records one span per call, and puts every original back on exit. Nothing
under ``src/`` is edited.

A span is ``[layer, name, start, end, parent, phase, attrs]``: ``parent``
indexes the enclosing span (``-1`` at the root) and ``phase`` says which
part of the run it belongs to (``setup``, ``iteration<i>`` or ``checks``).
Spans stay in memory; :mod:`run` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

#: the layers, named after the modules they wrap, in pipeline order
LAYERS = (
    "workloads",           # KernelSpec.prepare
    "trace",               # kernel emitters on the isa contexts + Session.seal
    "kernels",             # KernelSpec.reference / KernelSpec.check
    "memory",              # the classifiers FpgaSdv.classify dispatches to
    "engine.lower",        # lower_trace, as FpgaSdv resolves it
    "engine.batch_sim",    # batch_cycles / simulate_batch, as FpgaSdv resolves them
    "engine.event_fast",   # ENGINES["event"]
    "core.report",         # the render_* functions, render_report, figures
    "core.sweeps",         # run_suite, the sweeps, run_implementation
)

LAYER, NAME, START, END, PARENT, PHASE, ATTRS = range(7)


class Tracer:
    """Span recorder: a flat list of spans plus the open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"

    def _open(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [layer, name, time.perf_counter(), 0.0, parent, self.phase,
               None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span around the benchmark's own code (the phase roots)."""
        rec = self._open(layer, name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, layer: str, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, out)`` may
        attach counts (records, knob points, impl key) to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, out)
            return out

        return wrapper


# ----------------------------------------------------------------- patching

def _records_of_trace(args, out):
    return {"records": len(args[0])}


def _records_of_classified(args, out):
    return {"records": int(args[0].rows.shape[0])}


def _walk_attrs(args, out):
    return {"records": int(args[0].n), "k": len(args[1])}


def _seal_attrs(args, out):
    return {"records": len(out)}


def _emitter_attrs(kernel: str, variant: str):
    def attrs(args, out):
        session = args[0]
        impl = ("scalar" if variant == "scalar"
                else f"vl{session.vector.max_vl}")
        return {"impl": (kernel, impl)}
    return attrs


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    import repro.core.report as report_mod
    import repro.core.suite as suite_mod
    import repro.core.sweeps as sweeps_mod
    import repro.engine as engine_mod
    import repro.kernels as kernels_mod
    import repro.memory.classify_fast as classify_mod
    import repro.soc.sdv as sdv_mod

    w = tracer.wrap
    saved: list[tuple] = []

    def patch(obj, key, layer, attrs=None):
        is_dict = isinstance(obj, dict)
        orig = obj[key] if is_dict else getattr(obj, key)
        saved.append((obj, key, orig, is_dict))
        new = w(layer, key, orig, attrs)
        if is_dict:
            obj[key] = new
        else:
            setattr(obj, key, new)

    try:
        # registered kernels: callers resolve prepare/emitters/reference/
        # check through the spec held in the KERNELS registry
        for kname, spec in list(kernels_mod.KERNELS.items()):
            saved.append((kernels_mod.KERNELS, kname, spec, True))
            kernels_mod.KERNELS[kname] = dataclasses.replace(
                spec,
                prepare=w("workloads", f"{kname}.prepare", spec.prepare),
                scalar=w("trace", f"{kname}.scalar", spec.scalar,
                         _emitter_attrs(kname, "scalar")),
                vector=w("trace", f"{kname}.vector", spec.vector,
                         _emitter_attrs(kname, "vector")),
                reference=w("kernels", f"{kname}.reference",
                            spec.reference),
                check=w("kernels", f"{kname}.check", spec.check),
            )
        patch(sdv_mod.Session, "seal", "trace", _seal_attrs)
        for cname in list(classify_mod.CLASSIFIERS):
            patch(classify_mod.CLASSIFIERS, cname, "memory",
                  _records_of_trace)
        patch(sdv_mod, "lower_trace", "engine.lower", _records_of_classified)
        patch(sdv_mod, "batch_cycles", "engine.batch_sim", _walk_attrs)
        patch(sdv_mod, "simulate_batch", "engine.batch_sim", _walk_attrs)
        patch(engine_mod.ENGINES, "event", "engine.event_fast",
              _records_of_classified)
        for mod in (report_mod, suite_mod):
            for fname in ("render_figure3", "render_figure4",
                          "render_figure5", "render_headline"):
                patch(mod, fname, "core.report")
        for fname in ("render_report", "headline_numbers",
                      "plateau_bandwidth"):
            patch(suite_mod, fname, "core.report")
        for fname in ("run_suite", "latency_sweep", "bandwidth_sweep",
                      "run_implementation"):
            patch(suite_mod, fname, "core.sweeps")
        # what the sweeps call internally and the des-sharded iteration calls
        for fname in ("latency_sweep", "run_implementation"):
            patch(sweeps_mod, fname, "core.sweeps")
        yield tracer
    finally:
        for obj, key, orig, is_dict in reversed(saved):
            if is_dict:
                obj[key] = orig
            else:
                setattr(obj, key, orig)


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self_times(spans: list[list], phases=None) -> dict[str, float]:
    """Layer -> summed self time over the spans of the given phases."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        if phases is None or s[PHASE] in phases:
            out[s[LAYER]] += st
    return dict(out)


def layer_counts(spans: list[list], phases=None) -> dict:
    """Work counts per layer over the spans of the given phases."""
    c: dict = defaultdict(int)
    impls = set()
    for s in spans:
        if phases is not None and s[PHASE] not in phases:
            continue
        layer, attrs = s[LAYER], s[ATTRS] or {}
        if layer == "trace" and "impl" in attrs:
            c["gen_calls"] += 1
            impls.add(attrs["impl"])
        elif layer == "trace":
            c["seal_records"] += attrs.get("records", 0)
        elif layer == "memory":
            c["classify_calls"] += 1
            c["classify_records"] += attrs["records"]
        elif layer == "engine.lower":
            c["lower_calls"] += 1
        elif layer == "engine.batch_sim":
            c["walks"] += 1
            c["walk_k"] += attrs["k"]
            c["walk_record_points"] += attrs["records"] * attrs["k"]
        elif layer == "engine.event_fast":
            c["event_calls"] += 1
            c["event_record_points"] += attrs["records"]
    c["distinct_impls"] = len(impls)
    return dict(c)
