"""The paper's three sweeps.

Efficiency structure (what makes paper-scale sweeps tractable):

* the unit of work is one (kernel, implementation) task, and one task
  serves every knob grid asked of it: the Latency Controller and Bandwidth
  Limiter knobs do not change what the program does, only how long it
  takes (exactly like the FPGA), so the task generates and verifies the
  trace **once** — or loads it from the on-disk cache (``trace_cache=``),
  skipping functional re-execution entirely;
* the cache classification and lowering of that trace are computed **once**
  (both are knob-independent) and cached on the trace; a trace-cache
  entry stores the classification with the trace, so a reload skips it;
* the points of all the task's grids are then timed in **one**
  ``time_many`` call (``attribute_many`` when attributions are asked
  for) — on the batch engine one vectorized walk
  (:mod:`repro.engine.batch_sim`) over the concatenated knob axis, K=14
  for the Figure 3 and Figure 5 grids together — and the cycles are split
  back into one :class:`SweepResult` per grid. :func:`figure_sweeps` is
  that two-grid call; :func:`latency_sweep` and :func:`bandwidth_sweep`
  are one-grid calls of the same path;
* the tasks fan out across worker processes (``jobs=N``,
  :mod:`repro.core.parallel`);
* the reference result used for verification is computed once per
  (kernel, workload), not once per implementation.

The default sweep axes follow Section 4: extra latency 0..1024 cycles,
bandwidth 1..64 B/cycle in powers of two, VL in {8,...,256} plus scalar.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import pickle
import sys
import time
import zipfile
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro import native
from repro.config import SdvConfig
from repro.core.analysis import Characterization, characterize
from repro.core.measurements import Measurement, SweepResult
from repro.core.parallel import resolve_jobs, run_tasks
from repro.engine import check_engine
from repro.engine.batch_sim import walk_backend
from repro.engine.results import CycleReport
from repro.errors import ConfigError, KernelError, TraceError
from repro.kernels.base import KernelSpec
from repro.memory.classify import classify_backend
from repro.obs.attribution import attribute_many
from repro.obs.record import get_recorder, recording, set_recording
from repro.soc.sdv import FpgaSdv
from repro.trace.events import TraceBuffer
from repro.trace.serialize import FORMAT_VERSION as TRACE_FORMAT_VERSION
from repro.trace.serialize import load_classified, load_trace, save_trace

#: Figure 3/4 x-axis: extra latency cycles added by the Latency Controller.
DEFAULT_LATENCIES: tuple[int, ...] = (0, 32, 64, 128, 256, 512, 1024)

#: Figure 5 x-axis: Bandwidth Limiter setting in bytes/cycle.
DEFAULT_BANDWIDTHS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: vector lengths evaluated in the paper (doubles per register).
DEFAULT_VLS: tuple[int, ...] = (8, 16, 32, 64, 128, 256)

#: engine used to re-time sweep points unless the caller overrides it.
DEFAULT_SWEEP_ENGINE = "batch"


def impl_label(vl: int | None) -> str:
    """Column label: None -> 'scalar', 128 -> 'vl128'."""
    return "scalar" if vl is None else f"vl{vl}"


def workload_fingerprint(workload) -> str:
    """Stable content hash of a prepared workload (trace-cache key part).

    Workloads are plain data (NumPy arrays, CSR matrices, graphs), so
    their pickle is deterministic for a given prepare(scale, seed).
    """
    return hashlib.sha256(pickle.dumps(workload, protocol=4)).hexdigest()[:16]


#: the parts of the ``repro`` package that time, orchestrate, observe or
#: check traces; they never shape what a trace-cache entry holds, so an
#: edit there keeps every entry
_UNHASHED = ("engine", "core", "obs", "lint", "cli.py")

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _read_source(path: Path) -> bytes:
    """The bytes of one file the cache key hashes."""
    return path.read_bytes()


@functools.cache
def _package_digest() -> str:
    """Hash of every ``.py`` and ``.c`` file of the ``repro`` package
    outside :data:`_UNHASHED`, read once per process."""
    h = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*")):
        rel = path.relative_to(_PACKAGE_ROOT)
        if path.suffix in (".py", ".c") and rel.parts[0] not in _UNHASHED:
            h.update(rel.as_posix().encode() + b"\0"
                     + _read_source(path) + b"\0")
    return h.hexdigest()


def kernel_fingerprint(spec: KernelSpec) -> str:
    """Content hash of the code that makes a trace-cache entry.

    An entry holds a recorded trace and its classification, and any
    module of the ``repro`` package may shape them (the emitters, the ISA
    contexts, the trace machinery, the memory image, the classifier, the
    workloads) except those that only time, orchestrate, observe or check
    traces (:data:`_UNHASHED`). The key therefore hashes every other
    ``.py`` and ``.c`` file of the package: an edit there misses the
    cache instead of serving a stale entry, while an edit to an engine,
    the harness or observability keeps it (record once, re-time later).
    An emitter defined outside ``repro`` (an ad-hoc stand-in) adds its
    own module; a callable without retrievable source (an ad-hoc lambda,
    a C extension) adds its repr, which at least separates distinct
    functions.
    """
    parts = [spec.name, _package_digest()]
    for fn in (spec.scalar, spec.vector):
        mod_name = getattr(fn, "__module__", None)
        if mod_name is None:
            try:
                parts.append(inspect.getsource(fn))
            except (OSError, TypeError):
                parts.append(repr(fn))
        elif not mod_name.startswith("repro."):
            try:
                parts.append(inspect.getsource(
                    importlib.import_module(mod_name)))
            except (ImportError, OSError, TypeError):
                parts.append(f"<no-source:{mod_name}>")
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:12]


def trace_cache_path(cache_dir: str | os.PathLike, spec_name: str,
                     workload, vl: int | None, sdv: FpgaSdv,
                     spec: KernelSpec | None = None,
                     workload_fp: str | None = None) -> Path:
    """Cache file for one (kernel, workload, max_vl, geometry) trace and
    its classification.

    The name carries everything that determines the recorded trace and
    its classification: the kernel + workload + VL + SoC geometry (the
    cache shape is all the classifier reads of the config), the on-disk
    trace schema version (``serialize.FORMAT_VERSION``), and — when
    ``spec`` is given — :func:`kernel_fingerprint`, so entries from an
    older schema, an edited kernel or an edited classifier are never
    loaded. ``workload_fp``
    is :func:`workload_fingerprint` hoisted by the caller (the sweep
    parent computes it once per kernel instead of pickling the workload
    in every task).
    """
    src = kernel_fingerprint(spec) if spec is not None else "nosrc"
    geom = hashlib.sha256(
        repr((sdv.geometry_key(), sdv.config.memory_bytes,
              None if vl is None else sdv.max_vl)).encode()
    ).hexdigest()[:12]
    wfp = workload_fp if workload_fp is not None \
        else workload_fingerprint(workload)
    name = (f"{spec_name}-{impl_label(vl)}-"
            f"{wfp}-{geom}-"
            f"t{TRACE_FORMAT_VERSION}-{src}.npz")
    return Path(cache_dir) / name


#: what loading a damaged or foreign ``.npz`` raises: a truncated zip, a
#: corrupt member, a missing member, or a payload that does not fit
_UNREADABLE_ENTRY = (zipfile.BadZipFile, zlib.error, OSError, ValueError,
                     KeyError, TraceError)


def run_implementation(
    spec: KernelSpec,
    workload,
    vl: int | None,
    *,
    config: SdvConfig | None = None,
    verify: bool = True,
    reference=None,
    trace_cache: str | os.PathLike | None = None,
    workload_fp: str | None = None,
) -> tuple[FpgaSdv, TraceBuffer]:
    """Build one implementation's trace on a fresh SDV.

    Returns the SDV (holding the workload's memory image configuration) and
    the sealed trace, ready to be re-timed at many knob settings.

    ``reference`` lets callers hoist ``spec.reference(workload)`` out of a
    per-implementation loop (it is identical for every VL); when omitted
    and ``verify`` is set, it is computed here. With ``trace_cache`` set, a
    previously recorded trace and its classification are loaded from one
    cache entry instead of re-executing the kernel (skipping verification
    — the cached trace was verified when recorded), and fresh traces are
    saved back to the cache with their classification. An entry that
    cannot be loaded counts as a miss and is rewritten. ``workload_fp`` is
    the hoisted :func:`workload_fingerprint` (avoids re-pickling the
    workload per implementation).
    """
    sdv = FpgaSdv(config)
    if vl is not None:
        sdv.configure(max_vl=vl)

    cache_path = None
    if trace_cache is not None:
        root = Path(trace_cache)
        if root.exists() and not root.is_dir():
            raise TraceError(
                f"trace cache path '{root}' exists and is not a directory"
            )
        cache_path = trace_cache_path(root, spec.name, workload, vl, sdv,
                                      spec=spec, workload_fp=workload_fp)
        rec = get_recorder()
        if cache_path.exists():
            try:
                trace = load_trace(cache_path)
                ct = load_classified(cache_path, trace, sdv.config)
            except _UNREADABLE_ENTRY as exc:
                rec.event("trace_cache.unreadable", level="warn",
                          path=str(cache_path), error=repr(exc))
            else:
                rec.count("trace_cache.hits")
                sdv.seed_classification(trace, ct)
                return sdv, trace
        rec.count("trace_cache.misses")

    session = sdv.session()
    builder = spec.vector if vl is not None else spec.scalar
    output = builder(session, workload)
    trace = session.seal()
    if verify:
        ref = spec.reference(workload) if reference is None else reference
        if not spec.check(output, ref):
            raise KernelError(
                f"{spec.name}/{impl_label(vl)} produced a wrong result"
            )
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # every consumer classifies next, so this is never wasted work
        save_trace(trace, cache_path, classified=sdv.classify(trace))
    return sdv, trace


def _impls(vls: Sequence[int], include_scalar: bool) -> list[int | None]:
    out: list[int | None] = [None] if include_scalar else []
    out.extend(vls)
    return out


def _sweep_configs(base: SdvConfig, axis: str,
                   points: Sequence[int]) -> list[SdvConfig]:
    if axis == "latency":
        return [base.with_extra_latency(p) for p in points]
    return [base.with_bandwidth(p) for p in points]


#: one sweep grid: a knob axis ("latency" or "bandwidth") and its points
Grid = tuple[str, list[int]]


def _grid_name(grids: Sequence[Grid]) -> str:
    """Span/log name of a sweep: its axes joined, e.g.
    ``latency+bandwidth``."""
    return "+".join(axis for axis, _ in grids)


@dataclass
class _ImplOutcome:
    """Everything one (kernel, implementation) task ships back to the
    parent sweep: measurements (one list per grid), the optional roofline
    placement, plus what the task recorded (plain-data records, empty
    while the parent is not recording)."""

    measurements: list[list[Measurement]]
    roofline: Characterization | None = None
    pid: int = 0
    wall_s: float = 0.0
    records: list[dict] = field(default_factory=list)


def _resolve_spec(spec_or_name) -> KernelSpec:
    """Registry kernels travel to workers by name; resolve either form."""
    if isinstance(spec_or_name, str):
        from repro.kernels import KERNELS  # registry lookup in the worker

        return KERNELS[spec_or_name]
    return spec_or_name


def _time_grids(sdv: FpgaSdv, trace: TraceBuffer, kernel: str, label: str,
                grids: Sequence[Grid], engine: str, attributions: bool,
                roofline: bool
                ) -> tuple[list[list[Measurement]], Characterization | None]:
    """Time one trace at every point of every grid in one timing call.

    The grids' configs are concatenated, so ``batch`` times them all in
    one walk; the rows are split back into one list per grid. With
    ``attributions`` set, each row is attributed by the engine that timed
    it. With ``roofline`` set, the trace's roofline placement at the
    SDV's own knobs is also returned, its cycles taken from the grid
    point timed there.
    """
    base = sdv.config
    base_lat = sdv.extra_latency
    base_bpc = int(sdv.bandwidth_bpc)
    keys = [(axis, p) for axis, points in grids for p in points]
    configs = [cfg for axis, points in grids
               for cfg in _sweep_configs(base, axis, points)]

    def measurement(key, cycles, att=None):
        axis, point = key
        return Measurement(
            kernel=kernel, impl=label,
            extra_latency=point if axis == "latency" else base_lat,
            bandwidth_bpc=point if axis == "bandwidth" else base_bpc,
            cycles=cycles, attribution=att,
        )

    # each stage looks its cache up once and hands the result on, so the
    # classify/lower cache hit counts still mean reuse across figures
    rec = get_recorder()
    with rec.span(f"re-time:{kernel}:{label}", kernel=kernel, impl=label,
                  engine=engine, points=len(configs),
                  attributions=attributions):
        with rec.span(f"classify:{kernel}:{label}", kernel=kernel,
                      impl=label) as classify_attrs:
            ct = sdv.classify(trace)
            # "python" here is the fallback a missing compiler forces
            classify_attrs["walk"] = classify_backend()
        with rec.span(f"lower:{kernel}:{label}", kernel=kernel, impl=label):
            lowered = sdv.lower(trace, classified=ct)
        with rec.span(f"walk:{kernel}:{label}", kernel=kernel, impl=label,
                      engine=engine, points=len(configs)) as walk_attrs:
            if attributions:
                # the ladder's L0 rung *is* the sweep cycle count,
                # bit-for-bit, so the rows come from the attributions
                atts = attribute_many(ct, configs, engine=engine,
                                      lowered=lowered)
                rows = [measurement(k, att.total, att)
                        for k, att in zip(keys, atts)]
            else:
                cycles = sdv.time_many(trace, configs, engine=engine,
                                       reports=False, lowered=lowered)
                rows = [measurement(k, float(c))
                        for k, c in zip(keys, cycles)]
            if engine == "batch":
                # "numpy" here is the fallback a missing compiler forces
                walk_attrs["walk"] = walk_backend()

    placement = None
    if roofline:
        if base in configs:
            cycles_at_base = rows[configs.index(base)].cycles
        else:  # no grid point sits at the SDV's own knobs
            cycles_at_base = sdv.time(trace, engine=engine).cycles
        placement = characterize(
            ct, CycleReport(cycles=cycles_at_base, engine=engine),
            kernel=kernel, impl=label)

    per_grid, start = [], 0
    for _axis, points in grids:
        per_grid.append(rows[start:start + len(points)])
        start += len(points)
    return per_grid, placement


def _time_one_impl(spec: KernelSpec, workload, vl: int | None,
                   grids: Sequence[Grid], config: SdvConfig | None,
                   verify: bool, reference, engine: str,
                   trace_cache, attributions: bool = False,
                   workload_fp: str | None = None,
                   roofline: bool = False) -> _ImplOutcome:
    """Generate + time one implementation across every point of every
    grid."""
    t_begin = time.perf_counter()
    rec = get_recorder()
    label = impl_label(vl)
    n_points = sum(len(points) for _, points in grids)
    rec.event("impl.start", kernel=spec.name, impl=label,
              axis=_grid_name(grids), points=n_points, engine=engine)

    with rec.span(f"trace-gen:{spec.name}:{label}", kernel=spec.name,
                  impl=label):
        t0 = time.perf_counter()
        sdv, trace = run_implementation(spec, workload, vl, config=config,
                                        verify=verify, reference=reference,
                                        trace_cache=trace_cache,
                                        workload_fp=workload_fp)
        rec.event("impl.trace_ready", kernel=spec.name, impl=label,
                  records=len(trace),
                  wall_s=round(time.perf_counter() - t0, 6))

    measurements, placement = _time_grids(
        sdv, trace, spec.name, label, grids, engine, attributions,
        roofline)

    rec.count("sweep.impls_timed")
    rec.count("sweep.points_timed", n_points)
    wall_s = time.perf_counter() - t_begin
    rec.event("impl.done", kernel=spec.name, impl=label,
              measurements=n_points, wall_s=round(wall_s, 6))
    return _ImplOutcome(measurements=measurements, roofline=placement,
                        pid=os.getpid(), wall_s=wall_s)


def _impl_task(args) -> _ImplOutcome:
    """Module-level worker: one (kernel, implementation) per process task.

    While the parent records, the task records into a fresh recorder and
    ships the records back in the outcome — in a pool worker and in
    process alike, so the parent merges both the same way."""
    spec_or_name, *task, record = args
    if not record:
        # a forked pool worker inherits the switch of the parent it was
        # forked from, which may have been recording then
        set_recording(False)
        return _time_one_impl(_resolve_spec(spec_or_name), *task)
    with recording() as rec:
        outcome = _time_one_impl(_resolve_spec(spec_or_name), *task)
    outcome.records = rec.records
    return outcome


def _validate_grid(axis: str, points: Sequence[int], vls: Sequence[int],
                   config: SdvConfig | None) -> None:
    """Fail fast on an illegal sweep grid, *before* trace generation.

    Trace generation is the expensive half of a sweep; an illegal knob
    value must not surface as a mid-sweep engine error after minutes of
    emitting. Reuses the ``repro.lint`` config pass so the CLI linter and
    the harness agree on legality.
    """
    from repro.lint.config_rules import check_sweep
    from repro.lint.findings import Severity

    errors = [f for f in check_sweep(axis, points, vls, config=config)
              if f.severity >= Severity.ERROR]
    if errors:
        lines = "; ".join(f"{f.rule} {f.location}: {f.message}"
                          for f in errors)
        raise ConfigError(f"illegal {axis} sweep grid: {lines}")


def _sweep(spec: KernelSpec, workload, grids: list[Grid],
           vls: Sequence[int], include_scalar: bool,
           config: SdvConfig | None, verify: bool,
           engine: str, jobs: int, trace_cache,
           attributions: bool = False, roofline: bool = False
           ) -> tuple[list[SweepResult], Characterization | None]:
    """Sweep every grid with one task per implementation.

    Returns one :class:`SweepResult` per grid, plus — with ``roofline``
    set — the longest VL's roofline placement at the default knobs.
    """
    check_engine(engine)  # before any trace is generated
    for axis, points in grids:
        _validate_grid(axis, points, vls, config)
    impls = _impls(vls, include_scalar)
    top_vl = max(vls) if roofline else None
    # hoisted per (kernel, workload): the reference and the workload
    # fingerprint are identical for every implementation
    reference = spec.reference(workload) if verify else None
    workload_fp = workload_fingerprint(workload)

    labels = [impl_label(v) for v in impls]
    results = [SweepResult(kernel=spec.name, axis=axis, points=points,
                           impls=list(labels))
               for axis, points in grids]
    placement = None
    name = _grid_name(grids)
    n_points = sum(len(points) for _, points in grids)
    rec = get_recorder()
    # registry kernels travel to workers by name (always picklable);
    # ad-hoc specs travel as themselves
    from repro.kernels import KERNELS

    payload = spec.name if KERNELS.get(spec.name) is spec else spec
    tasks = [
        (payload, workload, vl, grids, config, verify, reference,
         engine, trace_cache, attributions, workload_fp,
         top_vl is not None and vl == top_vl, rec.on)
        for vl in impls
    ]
    parallel = resolve_jobs(jobs) > 1
    if parallel:
        # build the compiled kernels here, before the pool forks: workers
        # inherit the loaded library instead of each building it
        native.library()
    done = 0

    def heartbeat(idx: int, outcome: _ImplOutcome) -> None:
        # per-worker progress while slower implementations are in flight
        nonlocal done
        done += 1
        rec.event("sweep.heartbeat", kernel=spec.name, axis=name,
                  impl=labels[idx], done=done, total=len(tasks),
                  worker_pid=outcome.pid, wall_s=round(outcome.wall_s, 3))
        if parallel:
            print(f"[sweep {spec.name}/{name}] {labels[idx]} done "
                  f"({done}/{len(tasks)}, worker pid {outcome.pid}, "
                  f"{outcome.wall_s:.1f}s)", file=sys.stderr)

    with rec.span(f"sweep:{spec.name}:{name}", kernel=spec.name,
                  axis=name, impls=len(tasks), points=n_points,
                  engine=engine, jobs=jobs):
        for outcome in run_tasks(_impl_task, tasks, jobs=jobs,
                                 on_result=heartbeat):
            rec.adopt(outcome.records)
            for result, rows in zip(results, outcome.measurements):
                result.measurements.extend(rows)
            if outcome.roofline is not None:
                placement = outcome.roofline
    rec.count("sweep.sweeps_run")
    return results, placement


def latency_sweep(
    spec: KernelSpec,
    workload,
    *,
    latencies: Iterable[int] = DEFAULT_LATENCIES,
    vls: Sequence[int] = DEFAULT_VLS,
    include_scalar: bool = True,
    config: SdvConfig | None = None,
    verify: bool = True,
    engine: str = DEFAULT_SWEEP_ENGINE,
    jobs: int = 1,
    trace_cache: str | os.PathLike | None = None,
    attributions: bool = False,
) -> SweepResult:
    """Section 4.1: execution time vs. extra memory latency.

    ``attributions=True`` additionally decomposes every sweep point's
    cycles into the :mod:`repro.obs.attribution` buckets (attached per
    measurement): on ``batch`` K + 3 more columns of the same walk, on
    ``event`` one DES run per distinct ladder rung.
    ``jobs > 1`` fans the implementations out across worker processes,
    one task each (see ``docs/parallelism.md``).
    """
    (result,), _ = _sweep(spec, workload, [("latency", list(latencies))],
                          vls, include_scalar, config, verify, engine, jobs,
                          trace_cache, attributions)
    return result


def bandwidth_sweep(
    spec: KernelSpec,
    workload,
    *,
    bandwidths: Iterable[int] = DEFAULT_BANDWIDTHS,
    vls: Sequence[int] = DEFAULT_VLS,
    include_scalar: bool = True,
    config: SdvConfig | None = None,
    verify: bool = True,
    engine: str = DEFAULT_SWEEP_ENGINE,
    jobs: int = 1,
    trace_cache: str | os.PathLike | None = None,
    attributions: bool = False,
) -> SweepResult:
    """Section 4.2: execution time vs. the Bandwidth Limiter setting."""
    (result,), _ = _sweep(spec, workload, [("bandwidth", list(bandwidths))],
                          vls, include_scalar, config, verify, engine, jobs,
                          trace_cache, attributions)
    return result


@dataclass
class FigureSweeps:
    """One kernel's Figure 3/4 and Figure 5 data from one pass over its
    traces."""

    latency: SweepResult
    bandwidth: SweepResult
    #: the longest VL's roofline placement at the default knobs
    roofline: Characterization


def figure_sweeps(
    spec: KernelSpec,
    workload,
    *,
    latencies: Iterable[int] = DEFAULT_LATENCIES,
    bandwidths: Iterable[int] = DEFAULT_BANDWIDTHS,
    vls: Sequence[int] = DEFAULT_VLS,
    verify: bool = True,
    engine: str = DEFAULT_SWEEP_ENGINE,
    jobs: int = 1,
    trace_cache: str | os.PathLike | None = None,
    attributions: bool = False,
) -> FigureSweeps:
    """Sections 4.1 and 4.2 together: the latency and the bandwidth sweep
    of one kernel (scalar plus every VL in ``vls``, default SDV config),
    one task per implementation.

    Each task generates, verifies, classifies and lowers its trace once
    and times both grids' points in one ``time_many`` call (one K=14 walk
    on ``batch`` for the default grids). The rows equal those of separate
    :func:`latency_sweep` and :func:`bandwidth_sweep` calls. The longest
    VL's task also characterizes its trace
    (:func:`repro.core.analysis.characterize`), with the cycles of its
    grid point at the default knobs.
    """
    (lat, bw), placement = _sweep(
        spec, workload,
        [("latency", list(latencies)), ("bandwidth", list(bandwidths))],
        vls, include_scalar=True, config=None, verify=verify,
        engine=engine, jobs=jobs, trace_cache=trace_cache,
        attributions=attributions, roofline=True)
    return FigureSweeps(latency=lat, bandwidth=bw, roofline=placement)


def vl_sweep(
    spec: KernelSpec,
    workload,
    *,
    vls: Sequence[int] = DEFAULT_VLS,
    config: SdvConfig | None = None,
    verify: bool = True,
    trace_cache: str | os.PathLike | None = None,
) -> dict[str, float]:
    """Execution time per implementation at the default knob settings
    (the zero-extra-latency, full-bandwidth column of Figures 3/4)."""
    out: dict[str, float] = {}
    reference = spec.reference(workload) if verify else None
    for vl in _impls(vls, include_scalar=True):
        sdv, trace = run_implementation(spec, workload, vl, config=config,
                                        verify=verify, reference=reference,
                                        trace_cache=trace_cache)
        out[impl_label(vl)] = sdv.time(trace).cycles
    return out
