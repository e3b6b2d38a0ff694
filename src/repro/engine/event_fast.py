"""The discrete-event engine (``engine="event"``): the compiled DES.

:func:`simulate_events_fast` passes the flat
:class:`~repro.engine.event_common.EventPlan` arrays of a classified trace
to the C kernel ``event.c`` (built by :mod:`repro.native`), then builds
the :class:`CycleReport`, the timeline and the ``event.*`` counters from
what the kernel returns. The kernel replays the schedule of the coroutine
specification (:func:`repro.engine.event_sim.simulate_events`) token for
token — same cycles, breakdown, component stats and timeline — on an
integer-cycle calendar queue; see ``event.c`` and ``docs/engines.md``.

With no C compiler, ``event`` runs that specification and labels its
report ``event``, as the batch and classification walks fall back to
theirs. The equality tests in ``tests/engine/test_event_fast.py`` pin
bit-identical reports, timelines and attribution ladders across the
kernel×VL×latency×bandwidth grid.
"""

from __future__ import annotations

import ctypes
import dataclasses

import numpy as np

from repro import native
from repro.engine import core_model, vpu_model
from repro.engine.event_common import EventPlan, event_plan
from repro.engine.event_sim import simulate_events
from repro.engine.lower import (
    LKIND_BARRIER,
    LKIND_CSR,
    LKIND_SCALAR,
    LKIND_VARITH,
    LKIND_VMEM,
)
from repro.engine.results import CycleReport
from repro.errors import EngineError
from repro.memory.bandwidth_limiter import BandwidthLimiter
from repro.memory.classify import ClassifiedTrace
from repro.memory.latency_controller import LatencyController
from repro.memory.noc import MeshNoc

_i64, _u8 = native.ndarray(np.int64), native.ndarray(np.uint8)
_out = native.ndarray(np.int64, writeable=True)
_I64 = ctypes.c_int64
_RUN_ARGTYPES = [
    _I64, _i64, _i64, _u8, _i64,               # n, kind, dep, sdest, req_off
    _i64, _i64, _i64, _i64, _i64, _i64,        # issue .. occ
    _u8, _i64, _i64,                           # level, bank, step
    ctypes.c_int32, ctypes.c_int32,            # chaining, ooo
    _I64, _I64, _I64, _I64, _I64, _i64, _i64,  # access .. lat_tab
    _I64, _I64, _I64, _I64, _I64,              # slots .. lat_extra
    _I64, _I64, _I64, _I64,                    # dispatch .. pipe depth
    _out, _out, _out, _out,                    # start, finish, order, stats
]

#: the plan's arrays in the kernel's argument order
_PLAN_ARRAYS = ("kind", "dep", "scalar_dest", "req_off", "issue",
                "gap_total", "mlp", "wb", "pf", "occ", "level", "bank",
                "step")
_U8_ARRAYS = {"scalar_dest", "level"}

#: event.c's stats[] slots, in order
_STATS = ("now", "wb_tail", "issue", "stall", "varith", "vmem",
          "noc_msgs", "noc_hops", "noc_lat", "bank_wait",
          "admitted", "throttle", "timestamps", "tokens", "max_drain",
          "max_occ", "spills", "slab", "finished")

_ERRORS = {1: "time went backwards",
           2: "the event kernel could not allocate its state"}


def _plan_arrays(plan: EventPlan, n_banks: int) -> list[np.ndarray]:
    """The plan's arrays in argument order; :class:`EngineError` for a
    plan the kernel would misread or index past (it does not check)."""
    arrays = [getattr(plan, name) for name in _PLAN_ARRAYS]
    for name, a in zip(_PLAN_ARRAYS, arrays):
        want = np.uint8 if name in _U8_ARRAYS else np.int64
        if a.dtype != want:
            raise EngineError(f"event plan array {name} is {a.dtype}, "
                              f"not {np.dtype(want)}")
    n, off = plan.n, plan.req_off
    per_record = (plan.kind, plan.dep, plan.scalar_dest, plan.issue,
                  plan.gap_total, plan.mlp, plan.wb, plan.pf, plan.occ)
    ok = (all(a.shape == (n,) for a in per_record)
          and off.shape == (n + 1,) and off[0] == 0
          and not (np.diff(off) < 0).any())
    if ok:
        L = int(off[-1])
        ok = (all(a.shape == (L,) for a in (plan.level, plan.bank,
                                              plan.step))
              and not ((plan.kind < LKIND_SCALAR) | (plan.kind > LKIND_CSR)
                       ).any()
              and not ((plan.dep < -1) | (plan.dep >= n)).any()
              and not ((plan.bank < 0) | (plan.bank >= n_banks)).any()
              and not (plan.mlp < 1).any())
    if not ok:
        raise EngineError("event plan indexes past its own arrays")
    return arrays


def _add_timeline(timeline, plan: EventPlan, start: list, finish: list,
                  order: list) -> None:
    """Each record's interval in the order the records finished (the
    order the specification records them); CSR records get none."""
    kind, vl = plan.kind.tolist(), plan.vl.tolist()
    occ, dram, off = plan.occ.tolist(), plan.dram.tolist(), \
        plan.req_off.tolist()
    for i in order:
        k = kind[i]
        if k == LKIND_SCALAR:
            timeline.add("scalar-core", f"scalar[{i}]", start[i], finish[i])
        elif k == LKIND_BARRIER:
            timeline.instant("scalar-core", f"barrier[{i}]", finish[i])
        elif k == LKIND_VARITH:
            timeline.add("vpu-arith", f"varith[{i}]", start[i], finish[i],
                         vl=vl[i], occupancy=occ[i])
        elif k == LKIND_VMEM:
            timeline.add("vpu-mem", f"vmem[{i}]", start[i], finish[i],
                         vl=vl[i], lines=off[i + 1] - off[i],
                         dram_reads=dram[i])


def _record_engine_stats(st: dict, plan: EventPlan, bw_den: int) -> None:
    """The run's counters (see docs/observability.md glossary)."""
    from repro.obs.record import get_recorder

    es = get_recorder()
    es.count("event.runs")
    es.count("event.timestamps", st["timestamps"])
    es.count("event.tokens", st["tokens"])
    es.high("event.max_drain_depth", st["max_drain"])
    es.high("event.max_wheel_occupancy", st["max_occ"])
    es.count("event.overflow_spills", st["spills"])
    es.high("event.slab_high_water", st["slab"])
    es.count("event.line_spawns", plan.line_spawns)
    es.count("event.lines_recycled", plan.line_spawns - st["slab"])
    es.count("limiter.admits", st["admitted"])
    # a peak-rate window (den 1) admits every request on its fast path
    es.count("limiter.fast_path_admits",
             st["admitted"] if bw_den == 1 else 0)


def simulate_events_fast(ct: ClassifiedTrace, *, timeline=None
                         ) -> CycleReport:
    """Run the discrete-event model over a classified trace.

    The compiled twin of :func:`repro.engine.event_sim.simulate_events`
    with bit-identical results; registered as ``engine="event"``.
    """
    from repro.obs.record import get_recorder

    run = native.function("repro_event_run", _RUN_ARGTYPES, ctypes.c_int)
    if run is None:
        report = simulate_events(ct, timeline=timeline)
        if timeline is not None:
            timeline.engine = "event"
        return dataclasses.replace(report, engine="event")

    if timeline is not None:
        timeline.engine = "event"
    plan = event_plan(ct)
    cfg = ct.config
    n_banks = cfg.l2.banks
    arrays = _plan_arrays(plan, n_banks)
    # the component models check their registers, as in the specification
    bw_num, bw_den = BandwidthLimiter(cfg.mem.bw_num, cfg.mem.bw_den).fraction
    lat_extra = LatencyController(cfg.mem.extra_latency_cycles).extra_cycles
    noc = MeshNoc(cfg.noc)
    hops = np.array([noc.hops(noc.core_node, b % cfg.noc.nodes)
                     for b in range(n_banks)], dtype=np.int64)
    lat = cfg.noc.inject_cycles + hops * cfg.noc.hop_cycles
    if lat.dtype != np.int64:
        raise EngineError("NoC latencies must be whole cycles")
    n = plan.n
    start, finish, order = (np.empty(n, dtype=np.int64) for _ in range(3))
    stats = np.zeros(len(_STATS), dtype=np.int64)
    err = run(n, *arrays,
              cfg.vpu.chaining, cfg.vpu.ooo_mem_issue,
              int(cfg.l2.access_cycles), int(cfg.mem.dram_service_cycles),
              int(cfg.core.l1_hit_cycles),
              int(vpu_model.arith_latency(cfg)), n_banks,
              hops, lat,
              cfg.vpu.mem_queue_depth, cfg.vpu.line_mshrs,
              bw_num, bw_den, lat_extra,
              int(core_model.VECTOR_DISPATCH_CYCLES),
              int(core_model.VSETVL_CYCLES),
              int(core_model.SCALAR_RESULT_TRANSFER_CYCLES),
              int(vpu_model.LANE_PIPE_DEPTH),
              start, finish, order, stats)
    if err:
        raise EngineError(_ERRORS.get(err, f"event kernel error {err}"))
    st = dict(zip(_STATS, stats.tolist()))
    if timeline is not None:
        _add_timeline(timeline, plan, start.tolist(), finish.tolist(),
                      order[:st["finished"]].tolist())
    if get_recorder().on:
        _record_engine_stats(st, plan, bw_den)
    return CycleReport(
        cycles=float(max(st["now"], st["wb_tail"])),
        engine="event",
        scalar_issue_cycles=float(st["issue"]),
        scalar_stall_cycles=float(st["stall"]),
        vpu_arith_cycles=float(st["varith"]),
        vpu_mem_cycles=float(st["vmem"]),
        bandwidth_bound_cycles=0.0,
        dram_reads=plan.total_dram_reads,
        dram_writes=plan.total_dram_writes,
        meta={
            "records": n,
            "noc": {
                "messages": st["noc_msgs"],
                "total_hops": st["noc_hops"],
                "latency_cycles": float(st["noc_lat"]),
            },
            "latency_ctl": {"requests": st["admitted"],
                            "added_cycles": float(st["admitted"]
                                                  * lat_extra)},
            "limiter": {"admitted": st["admitted"],
                        "throttle_cycles": float(st["throttle"])},
            "bank_wait_cycles": float(st["bank_wait"]),
        },
    )
