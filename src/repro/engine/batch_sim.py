"""Batch timing engine: every sweep point of one trace in a single walk.

``simulate_fast``, this engine's specification, walks the classified
trace once *per knob setting*, 7-49 walks per (kernel, implementation)
trace for a paper sweep. This engine walks the trace **once for all
settings**: the per-record frontier recurrence is identical at every
sweep point, so each machine frontier (scalar core, arithmetic pipe, AGU,
memory queue, line-MSHR pool) becomes a length-``K`` vector — one element
per configuration.

Everything knob-independent was precomputed by :func:`repro.engine.lower.
lower_trace`. The per-record loop runs in a small C kernel, ``walk.c``,
built and loaded by :mod:`repro.native` on the first walk in a process,
which computes the latency- and bandwidth-proportional terms per (record,
point) from the lowered arrays and the knob vectors. Where no compiler
can build it, NumPy materializes those terms as (records, configs)
matrices and the same loop runs as NumPy broadcasts over the knob axis,
after one :class:`RuntimeWarning`. Both walks match :func:`simulate_fast`
operation for operation, so all three agree bit-for-bit — the agreement
tests pin exact cycle equality on all four kernels.

Configurations in one batch must share everything except the two runtime
sweep knobs (Latency Controller ``extra_latency_cycles`` and Bandwidth
Limiter ``bw_num/bw_den``); :class:`repro.errors.EngineError` otherwise.
"""

from __future__ import annotations

import ctypes
from collections.abc import Sequence

import numpy as np

from repro import native
from repro.config import SdvConfig
from repro.engine import core_model, vpu_model
from repro.engine.lower import (
    FIRST_DRAM,
    FIRST_L2,
    LKIND_CSR,
    LKIND_SCALAR,
    LKIND_VARITH,
    LKIND_VMEM,
    LoweredTrace,
    knob_free_config,
    lower_trace,
)
from repro.engine.results import CycleReport
from repro.errors import EngineError
from repro.memory.classify import ClassifiedTrace

_i64, _f64 = native.ndarray(np.int64), native.ndarray(np.float64)
_out = native.ndarray(np.float64, writeable=True)
_c_i64, _c_i32, _c_f64 = ctypes.c_int64, ctypes.c_int32, ctypes.c_double
#: argument types of ``repro_batch_walk`` in ``walk.c``
_WALK_ARGTYPES = [
    _c_i64, _c_i64,                                       # n, K
    _i64, _i64, _i64, native.ndarray(np.bool_), _i64,     # kind .. row
    _f64, _f64, _f64, _f64, _f64,                         # sc_issue .. txns
    _f64,                                                 # va_occ
    _f64, _f64, _f64, _f64, _f64,                         # vm_addr .. reads
    native.ndarray(np.int8),                              # vm_first_kind
    _f64, _f64, _f64, _f64,                               # lat .. num
    _c_i32, _c_i32, _c_i64, _c_f64,                       # VPU build
    _c_f64, _c_f64, _c_f64, _c_f64, _c_f64,               # latency constants
    _out, _out, _out, _out, _out,                         # chain .. t_end
]


def walk_backend() -> str:
    """The walk batch timing runs on in this process: ``"compiled"`` or
    ``"numpy"``."""
    return "numpy" if native.library() is None else "compiled"


def _check_configs(lowered: LoweredTrace,
                   configs: Sequence[SdvConfig]) -> None:
    if not configs:
        raise EngineError("timing needs at least one config")
    for k, cfg in enumerate(configs):
        if knob_free_config(cfg) != lowered.base_key:
            raise EngineError(
                f"config {k} differs from the lowered trace in more than "
                "the latency/bandwidth knobs; re-lower the trace for it"
            )


def _knob_axes(lowered: LoweredTrace, configs: Sequence[SdvConfig]):
    """The two knob vectors: DRAM latency and limiter window per config."""
    base = lowered.base
    # identical float path to SdvConfig.dram_latency: (l2 + service) + extra
    lat_base = base.l2_hit_latency + base.mem.dram_service_cycles
    lat = np.array([lat_base + c.mem.extra_latency_cycles for c in configs],
                   dtype=np.float64)
    den = np.array([c.mem.bw_den for c in configs], dtype=np.float64)
    num = np.array([c.mem.bw_num for c in configs], dtype=np.float64)
    return lat, den, num


def _walk(lowered: LoweredTrace, lat: np.ndarray, den: np.ndarray,
          num: np.ndarray, l2_lat: np.ndarray | None = None) -> dict:
    """Run the frontier recurrence once with the knob axis vectorized.

    ``l2_lat`` generalizes the axis beyond the two runtime knobs: it is the
    per-config L2 hit latency (default: the lowered trace's own). The
    attribution ladder uses it to re-time NoC-free and minimal-cache
    idealizations from the *same* lowered arrays — the L2 latency enters
    the model in exactly two places (scalar-block L2 stalls and the
    first-element latency of L2-served vector loads), both kept as raw
    counts in the lowered form.

    The per-record loop runs in the compiled walk (``walk.c``), which
    computes the knob-dependent terms itself, or in :func:`_numpy_walk`
    over :func:`_knob_matrices` where no C compiler could build it. Both
    perform :func:`simulate_fast`'s float operations in its order, so
    cycles agree bit-for-bit (the agreement tests pin this on both walks).

    Returns the cycles and the global bandwidth floor, one per config.
    """
    from repro.obs.record import get_recorder

    rec = get_recorder()
    if rec.on:
        rec.count("batch.walks")
        rec.count("batch.points", len(lat))
        rec.count("batch.record_points", lowered.n * len(lat))
    K = lat.shape[0]
    if l2_lat is None:
        l2_lat = np.full(K, lowered.base.l2_hit_latency)

    walk = native.function("repro_batch_walk", _WALK_ARGTYPES)
    if walk is None:
        t_end = _numpy_walk(lowered, lat,
                            *_knob_matrices(lowered, lat, den, num, l2_lat))
    else:
        t_end = _c_walk(walk, lowered, lat, den, num, l2_lat)

    # global Bandwidth Limiter floor (exact integer closed form per config)
    total = lowered.total_dram_reads + lowered.total_dram_writes
    bw_floor = np.zeros(K)
    if total > 0:
        for k in range(K):
            bw_floor[k] = (((total - 1) // int(num[k])) * int(den[k]) + 1.0
                           + lat[k])
    return {"cycles": np.maximum(t_end, bw_floor), "bw_floor": bw_floor}


def _vm_busy(lowered: LoweredTrace, den: np.ndarray,
             num: np.ndarray) -> np.ndarray:
    """Vector memory busy time per (record, config): the AGU, the line
    requests or the L2 lines plus the limiter's transactions, whichever
    is longest (:func:`repro.engine.vpu_model.vmem_cost`)."""
    vm_service = np.maximum(
        lowered.vm_lines[:, None],
        lowered.vm_l2_lines[:, None]
        + lowered.vm_txns[:, None] * den[None, :] / num[None, :],
    )
    return np.maximum(lowered.vm_addr[:, None], vm_service)


def _knob_matrices(lowered: LoweredTrace, lat: np.ndarray, den: np.ndarray,
                   num: np.ndarray, l2_lat: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The knob-dependent terms as (records, configs) matrices, indexed by
    slot: scalar block time, vector memory busy time, first-element
    latency and line-MSHR time. ``walk.c`` evaluates the same expressions
    per (record, point) instead."""
    # same float ops in the same order as core_model.scalar_block_time:
    # (issue + l2_hits*l2_lat/p) + dram_reads*dram_lat/p, then the bw floor
    sc_total = np.maximum(
        lowered.sc_issue[:, None]
        + lowered.sc_l2_hits[:, None] * l2_lat[None, :] / lowered.sc_p[:, None]
        + lowered.sc_dram_reads[:, None] * lat[None, :] / lowered.sc_p[:, None],
        lowered.sc_bw_txns[:, None] * den[None, :] / num[None, :],
    )
    fkind = lowered.vm_first_kind[:, None]
    vm_first = np.where(fkind == FIRST_DRAM, lat[None, :],
                        np.where(fkind == FIRST_L2, l2_lat[None, :], 0.0))
    vm_mshr = (lowered.vm_dram_reads[:, None] * lat[None, :]
               / lowered.base.vpu.line_mshrs)
    return sc_total, _vm_busy(lowered, den, num), vm_first, vm_mshr


def _c_walk(walk, lowered: LoweredTrace, lat: np.ndarray, den: np.ndarray,
            num: np.ndarray, l2_lat: np.ndarray) -> np.ndarray:
    """The per-record loop in the compiled walk; returns the end times."""
    n, K = lowered.n, lat.shape[0]
    vpu = lowered.base.vpu
    kind, dep, slot = lowered.kind, lowered.dep, lowered.slot
    # the kernel indexes without bounds checks: reject what would overrun
    ok = (kind.shape == dep.shape == slot.shape
          == lowered.scalar_dest.shape == (n,)
          and lat.shape == l2_lat.shape == den.shape == num.shape == (K,)
          and vpu.mem_queue_depth >= 1 and not (dep >= n).any())
    sc = (lowered.sc_issue, lowered.sc_l2_hits, lowered.sc_dram_reads,
          lowered.sc_p, lowered.sc_bw_txns)
    vm = (lowered.vm_addr, lowered.vm_lines, lowered.vm_l2_lines,
          lowered.vm_txns, lowered.vm_dram_reads, lowered.vm_first_kind)
    for code, arrays in ((LKIND_SCALAR, sc), (LKIND_VARITH, (lowered.va_occ,)),
                         (LKIND_VMEM, vm)):
        used = slot[kind == code]
        size = min(len(a) for a in arrays)
        ok = ok and not ((used < 0).any() or (used >= size).any())
    if not ok:
        raise EngineError("lowered trace indexes past its own arrays")
    # chain/completion rows only for records some later record reads
    needed = np.zeros(n, dtype=bool)
    needed[dep[dep >= 0]] = True
    row = np.where(needed, np.cumsum(needed) - 1, -1)
    n_rows = int(np.count_nonzero(needed))
    t_end = np.empty(K)
    walk(n, K, kind, dep, slot, lowered.scalar_dest, row,
         *sc, lowered.va_occ, *vm, lat, l2_lat, den, num,
         vpu.chaining, vpu.ooo_mem_issue, vpu.mem_queue_depth,
         float(vpu.line_mshrs),
         core_model.VECTOR_DISPATCH_CYCLES, core_model.VSETVL_CYCLES,
         core_model.SCALAR_RESULT_TRANSFER_CYCLES,
         float(vpu_model.LANE_PIPE_DEPTH),
         vpu_model.arith_latency(lowered.base),
         np.zeros((n_rows, K)), np.zeros((n_rows, K)),
         np.zeros((vpu.mem_queue_depth, K)), np.zeros((5, K)), t_end)
    return t_end


def _numpy_walk(lowered: LoweredTrace, lat: np.ndarray,
                sc_total: np.ndarray, vm_busy_m: np.ndarray,
                vm_first_m: np.ndarray, vm_mshr_m: np.ndarray) -> np.ndarray:
    """The per-record loop as NumPy broadcasts over the knob axis.

    The walk for hosts with no C compiler. It reuses a fixed set of
    scratch buffers with ``out=`` ufunc calls and only materializes
    chain/completion rows for records some later record actually depends
    on; returns the end times.
    """
    K = lat.shape[0]
    n = lowered.n
    base = lowered.base
    vpu = base.vpu
    chaining = vpu.chaining
    ooo = vpu.ooo_mem_issue
    q_depth = vpu.mem_queue_depth
    pipe_lat = vpu_model.arith_latency(base)
    PIPE = float(vpu_model.LANE_PIPE_DEPTH)
    DISPATCH = core_model.VECTOR_DISPATCH_CYCLES
    VSETVL = core_model.VSETVL_CYCLES
    XFER = core_model.SCALAR_RESULT_TRANSFER_CYCLES

    # per-record row lists: plain list indexing beats repeated 2-D numpy
    # row extraction in the walk below
    sc_rows = list(sc_total)
    vm_busy = list(vm_busy_m)
    vm_first = list(vm_first_m)
    vm_mshr = list(vm_mshr_m)
    has_dram = (lowered.vm_dram_reads > 0).tolist()
    va_occ = lowered.va_occ.tolist()
    vm_addr = lowered.vm_addr.tolist()

    kinds = lowered.kind.tolist()
    deps = lowered.dep.tolist()
    slots = lowered.slot.tolist()
    sdest = lowered.scalar_dest.tolist()

    # vsetvl/barrier rows only need start/completion stored if something
    # actually depends on them (register dataflow never does)
    needed_arr = np.zeros(n, dtype=bool)
    needed_arr[lowered.dep[lowered.dep >= 0]] = True
    needed = needed_arr.tolist()

    # frontiers, one element per config -----------------------------------
    t_scalar = np.zeros(K)
    t_arith = np.zeros(K)
    t_agu = np.zeros(K)
    t_mshr = np.zeros(K)

    # chain[i] = start + first_latency; completion[i] = completion. Each
    # record's rows are computed in place (no scratch-then-copy); rows of
    # records nothing reads stay zero, which the segment maxima below
    # absorb exactly (all frontier times are non-negative, max is exact).
    chain = np.zeros((n, K))
    completion = np.zeros((n, K))
    chain_rows = list(chain)
    comp_rows = list(completion)
    mem_comp: list = []        # completion-row views of memory records
    n_mem = 0

    b_ready = np.empty(K)
    b_floor = np.empty(K)
    b_tmp = np.empty(K)

    add = np.add
    maximum = np.maximum

    # Instead of running "latest completion" frontiers updated per record,
    # barrier joins take one vectorized max over the segment's completion
    # rows: t_arith carries the previous sync forward, so
    # max(t_scalar, t_arith, completions since the last barrier) equals
    # the fast engine's 4-way join bit-for-bit.
    seg0 = 0                   # first record of the current barrier segment

    for i, (kind, dep, slot) in enumerate(zip(kinds, deps, slots)):

        if kind == LKIND_VARITH:
            add(t_scalar, DISPATCH, out=t_scalar)           # dispatch
            s_row = chain_rows[i]
            c_row = comp_rows[i]
            has_floor = False
            if dep >= 0:
                if chaining:
                    add(chain_rows[dep], PIPE, out=s_row)
                    maximum(s_row, t_scalar, out=s_row)
                    maximum(s_row, t_arith, out=s_row)      # s
                    add(comp_rows[dep], PIPE, out=b_floor)
                    has_floor = True
                else:
                    maximum(t_scalar, comp_rows[dep], out=s_row)
                    maximum(s_row, t_arith, out=s_row)
            else:
                maximum(t_scalar, t_arith, out=s_row)
            add(s_row, va_occ[slot], out=t_arith)
            add(t_arith, pipe_lat, out=c_row)
            if has_floor:
                maximum(c_row, b_floor, out=c_row)
            if sdest[i]:
                add(c_row, XFER, out=b_tmp)
                maximum(t_scalar, b_tmp, out=t_scalar)
            continue

        if kind == LKIND_VMEM:
            add(t_scalar, DISPATCH, out=t_scalar)           # dispatch
            s_row = chain_rows[i]
            c_row = comp_rows[i]
            has_floor = False
            if dep >= 0:
                if chaining:
                    add(chain_rows[dep], PIPE, out=b_ready)
                    maximum(b_ready, t_scalar, out=b_ready)
                    add(comp_rows[dep], PIPE, out=b_floor)
                    has_floor = True
                else:
                    maximum(t_scalar, comp_rows[dep], out=b_ready)

                if ooo:
                    maximum(t_agu, t_scalar, out=t_agu)     # agu_slot
                    if n_mem >= q_depth:
                        maximum(t_agu, mem_comp[n_mem - q_depth], out=t_agu)
                    maximum(t_agu, b_ready, out=b_ready)    # s
                    add(t_agu, vm_addr[slot], out=t_agu)
                else:
                    maximum(b_ready, t_agu, out=b_ready)
                    if n_mem >= q_depth:
                        maximum(b_ready, mem_comp[n_mem - q_depth],
                                out=b_ready)
                    add(b_ready, vm_addr[slot], out=t_agu)  # b_ready is s
            else:
                # no dep: ready == t_scalar, so s collapses onto the AGU
                # frontier (it already majorizes t_scalar) — one op fewer
                if ooo:
                    maximum(t_agu, t_scalar, out=t_agu)     # agu_slot
                    if n_mem >= q_depth:
                        maximum(t_agu, mem_comp[n_mem - q_depth], out=t_agu)
                    b_ready[:] = t_agu                      # s
                    add(t_agu, vm_addr[slot], out=t_agu)
                else:
                    maximum(t_scalar, t_agu, out=b_ready)
                    if n_mem >= q_depth:
                        maximum(b_ready, mem_comp[n_mem - q_depth],
                                out=b_ready)
                    add(b_ready, vm_addr[slot], out=t_agu)  # b_ready is s

            add(b_ready, vm_first[slot], out=s_row)         # s + first
            add(s_row, vm_busy[slot], out=c_row)
            if has_floor:
                maximum(c_row, b_floor, out=c_row)
            if has_dram[slot]:
                add(b_ready, lat, out=b_tmp)
                maximum(t_mshr, b_tmp, out=t_mshr)
                add(t_mshr, vm_mshr[slot], out=t_mshr)
                maximum(c_row, t_mshr, out=c_row)
            mem_comp.append(c_row)
            n_mem += 1
            continue

        if kind == LKIND_SCALAR:
            add(t_scalar, sc_rows[slot], out=t_scalar)
            continue

        if kind == LKIND_CSR:
            add(t_scalar, VSETVL, out=t_scalar)
            if needed[i]:
                chain_rows[i][:] = t_scalar
                comp_rows[i][:] = t_scalar
            continue

        # LKIND_BARRIER
        maximum(t_scalar, t_arith, out=b_tmp)
        if i > seg0:
            completion[seg0:i].max(axis=0, out=b_ready)
            maximum(b_tmp, b_ready, out=b_tmp)              # t_sync
        np.minimum(t_mshr, b_tmp, out=t_mshr)
        t_scalar[:] = b_tmp
        t_arith[:] = b_tmp
        t_agu[:] = b_tmp
        if needed[i]:
            chain_rows[i][:] = b_tmp
            comp_rows[i][:] = b_tmp
        seg0 = i + 1

    t_end = maximum(t_scalar, t_arith)
    if n > seg0:
        completion[seg0:n].max(axis=0, out=b_ready)
        t_end = maximum(t_end, b_ready)
    return t_end


def batch_cycles(lowered: LoweredTrace,
                 configs: Sequence[SdvConfig]) -> np.ndarray:
    """Cycle counts only, one per config — no :class:`CycleReport` garbage.

    This is the sweep path: a compact float64 vector the harness turns
    directly into :class:`Measurement` rows.
    """
    configs = list(configs)
    _check_configs(lowered, configs)
    if lowered.n == 0:
        return np.zeros(len(configs))
    lat, den, num = _knob_axes(lowered, configs)
    return _walk(lowered, lat, den, num)["cycles"]


def simulate_batch(lowered: LoweredTrace,
                   configs: Sequence[SdvConfig]) -> list[CycleReport]:
    """Time one lowered trace at every config; one report per config.

    ``simulate_batch(lowered, [c1..cK])[k]`` equals
    ``simulate_fast(classified trace rebound to ck)`` cycle-for-cycle.
    """
    configs = list(configs)
    _check_configs(lowered, configs)
    K = len(configs)
    if lowered.n == 0:
        return [CycleReport(cycles=0.0, engine="batch") for _ in range(K)]

    lat, den, num = _knob_axes(lowered, configs)
    out = _walk(lowered, lat, den, num)

    issue = float(lowered.sc_issue.sum())
    stall_l2 = float(lowered.sc_stall_l2.sum())
    stall_dram_per_lat = float((lowered.sc_dram_reads / lowered.sc_p).sum())
    varith = float(lowered.va_occ.sum())
    vmem = (_vm_busy(lowered, den, num).sum(axis=0) if lowered.n_vmem
            else np.zeros(K))

    return [
        CycleReport(
            cycles=float(out["cycles"][k]),
            engine="batch",
            scalar_issue_cycles=issue,
            scalar_stall_cycles=stall_l2 + stall_dram_per_lat * lat[k],
            vpu_arith_cycles=varith,
            vpu_mem_cycles=float(vmem[k]),
            bandwidth_bound_cycles=float(out["bw_floor"][k]),
            dram_reads=lowered.total_dram_reads,
            dram_writes=lowered.total_dram_writes,
            meta={"records": lowered.n, "batch_size": K},
        )
        for k in range(K)
    ]


def simulate_batch_one(ct: ClassifiedTrace) -> CycleReport:
    """Engine-registry adapter: time a classified trace at its own config.

    Lowers on the fly; callers that re-time many points should lower once
    (via :meth:`repro.soc.FpgaSdv.time_many`, which also caches the lowered
    form on the trace) and call :func:`simulate_batch` directly.
    """
    return simulate_batch(lower_trace(ct), [ct.config])[0]
