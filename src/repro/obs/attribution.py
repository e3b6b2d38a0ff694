"""Cycle attribution: *why* a run took the cycles it took.

The paper's headline claim — long vectors tolerate main-memory latency —
is an explanation, but the engines only report totals. This module
decomposes each run's cycle count into named buckets that sum **exactly**
(bit-for-bit, as floats) to ``CycleReport.cycles``:

``vpu_busy``
    cycles covered by useful VPU work (arith-pipe occupancy + memory-unit
    streaming/address generation at peak bandwidth);
``issue_decode``
    scalar issue, vector dispatch, vsetvl and scalar-result transfers;
``serial_other``
    residual serialization at the fully idealized memory level (barrier
    round trips, dependency bubbles neither demand term covers);
``cache_service``
    cycles attributable to L1/L2 access latency beyond the 1-cycle ideal;
``noc``
    cycles attributable to mesh hop + injection latency;
``dram_stall``
    cycles attributable to DRAM service + Latency Controller latency that
    the machine failed to hide behind other work — the bucket the paper
    predicts shrinks as VL grows;
``bw_throttle``
    cycles attributable to the Bandwidth Limiter window.

**Method: a successive-idealization ladder.** The same classified trace is
re-timed under a sequence of configs, each removing one latency source:

====  =====================================================================
L0    the actual config (total = the headline cycle count)
L1    L0 with the Bandwidth Limiter at peak (1 line/cycle)
L2    L1 with zero DRAM latency (service + extra = 0: DRAM behaves like L2)
L3    L2 with a zero-latency NoC (hop = inject = 0)
L4    L3 with minimal cache latencies (1-cycle L1 and L2 access)
====  =====================================================================

Each bucket is the cycle delta its idealization step recovers, clamped to
a monotone ladder so every bucket is non-negative; the base level L4 is
split between ``vpu_busy``/``issue_decode``/``serial_other`` using
knob-independent demand terms from the lowered trace. Because the deltas
come from re-timing with the *same* engine that timed the run, each run is
attributed by its own engine (:func:`attribute_many`): ``batch`` times
every rung of every sweep point in its one walk, ``event`` runs the DES
once per distinct rung. Both are deterministic to the bit, and equal to
the ladder re-timed with their specifications.

**Bit-exactness.** Floating-point addition is not associative, so the
buckets are summed in the fixed left-to-right order of
:data:`BUCKET_ORDER`, and the final bucket (``bw_throttle``, the ladder's
own closing delta) is nudged by ULPs until the sum reproduces the total
exactly. :meth:`CycleAttribution.check` re-verifies the invariant with the
same summation order; the cross-engine tests assert it for every kernel,
VL and engine.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import SdvConfig
from repro.engine import ENGINES
from repro.engine.batch_sim import _check_configs, _knob_axes, _walk
from repro.engine.core_model import (
    SCALAR_RESULT_TRANSFER_CYCLES,
    VECTOR_DISPATCH_CYCLES,
    VSETVL_CYCLES,
)
from repro.engine.lower import (
    LKIND_CSR,
    LKIND_VARITH,
    LKIND_VMEM,
    LoweredTrace,
    lower_trace,
)
from repro.errors import EngineError
from repro.memory.classify import ClassifiedTrace

#: fixed summation order of the buckets. The invariant "left-to-right sum
#: equals the cycle total exactly" is defined over THIS order; exporters
#: and checkers must preserve it.
BUCKET_ORDER = (
    "vpu_busy",
    "issue_decode",
    "serial_other",
    "cache_service",
    "noc",
    "dram_stall",
    "bw_throttle",
)

#: human-readable labels for profile tables.
BUCKET_LABELS = {
    "vpu_busy": "VPU busy",
    "issue_decode": "issue/decode",
    "serial_other": "other serialization",
    "cache_service": "cache service",
    "noc": "NoC hops",
    "dram_stall": "DRAM latency stall",
    "bw_throttle": "bandwidth throttle",
}


def attribution_ladder(config: SdvConfig
                       ) -> tuple[SdvConfig, SdvConfig, SdvConfig,
                                  SdvConfig, SdvConfig]:
    """The five ladder configs (L0..L4) for ``config``.

    Each level idealizes one more latency source away; levels 1+ are
    validated (level 0 is the caller's config, already validated).
    """
    l0 = config
    l1 = dataclasses.replace(
        l0, mem=dataclasses.replace(l0.mem, bw_num=1, bw_den=1))
    l2 = dataclasses.replace(
        l1, mem=dataclasses.replace(
            l1.mem, extra_latency_cycles=0, dram_service_cycles=0))
    l3 = dataclasses.replace(
        l2, noc=dataclasses.replace(l2.noc, hop_cycles=0, inject_cycles=0))
    l4 = dataclasses.replace(
        l3,
        l2=dataclasses.replace(l3.l2, access_cycles=1),
        core=dataclasses.replace(l3.core, l1_hit_cycles=1),
    )
    for level in (l1, l2, l3, l4):
        level.validate()
    return (l0, l1, l2, l3, l4)


def _closing_term(partial: float, total: float) -> float:
    """The ``r`` with ``fl(partial + r) == total`` *exactly*.

    ``total - partial`` is the obvious candidate but rounds; walk it by
    ULPs until the (single, left-to-right) addition lands on ``total``.
    """
    r = total - partial
    for _ in range(64):
        s = partial + r
        if s == total:
            return r
        r = math.nextafter(r, math.inf if s < total else -math.inf)
    raise EngineError(
        f"cannot close attribution sum: partial={partial!r} total={total!r}"
    )


def _demands(lowered: LoweredTrace) -> tuple[float, float]:
    """Knob-independent (issue_decode, vpu_busy) demand terms.

    These are pure work totals from the lowered arrays — the same numbers
    for every engine — used to split the fully idealized base level.
    """
    kind = lowered.kind
    n_dispatch = np.count_nonzero((kind == LKIND_VARITH)
                                  | (kind == LKIND_VMEM))
    n_csr = np.count_nonzero(kind == LKIND_CSR)
    n_sdest = np.count_nonzero(lowered.scalar_dest & (kind == LKIND_VARITH))
    issue = (float(lowered.sc_issue.sum())
             + n_dispatch * VECTOR_DISPATCH_CYCLES
             + n_csr * VSETVL_CYCLES
             + n_sdest * SCALAR_RESULT_TRANSFER_CYCLES)
    # memory-unit busy time at peak bandwidth: max(AGU, streaming) per
    # instruction, mirroring the engines' vm_busy term at bw 1/1
    vm_busy = np.maximum(
        lowered.vm_addr,
        np.maximum(lowered.vm_lines, lowered.vm_l2_lines + lowered.vm_txns),
    )
    vpu = float(lowered.va_occ.sum()) + float(vm_busy.sum())
    return issue, vpu


@dataclass(frozen=True)
class CycleAttribution:
    """One run's cycle total, decomposed into :data:`BUCKET_ORDER` buckets.

    ``buckets`` maps every bucket name to its cycle share; summed left to
    right in :data:`BUCKET_ORDER` the shares reproduce ``total`` exactly.
    ``ladder`` keeps the raw L0..L4 cycle counts for inspection.

    ``dram_latency_demand`` (total DRAM reads x load-to-use latency) and
    the derived ``dram_latency_hidden`` quantify the paper's mechanism:
    how many cycles of raw DRAM latency existed, and how many the machine
    overlapped away rather than stalling on.
    """

    total: float
    engine: str
    buckets: dict = field(default_factory=dict)
    ladder: tuple = ()
    dram_latency_demand: float = 0.0

    @property
    def dram_latency_hidden(self) -> float:
        """Cycles of DRAM latency hidden by overlap (demand not stalled)."""
        return max(0.0, self.dram_latency_demand - self.buckets.get(
            "dram_stall", 0.0))

    def check(self) -> None:
        """Raise :class:`EngineError` unless the sum invariant holds."""
        if set(self.buckets) != set(BUCKET_ORDER):
            raise EngineError(
                f"attribution buckets {sorted(self.buckets)} != "
                f"{sorted(BUCKET_ORDER)}"
            )
        total = 0.0
        for name in BUCKET_ORDER:
            total = total + self.buckets[name]
        if total != self.total:
            raise EngineError(
                f"attribution buckets sum to {total!r}, not {self.total!r}"
            )

    def fraction(self, name: str) -> float:
        """Bucket share of the total (0.0 on an empty run)."""
        return self.buckets[name] / self.total if self.total > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready view; bucket order preserved."""
        return {
            "total": self.total,
            "engine": self.engine,
            "buckets": {name: self.buckets[name] for name in BUCKET_ORDER},
            "ladder": list(self.ladder),
            "dram_latency_demand": self.dram_latency_demand,
            "dram_latency_hidden": self.dram_latency_hidden,
        }


def _from_ladder(times: tuple[float, float, float, float, float],
                 issue_demand: float, vpu_demand: float, *,
                 engine: str, dram_latency_demand: float
                 ) -> CycleAttribution:
    """Buckets from the five ladder timings.

    Clamps the ladder monotone (an idealization can only speed things up;
    tiny analytical inversions become zero-width buckets) so every bucket
    is non-negative and the pre-closing sum equals the total in exact
    arithmetic.
    """
    t0, t1, t2, t3, t4 = times
    s1 = min(t1, t0)
    s2 = min(t2, s1)
    s3 = min(t3, s2)
    s4 = min(t4, s3)

    vpu_busy = min(vpu_demand, s4)
    issue_decode = min(issue_demand, s4 - vpu_busy)
    serial_other = max(0.0, s4 - vpu_busy - issue_decode)
    cache_service = s3 - s4
    noc = s2 - s3
    dram_stall = s1 - s2
    # left-to-right in BUCKET_ORDER; bw_throttle closes the sum exactly
    partial = vpu_busy
    partial = partial + issue_decode
    partial = partial + serial_other
    partial = partial + cache_service
    partial = partial + noc
    partial = partial + dram_stall
    bw_throttle = _closing_term(partial, t0)

    att = CycleAttribution(
        total=t0,
        engine=engine,
        buckets={
            "vpu_busy": vpu_busy,
            "issue_decode": issue_decode,
            "serial_other": serial_other,
            "cache_service": cache_service,
            "noc": noc,
            "dram_stall": dram_stall,
            "bw_throttle": bw_throttle,
        },
        ladder=times,
        dram_latency_demand=dram_latency_demand,
    )
    att.check()
    return att


def _empty(engine: str) -> CycleAttribution:
    return CycleAttribution(
        total=0.0, engine=engine,
        buckets={name: 0.0 for name in BUCKET_ORDER},
        ladder=(0.0,) * 5,
    )


def attribute(ct: ClassifiedTrace, *, engine: str = "batch",
              lowered: LoweredTrace | None = None) -> CycleAttribution:
    """Attribute one classified trace's cycles at its bound config:
    :func:`attribute_many` at that one config. ``lowered`` (when the
    caller has it cached) skips a re-lowering.
    """
    return attribute_many(ct, [ct.config], engine=engine,
                          lowered=lowered)[0]


def _timed_ladders(ct: ClassifiedTrace, configs, simulate,
                   lowered: LoweredTrace) -> list[CycleAttribution]:
    """Attribute ``ct`` at each config by re-timing it with ``simulate``
    at every rung of that config's ladder.

    ``simulate`` maps a classified trace to a :class:`CycleReport`; each
    attribution carries the engine name its L0 report does. The trace's
    classification only depends on cache *geometry*, which no rung
    touches, so re-binding the config is sound. A rung shared by several
    configs is timed once: L2-L4 remove both knobs, so every point of a
    sweep shares them, and L1 of a latency point at full bandwidth is its
    L0.
    """
    ladders = [attribution_ladder(cfg) for cfg in configs]
    reports = {}
    for ladder in ladders:
        for rung in ladder:
            if rung not in reports:
                reports[rung] = simulate(dataclasses.replace(ct, config=rung))
    issue_demand, vpu_demand = _demands(lowered)
    return [
        _from_ladder(
            tuple(float(reports[rung].cycles) for rung in ladder),
            issue_demand, vpu_demand, engine=reports[ladder[0]].engine,
            dram_latency_demand=(lowered.total_dram_reads
                                 * ladder[0].dram_latency),
        )
        for ladder in ladders
    ]


def _ladder_attribution(ct: ClassifiedTrace, simulate, *,
                        lowered: LoweredTrace | None = None
                        ) -> CycleAttribution:
    """Attribute ``ct`` by re-timing it with ``simulate`` at each rung.

    The specification of attribution: the tests also run this with the
    engines' specifications (``simulate_fast``, ``simulate_events``) to
    pin both engines' attributions to them.
    """
    if lowered is None:
        lowered = lower_trace(ct)
    return _timed_ladders(ct, [ct.config], simulate, lowered)[0]


def attribute_many(ct: ClassifiedTrace, configs, *, engine: str = "batch",
                   lowered: LoweredTrace | None = None
                   ) -> list[CycleAttribution]:
    """Attribution of one trace at many knob settings.

    The sweep counterpart of :func:`attribute`; every config may differ
    from the trace's own only in the two knobs. On ``batch`` the
    classified trace is lowered **once** and every ladder rung of every
    config is timed in a **single** walk with a combined axis of
    ``2K + 3`` columns — L0 and L1 per config (actual knobs / limiter at
    peak), then the three knob-free idealizations L2 (zero DRAM latency),
    L3 (plus a zero-latency NoC) and L4 (plus 1-cycle caches). L3/L4
    reuse the same lowered arrays via the walk's ``l2_lat`` axis: the NoC
    and cache latencies enter the timing model only through the L2 hit
    latency, so idealizing them is a per-column latency substitution, not
    a re-lowering. Total work for K sweep points: one walk, not 5K runs.
    Any other engine re-times each distinct rung once
    (:func:`_timed_ladders`).

    The agreement tests pin each config's attribution to the ladder
    re-timed with the engine's specification.
    """
    if engine not in ENGINES:
        raise EngineError(
            f"unknown engine '{engine}' (choose from {sorted(ENGINES)})")
    configs = list(configs)
    if lowered is None:
        lowered = lower_trace(ct)
    _check_configs(lowered, configs)
    if lowered.n == 0:
        return [_empty(engine) for _ in configs]
    if engine != "batch":
        return _timed_ladders(ct, configs, ENGINES[engine], lowered)

    K = len(configs)
    lat, den, num = _knob_axes(lowered, configs)
    ones = np.ones(K + 3)
    l2_base = lowered.base.l2_hit_latency
    ladder = attribution_ladder(lowered.base_key)
    # L2..L4 collapse DRAM onto the (progressively idealized) L2: their
    # dram_latency equals their l2_hit_latency, via the same float path
    # the ladder configs themselves compute
    ideal = [(cfg.dram_latency, cfg.l2_hit_latency) for cfg in ladder[2:]]
    lat_all = np.concatenate([lat, lat, [dl for dl, _ in ideal]])
    den_all = np.concatenate([den, ones])
    num_all = np.concatenate([num, ones])
    l2_all = np.concatenate([np.full(2 * K + 1, l2_base),
                             [l2 for _, l2 in ideal[1:]]])
    cyc = _walk(lowered, lat_all, den_all, num_all, l2_lat=l2_all)["cycles"]
    t2 = float(cyc[2 * K])
    t3 = float(cyc[2 * K + 1])
    t4 = float(cyc[2 * K + 2])

    issue_demand, vpu_demand = _demands(lowered)
    return [
        _from_ladder(
            (float(cyc[k]), float(cyc[K + k]), t2, t3, t4),
            issue_demand, vpu_demand, engine="batch",
            dram_latency_demand=(lowered.total_dram_reads
                                 * configs[k].dram_latency),
        )
        for k in range(len(configs))
    ]
