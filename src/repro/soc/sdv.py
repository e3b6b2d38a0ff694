"""The FPGA Software Development Vehicle, as one configurable object.

:class:`FpgaSdv` plays the role of the VCU128 board + host flow of the
paper's Figure 2: you "program" it with an :class:`repro.config.SdvConfig`
(the bitstream), reconfigure the three runtime knobs without re-programming
(max VL CSR, Latency Controller, Bandwidth Limiter), open a
:class:`Session` to run code on it, and read cycle counts back.

Classification caching: the hit/miss classification of a trace depends only
on the cache geometry, never on the latency/bandwidth knobs, so ``time()``
caches the classified trace *on the trace object* and re-times it cheaply
for every sweep point — the moral equivalent of re-running the same binary
on the FPGA with different Latency Controller settings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from collections.abc import Sequence

import numpy as np

from repro.config import SdvConfig
from repro.engine import ENGINES, check_engine
from repro.engine.batch_sim import (
    _check_configs,
    batch_cycles,
    simulate_batch,
)
from repro.engine.lower import LoweredTrace, lower_cached, lower_trace
from repro.engine.results import CycleReport
from repro.isa.csr import CsrFile
from repro.isa.scalar_ctx import ScalarContext
from repro.isa.vector_ctx import VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import ClassifiedTrace
from repro.memory.classify_fast import CLASSIFIERS, DEFAULT_CLASSIFIER
from repro.soc.hwcounters import HwCounters
from repro.trace.events import REC_SCALAR, REC_VECTOR, TraceBuffer


def _count_cache(name: str) -> None:
    """Opt-in cache hit/miss accounting (repro.obs.record)."""
    from repro.obs.record import get_recorder

    get_recorder().count(name)


def _detached(ct: ClassifiedTrace) -> ClassifiedTrace:
    """``ct`` without its trace, for the memo on that trace: a memo entry
    pointing back at the trace would make every trace a reference cycle,
    kept with all its arrays until the next full cyclic collection."""
    return dataclasses.replace(ct, trace=None)


@dataclass
class Session:
    """One program running on the SDV: memory image + ISA contexts."""

    mem: MemoryImage
    trace: TraceBuffer
    scalar: ScalarContext
    vector: VectorContext

    def seal(self) -> TraceBuffer:
        """Flush pending scalar state and freeze the trace."""
        self.scalar.flush()
        return self.trace.seal()


class FpgaSdv:
    """The emulated RISC-V + VPU + NoC + L2HN system."""

    def __init__(self, config: SdvConfig | None = None) -> None:
        self.config = (config if config is not None else SdvConfig()).validate()
        self.counters = HwCounters()

    # ------------------------------------------------------------- knobs

    def configure(self, *, max_vl: int | None = None,
                  extra_latency: int | None = None,
                  bandwidth_bpc: int | None = None) -> "FpgaSdv":
        """Set any of the three runtime knobs (None = leave unchanged).

        Mirrors the register pokes the host performs over PCIe in the real
        setup; no "re-synthesis" (object rebuild) happens.
        """
        cfg = self.config
        if max_vl is not None:
            cfg = cfg.with_max_vl(max_vl)
        if extra_latency is not None:
            cfg = cfg.with_extra_latency(extra_latency)
        if bandwidth_bpc is not None:
            cfg = cfg.with_bandwidth(bandwidth_bpc)
        self.config = cfg
        return self

    @property
    def max_vl(self) -> int:
        return self.config.vpu.max_vl

    @property
    def extra_latency(self) -> int:
        return self.config.mem.extra_latency_cycles

    @property
    def bandwidth_bpc(self) -> float:
        return self.config.mem.bytes_per_cycle_limit

    # ----------------------------------------------------------- sessions

    def session(self) -> Session:
        """Fresh memory image + trace + ISA contexts at current max VL."""
        mem = MemoryImage(self.config.memory_bytes)
        trace = TraceBuffer()
        csr = CsrFile(self.config.vpu.max_vl)
        return Session(
            mem=mem,
            trace=trace,
            scalar=ScalarContext(mem, trace),
            vector=VectorContext(mem, trace, csr),
        )

    # ------------------------------------------------------------- timing

    def geometry_key(self) -> tuple:
        """The config fields classification depends on (cache-key tuple)."""
        c = self.config
        return (
            c.core.l1d_bytes, c.core.l1d_ways, c.core.l1_prefetch_depth,
            c.l2.banks, c.l2.bank_bytes, c.l2.ways,
            c.vpu.coalesce_gathers,
        )

    def has_classification(self, trace: TraceBuffer) -> bool:
        """True when ``trace`` already carries a classification for the
        current geometry (memoized or seeded)."""
        cache = getattr(trace, "_classified_cache", None)
        return cache is not None and self.geometry_key() in cache

    def classify(self, trace: TraceBuffer) -> ClassifiedTrace:
        """Classify (or fetch the cached classification of) a sealed trace.

        The classifier is looked up in the registry at call time, so a
        wrapper installed there sees every classification.
        """
        cache = getattr(trace, "_classified_cache", None)
        if cache is None:
            cache = {}
            setattr(trace, "_classified_cache", cache)
        key = self.geometry_key()
        ct = cache.get(key)
        if ct is None:
            _count_cache("classify_cache.misses")
            ct = CLASSIFIERS[DEFAULT_CLASSIFIER](trace, self.config)
            cache[key] = _detached(ct)
        else:
            _count_cache("classify_cache.hits")
        # re-bind the trace and the current knob settings
        # (latency/bandwidth/VPU timing)
        return dataclasses.replace(ct, trace=trace, config=self.config)

    def seed_classification(self, trace: TraceBuffer,
                            ct: ClassifiedTrace) -> None:
        """Pre-load the classification cache with an externally computed
        result (one loaded from a trace-cache entry), keyed under the
        current geometry."""
        cache = getattr(trace, "_classified_cache", None)
        if cache is None:
            cache = {}
            setattr(trace, "_classified_cache", cache)
        cache[self.geometry_key()] = _detached(ct)

    def lower(self, trace: TraceBuffer, *,
              classified: ClassifiedTrace | None = None) -> LoweredTrace:
        """Lower (or fetch the cached lowering of) a sealed trace.

        Like classification, lowering is knob-independent, so it is cached
        on the trace object keyed by the knob-free config
        (:func:`repro.engine.lower.lower_cached`, whose memo the event
        engine's plan shares). A miss calls this module's ``lower_trace``
        at call time, so a wrapper installed there sees every lowering.
        ``classified`` is the trace's :meth:`classify` result when the
        caller already holds it, so the classification cache is not
        looked up a second time.
        """
        ct = self.classify(trace) if classified is None else classified
        return lower_cached(ct, lower=lower_trace)

    @staticmethod
    def _instret(trace: TraceBuffer) -> tuple[int, int]:
        """(scalar, vector) retired-instruction counts of a trace: a
        scalar block retires its ALU and memory ops, a vector record
        one instruction."""
        cols = trace.cols
        scalar_mask = cols.kind == REC_SCALAR
        scalar = int(cols.n_alu[scalar_mask].sum()
                     + np.diff(cols.addr_off)[scalar_mask].sum())
        return scalar, int(np.count_nonzero(cols.kind == REC_VECTOR))

    def time(self, trace: TraceBuffer, *, engine: str = "batch"
             ) -> CycleReport:
        """Cycle-count a sealed trace under the current knob settings."""
        return self.time_many(trace, [self.config], engine=engine)[0]

    def attribute(self, trace: TraceBuffer, *, engine: str = "batch"):
        """Cycle attribution of a sealed trace at the current knobs.

        Returns a :class:`repro.obs.attribution.CycleAttribution` whose
        buckets sum bit-exactly to the cycle total ``engine`` times. Its
        L0 rung is the run at the current knobs, so it is added to
        :attr:`counters` as :meth:`time` adds a run: cycles, the
        lowering's DRAM reads and writes, retired instructions, and the
        buckets.
        """
        from repro.obs.attribution import attribute  # avoid import cycle

        check_engine(engine)
        ct = self.classify(trace)
        lowered = self.lower(trace, classified=ct)
        att = attribute(ct, engine=engine, lowered=lowered)
        scalar, vector = self._instret(trace)
        self.counters.absorb(
            CycleReport(cycles=att.total, engine=att.engine,
                        dram_reads=lowered.total_dram_reads,
                        dram_writes=lowered.total_dram_writes,
                        attribution=att),
            scalar_instret=scalar, vector_instret=vector)
        return att

    def time_many(self, trace: TraceBuffer, configs: Sequence[SdvConfig],
                  *, engine: str = "batch", reports: bool = True,
                  lowered: LoweredTrace | None = None
                  ) -> list[CycleReport] | np.ndarray:
        """Time one sealed trace at many knob settings in one call.

        Every config may differ from the SDV's own only in the latency and
        bandwidth knobs (:class:`EngineError` otherwise). ``batch`` times
        them all in one walk over the trace's lowering; ``event``
        classifies the trace once and runs the DES once per config. With
        ``reports=True`` each report is added to :attr:`counters`; with
        ``reports=False`` a bare float64 cycles vector is returned, no
        per-point :class:`CycleReport` is kept and the counters are left
        alone (the sweep path). ``lowered`` is the trace's :meth:`lower`
        result when the caller already holds it.
        """
        check_engine(engine)
        configs = list(configs)
        if engine == "batch":
            if lowered is None:
                lowered = self.lower(trace)
            if not reports:
                return batch_cycles(lowered, configs)
            out = simulate_batch(lowered, configs)
        else:
            ct = self.classify(trace)
            if lowered is None:
                lowered = self.lower(trace, classified=ct)
            _check_configs(lowered, configs)
            out = [ENGINES[engine](dataclasses.replace(ct, config=cfg))
                   for cfg in configs]
            if not reports:
                return np.array([r.cycles for r in out])
        scalar, vector = self._instret(trace)
        for report in out:
            self.counters.absorb(report, scalar_instret=scalar,
                                 vector_instret=vector)
        return out

    def run(self, build_fn, *args, engine: str = "batch", **kwargs):
        """Convenience: open a session, run ``build_fn(session, ...)``,
        seal, and time.

        ``build_fn`` is any callable that executes a kernel against the
        session's ISA contexts and returns its functional result. Returns
        ``(result, CycleReport)``.
        """
        sess = self.session()
        result = build_fn(sess, *args, **kwargs)
        trace = sess.seal()
        return result, self.time(trace, engine=engine)
