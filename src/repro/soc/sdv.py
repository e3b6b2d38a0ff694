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
from repro.engine import ENGINES
from repro.engine.batch_sim import batch_cycles, simulate_batch
from repro.engine.lower import LoweredTrace, knob_free_config, lower_trace
from repro.engine.results import CycleReport
from repro.errors import ConfigError
from repro.isa.csr import CsrFile
from repro.isa.scalar_ctx import ScalarContext
from repro.isa.vector_ctx import VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import (
    KIND_SCALAR,
    KIND_VARITH,
    KIND_VMEM,
    ClassifiedTrace,
)
from repro.memory.classify_fast import CLASSIFIERS, DEFAULT_CLASSIFIER
from repro.soc.hwcounters import HwCounters
from repro.trace.events import TraceBuffer


def _count_cache(name: str) -> None:
    """Opt-in cache hit/miss accounting (repro.obs.engine_stats)."""
    from repro.obs.engine_stats import get_engine_stats, \
        introspection_enabled

    if introspection_enabled():
        get_engine_stats().count(name)


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

    def __init__(self, config: SdvConfig | None = None, *,
                 engine: str = "fast",
                 classify: str | None = None) -> None:
        self.config = (config if config is not None else SdvConfig()).validate()
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine '{engine}' (choose from {sorted(ENGINES)})"
            )
        if classify is not None and classify not in CLASSIFIERS:
            raise ConfigError(
                f"unknown classifier '{classify}' "
                f"(choose from {sorted(CLASSIFIERS)})"
            )
        self.engine = engine
        #: the active classification engine (``"stack"`` or ``"walk"``)
        self.classify_name = classify or DEFAULT_CLASSIFIER
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

    # backwards-compatible alias
    _geometry_key = geometry_key

    def geometry_fingerprint(self) -> str:
        """12-hex digest of :meth:`geometry_key` — the cache-geometry
        fingerprint the classified trace sidecar keys its payload on."""
        import hashlib

        return hashlib.sha256(
            repr(self.geometry_key()).encode()).hexdigest()[:12]

    def has_classification(self, trace: TraceBuffer) -> bool:
        """True when ``trace`` already carries a classification for the
        current engine + geometry (memoized or seeded)."""
        cache = getattr(trace, "_classified_cache", None)
        return (cache is not None
                and (self.classify_name, *self._geometry_key()) in cache)

    def classify(self, trace: TraceBuffer) -> ClassifiedTrace:
        """Classify (or fetch the cached classification of) a sealed trace.

        Both engines are bit-identical, but the cache key still carries the
        engine name so equality tests (and a hypothetical divergence) never
        read one engine's result through the other's selector.
        """
        cache = getattr(trace, "_classified_cache", None)
        if cache is None:
            cache = {}
            setattr(trace, "_classified_cache", cache)
        name = self.classify_name
        key = (name, *self._geometry_key())
        ct = cache.get(key)
        if ct is None:
            _count_cache("classify_cache.misses")
            ct = CLASSIFIERS[name](trace, self.config)
            cache[key] = ct
        else:
            _count_cache("classify_cache.hits")
        # re-bind the current knob settings (latency/bandwidth/VPU timing)
        return dataclasses.replace(ct, config=self.config)

    def seed_classification(self, trace: TraceBuffer,
                            ct: ClassifiedTrace) -> None:
        """Pre-load the classification cache with an externally computed
        result (a trace-cache sidecar reload), keyed under the current
        engine + geometry."""
        cache = getattr(trace, "_classified_cache", None)
        if cache is None:
            cache = {}
            setattr(trace, "_classified_cache", cache)
        cache[(self.classify_name, *self._geometry_key())] = ct

    def lower(self, trace: TraceBuffer, *,
              classified: ClassifiedTrace | None = None) -> LoweredTrace:
        """Lower (or fetch the cached lowering of) a sealed trace.

        Like classification, lowering is knob-independent, so it is cached
        on the trace object keyed by the knob-free config and amortizes
        across every sweep point and every batch call. ``classified`` is
        the trace's :meth:`classify` result when the caller already holds
        it, so the classification cache is not looked up a second time.
        """
        cache = getattr(trace, "_lowered_cache", None)
        if cache is None:
            cache = {}
            setattr(trace, "_lowered_cache", cache)
        ct = self.classify(trace) if classified is None else classified
        key = knob_free_config(self.config)
        lowered = cache.get(key)
        if lowered is None:
            _count_cache("lower_cache.misses")
            lowered = lower_trace(ct)
            cache[key] = lowered
        else:
            _count_cache("lower_cache.hits")
        return lowered

    def _instret(self, ct: ClassifiedTrace) -> tuple[int, int]:
        """(scalar, vector) retired-instruction counts of a trace."""
        rows = ct.rows
        kinds = rows["kind"]
        scalar_mask = kinds == KIND_SCALAR
        scalar = int(rows["n_alu"][scalar_mask].sum()
                     + rows["n_mem"][scalar_mask].sum())
        vector = int(((kinds == KIND_VARITH) | (kinds == KIND_VMEM)).sum())
        return scalar, vector

    def time(self, trace: TraceBuffer, *, engine: str | None = None
             ) -> CycleReport:
        """Cycle-count a sealed trace under the current knob settings."""
        name = engine or self.engine
        ct = self.classify(trace)
        if name == "batch":
            # reuse the trace-level lowered cache instead of re-lowering
            report = simulate_batch(self.lower(trace), [self.config])[0]
        else:
            report = ENGINES[name](ct)
        scalar, vector = self._instret(ct)
        self.counters.absorb(report, scalar_instret=scalar,
                             vector_instret=vector)
        return report

    def attribute(self, trace: TraceBuffer, *, engine: str | None = None):
        """Cycle attribution of a sealed trace at the current knobs.

        Returns a :class:`repro.obs.attribution.CycleAttribution` whose
        buckets sum bit-exactly to the run's cycle total; the buckets are
        also folded into :attr:`counters`.
        """
        from repro.obs.attribution import attribute  # avoid import cycle

        name = engine or self.engine
        ct = self.classify(trace)
        att = attribute(ct, engine=name, lowered=self.lower(trace))
        self.counters.record_attribution(att)
        return att

    def time_many(self, trace: TraceBuffer, configs: Sequence[SdvConfig],
                  *, engine: str | None = None, reports: bool = True,
                  lowered: LoweredTrace | None = None
                  ) -> list[CycleReport] | np.ndarray:
        """Time one sealed trace at many knob settings in one call.

        With ``engine="batch"`` the trace is lowered once and every config
        is timed in a single vectorized walk; ``fast``/``event`` fall back
        to one run per config (same results — the batch engine matches
        ``fast`` bit-for-bit — but K trace walks instead of one). With
        ``reports=False`` the batch path returns a bare float64 cycles
        vector — no per-point :class:`CycleReport` objects are built (the
        compact sweep path) and hardware counters are not updated.
        ``lowered`` is the trace's :meth:`lower` result when the caller
        already holds it (batch only).
        """
        configs = list(configs)
        name = engine or self.engine
        if name == "batch":
            if lowered is None:
                lowered = self.lower(trace)
            if not reports:
                return batch_cycles(lowered, configs)
            out = simulate_batch(lowered, configs)
            for report in out:
                self.counters.absorb(report)
            return out
        saved = self.config
        try:
            out = []
            for cfg in configs:
                self.config = cfg.validate()
                out.append(self.time(trace, engine=name))
        finally:
            self.config = saved
        if not reports:
            return np.array([r.cycles for r in out])
        return out

    def run(self, build_fn, *args, engine: str | None = None, **kwargs):
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
