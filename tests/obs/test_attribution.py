"""Cycle-attribution invariants: bit-exact closure, cross-engine
agreement, and the paper's latency-tolerance story.

The grid tests pin the central contract of :mod:`repro.obs.attribution`:
for every kernel, VL, and engine, the seven buckets sum *bit-exactly*
(left-to-right in ``BUCKET_ORDER``) to the run's cycle total. The event
engine is orders of magnitude slower per attribution (five DES runs), so
it gets the full grid at smoke scale and spot checks at CI scale while
the batch engine and the ladder re-timed with its specification,
``simulate_fast`` (``fast`` below), cover the full CI grid.
"""

import dataclasses
import functools
import math

import pytest

from repro.config import SdvConfig
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    DEFAULT_VLS,
    bandwidth_sweep,
    latency_sweep,
    run_implementation,
)
from repro.engine import ENGINES
from repro.engine.fast_sim import simulate_fast
from repro.errors import EngineError
from repro.kernels import KERNELS
from repro.obs.attribution import (
    BUCKET_ORDER,
    _ladder_attribution,
    attribute,
    attribute_many,
    attribution_ladder,
)
from repro.workloads import get_scale


def attribute_fast(ct):
    """The ladder re-timed with the batch engine's specification."""
    return _ladder_attribution(ct, simulate_fast)


#: the analytic attributions: the batch engine's, and its specification's
ANALYTIC = {
    "batch": lambda ct: attribute(ct, engine="batch"),
    "fast": attribute_fast,
}


@functools.lru_cache(maxsize=None)
def _workload(name, scale, seed=7):
    return KERNELS[name].prepare(get_scale(scale), seed)


@functools.lru_cache(maxsize=None)
def _classified(name, vl, scale, seed=7):
    """Trace generation dominates this suite's cost; every (kernel, vl)
    pair is generated once and its classification cache reused across the
    engine/axis parametrizations (classification is knob-independent)."""
    spec = KERNELS[name]
    sdv, trace = run_implementation(spec, _workload(name, scale, seed), vl,
                                    verify=False)
    return sdv, sdv.classify(trace), trace


def assert_exact(att):
    """The hard invariant: stored-order float sum equals the total."""
    att.check()
    total = 0.0
    for b in BUCKET_ORDER:
        total += att.buckets[b]
    assert total == att.total
    assert all(v >= 0.0 or math.isclose(v, 0.0, abs_tol=1e-9)
               for v in att.buckets.values())


class TestBitExactClosure:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("vl", (None,) + DEFAULT_VLS)
    @pytest.mark.parametrize("engine", ["fast", "batch"])
    def test_ci_grid_analytic_engines(self, kernel, vl, engine):
        sdv, ct, _ = _classified(kernel, vl, "ci")
        att = ANALYTIC[engine](ct)
        assert att.engine == engine
        assert_exact(att)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("vl", (None,) + DEFAULT_VLS)
    def test_smoke_grid_event_engine(self, kernel, vl):
        sdv, ct, _ = _classified(kernel, vl, "smoke")
        assert_exact(attribute(ct, engine="event"))

    @pytest.mark.parametrize("kernel,vl", [("fft", 8), ("fft", 256),
                                           ("spmv", 64)])
    def test_ci_spot_event_engine(self, kernel, vl):
        sdv, ct, _ = _classified(kernel, vl, "ci")
        assert_exact(attribute(ct, engine="event"))

    def test_knobbed_configs_close_too(self):
        sdv, ct, trace = _classified("spmv", 64, "ci")
        saved = sdv.config
        try:
            for lat, bpc in [(1024, 64), (0, 1), (256, 4)]:
                sdv.configure(extra_latency=lat, bandwidth_bpc=bpc)
                ct_knobbed = sdv.classify(trace)
                assert_exact(attribute(ct_knobbed))
                assert_exact(attribute_fast(ct_knobbed))
        finally:
            sdv.config = saved


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("kernel", ["spmv", "fft"])
    @pytest.mark.parametrize("vl", [None, 8, 256])
    def test_fast_and_batch_buckets_identical(self, kernel, vl):
        # attribute(engine="batch") is one fused walk with the NoC and
        # cache rungs as l2_lat substitutions; the specification re-times
        # each rung's config, so this pins the substitution to it
        sdv, ct, _ = _classified(kernel, vl, "ci")
        fast = attribute_fast(ct)
        batch = attribute(ct, engine="batch")
        assert fast.buckets == batch.buckets
        assert fast.total == batch.total
        assert fast.ladder == batch.ladder
        assert fast.dram_latency_demand == batch.dram_latency_demand

    @pytest.mark.parametrize("kernel", ["spmv", "fft"])
    @pytest.mark.parametrize("axis", ["latency", "bandwidth"])
    def test_attribute_many_matches_per_point_fast(self, kernel, axis):
        """Every Figure-3/Figure-5 sweep point: the vectorized multi-config
        path and the ladder re-timed with ``simulate_fast`` at that config
        agree to the bit."""
        sdv, ct, trace = _classified(kernel, 64, "ci")
        base = sdv.config
        if axis == "latency":
            configs = [base.with_extra_latency(p) for p in DEFAULT_LATENCIES]
        else:
            configs = [base.with_bandwidth(p) for p in DEFAULT_BANDWIDTHS]
        many = attribute_many(ct, configs, lowered=sdv.lower(trace))
        assert len(many) == len(configs)
        try:
            for cfg, att in zip(configs, many):
                assert_exact(att)
                sdv.config = cfg
                single = attribute_fast(sdv.classify(trace))
                assert att.buckets == single.buckets
                assert att.total == single.total
        finally:
            sdv.config = base


class TestEventSweep:
    @pytest.mark.parametrize("axis", ["latency", "bandwidth"])
    def test_each_distinct_rung_is_timed_once(self, axis, monkeypatch):
        """An attributed event sweep times every distinct ladder rung of
        an implementation once, and each point's attribution is the
        ladder re-timed at that point's config."""
        spec = KERNELS["spmv"]
        workload = _workload("spmv", "smoke")
        real = ENGINES["event"]
        timed = []

        def counting(ct):
            timed.append(ct.config)
            return real(ct)

        monkeypatch.setitem(ENGINES, "event", counting)
        sweep = latency_sweep if axis == "latency" else bandwidth_sweep
        result = sweep(spec, workload, vls=(8,), verify=False,
                       engine="event", attributions=True)
        monkeypatch.undo()

        for impl, vl in (("scalar", None), ("vl8", 8)):
            sdv, trace = run_implementation(spec, workload, vl,
                                            verify=False)
            ct = sdv.classify(trace)
            rows = [m for m in result.measurements if m.impl == impl]
            configs = [sdv.config.with_extra_latency(m.extra_latency)
                       .with_bandwidth(m.bandwidth_bpc) for m in rows]
            rungs = {rung for cfg in configs
                     for rung in attribution_ladder(cfg)}
            # 7 L0 rungs; L1 is an L0 of the same grid; L2-L4 are shared
            assert len(rungs) == 10
            for m, cfg in zip(rows, configs):
                ref = _ladder_attribution(
                    dataclasses.replace(ct, config=cfg), real)
                assert m.attribution.as_dict() == ref.as_dict()
                assert m.cycles == ref.total
        assert len(timed) == len(set(timed)) == 2 * 10


class TestPaperStory:
    def test_spmv_dram_stall_shrinks_with_vl(self):
        """The acceptance criterion: exposed DRAM-latency stalls shrink
        monotonically as VL grows 8 -> 256 (longer vectors tolerate
        latency; the 'short reason' the paper measures)."""
        stalls = []
        for vl in DEFAULT_VLS:
            sdv, ct, _ = _classified("spmv", vl, "ci")
            att = attribute(ct)
            stalls.append(att.buckets["dram_stall"])
        assert stalls == sorted(stalls, reverse=True)
        assert stalls[0] > stalls[-1]

    def test_latency_demand_increasingly_hidden(self):
        """At long VL nearly all DRAM latency demand overlaps with VPU
        work instead of stalling the run."""
        cover = []
        for vl in (8, 256):
            sdv, ct, _ = _classified("spmv", vl, "ci")
            att = attribute(ct)
            assert att.dram_latency_demand > 0
            cover.append(att.dram_latency_hidden / att.dram_latency_demand)
        assert cover[1] >= cover[0]
        assert cover[1] > 0.99


class TestLadder:
    def test_ladder_levels_are_successively_idealized(self):
        base = SdvConfig().with_extra_latency(512).with_bandwidth(4)
        l0, l1, l2, l3, l4 = attribution_ladder(base)
        assert l0 is base
        assert l1.mem.bw_num == l1.mem.bw_den == 1
        assert l2.mem.extra_latency_cycles == 0
        assert l2.mem.dram_service_cycles == 0
        assert l2.dram_latency == l2.l2_hit_latency
        assert l3.noc.hop_cycles == 0 and l3.noc.inject_cycles == 0
        assert l4.l2.access_cycles == 1 and l4.core.l1_hit_cycles == 1

    def test_specification_names_rejected(self):
        sdv, ct, _ = _classified("fft", 8, "smoke")
        for name in ("fast", "event-ref"):
            with pytest.raises(EngineError, match="batch.*event"):
                attribute(ct, engine=name)

    def test_scalar_only_trace_attributes(self):
        """Scalar builds (no VPU records at all) still close exactly."""
        sdv, ct, _ = _classified("fft", None, "smoke")
        att = attribute(ct)
        assert_exact(att)
        assert att.buckets["vpu_busy"] == 0.0
