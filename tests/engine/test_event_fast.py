"""Bit-exactness of the array-backed event engine against the reference.

The contract (``docs/engines.md``): ``simulate_events_fast`` is an
order-isomorphic reimplementation of the coroutine DES — same integer
cycle counts, same breakdown, same DRAM/NoC/limiter/latency accounting,
same timelines, same attribution buckets — on every kernel, VL, and knob
setting. These tests enforce *equality*, not an envelope: any drift
between the two engines is a bug in one of them.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SdvConfig, VpuConfig
from repro.core.sweeps import latency_sweep, run_implementation
from repro.engine import ENGINES
from repro.engine.batch_sim import simulate_batch_one
from repro.engine.event_fast import simulate_events_fast
from repro.engine.event_sim import simulate_events
from repro.isa import ScalarContext, VectorContext
from repro.kernels import KERNELS
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.memory.reuse import profile_trace
from repro.obs.attribution import _ladder_attribution, attribute
from repro.obs.timeline import TimelineRecorder
from repro.trace.events import TraceBuffer
from repro.workloads import get_scale

GRID_VLS = (8, 64, 256)

#: sampled sweep-knob points: the paper's latency axis (including the
#: off-grid 517 to catch quantization assumptions) and bandwidth axis
KNOB_CONFIGS = [
    SdvConfig().with_extra_latency(517),
    SdvConfig().with_extra_latency(1024),
    SdvConfig().with_bandwidth(1),
    SdvConfig().with_bandwidth(4),
    SdvConfig(vpu=VpuConfig(chaining=False)),
    SdvConfig(vpu=VpuConfig(mem_queue_depth=1)).with_extra_latency(800),
]


def assert_reports_identical(ref, fast):
    """Field-for-field equality of two CycleReports (labels aside)."""
    assert ref.engine == "event-ref" and fast.engine == "event"
    for f in ("cycles", "scalar_issue_cycles", "scalar_stall_cycles",
              "vpu_arith_cycles", "vpu_mem_cycles",
              "bandwidth_bound_cycles", "dram_reads", "dram_writes"):
        assert getattr(ref, f) == getattr(fast, f), (
            f, getattr(ref, f), getattr(fast, f))
    assert ref.meta == fast.meta


@functools.lru_cache(maxsize=None)
def _classified(name, vl, scale="smoke", seed=7):
    spec = KERNELS[name]
    wl = spec.prepare(get_scale(scale), seed)
    sdv, trace = run_implementation(spec, wl, vl, verify=False)
    return sdv.classify(trace)


class TestRegistry:
    def test_two_engines_registered(self):
        # the specifications (simulate_fast, simulate_events) are not
        # runtime engines
        assert set(ENGINES) == {"batch", "event"}

    def test_event_resolves_to_fast_event_engine(self):
        assert ENGINES["event"] is simulate_events_fast


class TestKernelGrid:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("vl", GRID_VLS)
    def test_smoke_grid_bit_identical(self, kernel, vl):
        ct = _classified(kernel, vl)
        assert_reports_identical(simulate_events(ct),
                                 simulate_events_fast(ct))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_scalar_impl_bit_identical(self, kernel):
        ct = _classified(kernel, None)
        assert_reports_identical(simulate_events(ct),
                                 simulate_events_fast(ct))


class TestKnobPoints:
    @pytest.mark.parametrize("kernel,vl", [("spmv", 64), ("fft", 8),
                                           ("pagerank", 256)])
    @pytest.mark.parametrize("cfg", KNOB_CONFIGS,
                             ids=["lat517", "lat1024", "bw1", "bw4",
                                  "nochain", "lat800-shallow"])
    def test_sampled_knobs_bit_identical(self, kernel, vl, cfg):
        base = _classified(kernel, vl)
        ct = classify_trace(base.trace, cfg.validate())
        assert_reports_identical(simulate_events(ct),
                                 simulate_events_fast(ct))

    @pytest.mark.parametrize("cfg", KNOB_CONFIGS[:4])
    def test_batch_engine_stays_in_envelope(self, cfg):
        """The analytic batch engine is not bit-identical to the DES, but
        the three-way story must hold at knob points too: identical DRAM
        traffic, cycles within the documented agreement envelope."""
        base = _classified("spmv", 64)
        ct = classify_trace(base.trace, cfg.validate())
        event = simulate_events_fast(ct)
        batch = simulate_batch_one(ct)
        assert batch.dram_reads == event.dram_reads
        assert batch.dram_writes == event.dram_writes
        assert batch.cycles == pytest.approx(event.cycles, rel=0.6)


class TestObservability:
    @pytest.mark.parametrize("kernel,vl", [("fft", 64), ("spmv", 256)])
    def test_timeline_parity(self, kernel, vl):
        ct = _classified(kernel, vl)
        tl_ref, tl_fast = TimelineRecorder(), TimelineRecorder()
        simulate_events(ct, timeline=tl_ref)
        simulate_events_fast(ct, timeline=tl_fast)
        assert tl_fast.engine == "event"
        ref = [(e.track, e.name, e.start, e.dur, e.args)
               for e in tl_ref.events]
        fast = [(e.track, e.name, e.start, e.dur, e.args)
                for e in tl_fast.events]
        assert ref == fast

    @pytest.mark.parametrize("kernel,vl", [("fft", 64), ("spmv", 8)])
    def test_attribution_parity(self, kernel, vl):
        ct = _classified(kernel, vl)
        ref = _ladder_attribution(ct, simulate_events)
        fast = attribute(ct, engine="event")
        assert (ref.engine, fast.engine) == ("event-ref", "event")
        assert ref.total == fast.total
        assert ref.buckets == fast.buckets
        assert ref.ladder == fast.ladder
        fast.check()


class TestTraceColumnsOnly:
    def test_event_sweep_and_reuse_profile_read_no_trace_row(
            self, monkeypatch):
        """The event plan and the reuse profile read the classifier's
        line-request arrays and the trace columns, never a record built
        from a trace row."""
        reads = []
        row = TraceBuffer.__getitem__

        def counted(self, i):
            reads.append(i)
            return row(self, i)

        monkeypatch.setattr(TraceBuffer, "__getitem__", counted)
        spec = KERNELS["spmv"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, latencies=(0, 256), vls=(8,),
                      engine="event")
        assert len(reads) == 0
        _sdv, trace = run_implementation(spec, workload, 8, verify=False)
        profile_trace(trace)
        assert len(reads) == 0


# ---------------------------------------------------------------- property

N_DATA = 1 << 12


@st.composite
def programs(draw):
    n_steps = draw(st.integers(2, 12))
    steps = []
    for _ in range(n_steps):
        op = draw(st.sampled_from(
            ["load", "store", "gather", "arith_chain", "reduce", "scalar",
             "barrier"]))
        params = {
            "off": draw(st.integers(0, N_DATA - 512)),
            "avl": draw(st.sampled_from([5, 8, 17, 64, 200, 256])),
            "chain": draw(st.integers(1, 4)),
        }
        steps.append((op, params))
    return steps


def build_trace(steps, seed):
    rng = np.random.default_rng(seed)
    mem = MemoryImage(1 << 22)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=256)
    scl = ScalarContext(mem, trace)
    data = mem.alloc("data", rng.random(N_DATA))
    out = mem.alloc("out", N_DATA, np.float64)
    idx = mem.alloc("idx", rng.integers(0, N_DATA, N_DATA))

    last = None
    for op, p in steps:
        vl = vec.vsetvl(p["avl"])
        if op == "load":
            last = vec.vle(data, p["off"])
        elif op == "store":
            v = last if last is not None and last.vl == vl else vec.vfmv(1.0)
            vec.vse(v, out, p["off"])
        elif op == "gather":
            iv = vec.vle(idx, p["off"])
            last = vec.vlxe(data, iv)
        elif op == "arith_chain":
            v = last if last is not None and last.vl == vl else vec.vfmv(2.0)
            for _ in range(p["chain"]):
                v = vec.vfadd(v, 1.0)
            last = v
        elif op == "reduce":
            v = last if last is not None and last.vl == vl else vec.vfmv(3.0)
            vec.vfredsum(v)
        elif op == "scalar":
            addr_idx = rng.integers(0, N_DATA, 64)
            scl.emit_block(data.addr(addr_idx), False, 128)
        elif op == "barrier":
            scl.barrier()
        if last is not None and last.vl != vec.vl:
            last = None
    scl.flush()
    return trace.seal()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 31),
       st.sampled_from([(0, 64), (517, 64), (1024, 64), (0, 4), (800, 1)]))
def test_property_event_engines_bit_identical(steps, seed, knobs):
    """Random small traces: the two DES implementations never diverge."""
    extra_latency, bpc = knobs
    trace = build_trace(steps, seed)
    config = (SdvConfig().with_extra_latency(extra_latency)
              .with_bandwidth(bpc))
    ct = classify_trace(trace, config)
    assert_reports_identical(simulate_events(ct), simulate_events_fast(ct))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 31))
def test_property_no_chaining_bit_identical(steps, seed):
    trace = build_trace(steps, seed)
    config = dataclasses.replace(SdvConfig(),
                                 vpu=VpuConfig(chaining=False))
    ct = classify_trace(trace, config)
    assert_reports_identical(simulate_events(ct), simulate_events_fast(ct))
