"""Unit tests for the discrete-event reference engine."""

import numpy as np
import pytest

from repro.config import SdvConfig, VpuConfig
from repro.engine.event_sim import simulate_events
from repro.isa import ScalarContext, VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.trace.events import TraceBuffer


def run_program(build, config=None, max_vl=256):
    config = (config or SdvConfig()).validate()
    mem = MemoryImage(1 << 22)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=max_vl)
    scl = ScalarContext(mem, trace)
    build(mem, scl, vec)
    scl.flush()
    ct = classify_trace(trace.seal(), config)
    return simulate_events(ct)


class TestBasics:
    def test_empty_trace(self):
        ct = classify_trace(TraceBuffer().seal(), SdvConfig().validate())
        assert simulate_events(ct).cycles == 0.0

    def test_alu_only(self):
        r = run_program(lambda m, s, v: s.emit_alu(100))
        assert r.cycles == pytest.approx(50.0)

    def test_single_vector_load_latency(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(8, dtype=np.float64))
            vec.vsetvl(8)
            vec.vle(a)
        cfg = SdvConfig().validate()
        r = run_program(build, config=cfg)
        # one line from DRAM: dispatch + NoC + bank + DRAM + NoC back
        assert r.cycles >= cfg.mem.dram_service_cycles
        assert r.cycles < 3 * cfg.dram_latency

    def test_latency_knob_visible(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(8, dtype=np.float64))
            vec.vsetvl(8)
            vec.vle(a)
        base = run_program(build).cycles
        slow = run_program(build,
                           config=SdvConfig().with_extra_latency(1000)).cycles
        assert slow - base == pytest.approx(1000, rel=0.05)

    def test_bandwidth_knob_visible(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(4096, dtype=np.float64))
            i, n = 0, 4096
            while i < n:
                vl = vec.vsetvl(n - i)
                vec.vle(a, i)
                i += vl
        fast = run_program(build, config=SdvConfig().with_bandwidth(64))
        slow = run_program(build, config=SdvConfig().with_bandwidth(2))
        assert slow.cycles > 5 * fast.cycles

    def test_scalar_mlp_bound(self):
        def build_with_mlp(mlp):
            def build(mem, scl, vec):
                rng = np.random.default_rng(0)
                a = mem.alloc("x", rng.random(1 << 14))
                idx = rng.integers(0, 1 << 14, 256)
                scl.emit_block(a.addr(idx), False, 0, mlp_hint=mlp)
            return build

        serial = run_program(build_with_mlp(1)).cycles
        parallel = run_program(build_with_mlp(1 << 20)).cycles
        assert parallel < serial / 2

    def test_queue_full_stalls_dispatch(self):
        def stream(mem, scl, vec):
            a = mem.alloc("x", np.arange(1 << 12, dtype=np.float64))
            i, n = 0, 1 << 12
            while i < n:
                vl = vec.vsetvl(n - i)
                vec.vle(a, i)
                i += vl

        deep = SdvConfig(vpu=VpuConfig(mem_queue_depth=16)
                         ).with_extra_latency(800)
        shallow = SdvConfig(vpu=VpuConfig(mem_queue_depth=1)
                            ).with_extra_latency(800)
        assert (run_program(stream, config=deep, max_vl=8).cycles
                < run_program(stream, config=shallow, max_vl=8).cycles)

    def test_breakdown_populated(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(256, dtype=np.float64))
            vec.vsetvl(256)
            v = vec.vle(a)
            vec.vfadd(v, 1.0)
            scl.emit_alu(10)
        r = run_program(build)
        assert r.engine == "event-ref"
        assert r.vpu_arith_cycles > 0
        assert r.scalar_issue_cycles > 0
