"""Unit tests for the fast (analytical) timing engine."""

import numpy as np
import pytest

from repro.config import SdvConfig, VpuConfig
from repro.engine.fast_sim import simulate_fast
from repro.isa import ScalarContext, VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.trace.events import TraceBuffer


def run_program(build, config=None, max_vl=256):
    """Build a tiny program and time it with the fast engine."""
    config = (config or SdvConfig()).validate()
    mem = MemoryImage(1 << 22)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=max_vl)
    scl = ScalarContext(mem, trace)
    build(mem, scl, vec)
    scl.flush()
    ct = classify_trace(trace.seal(), config)
    return simulate_fast(ct)


class TestBasics:
    def test_empty_trace_is_zero_cycles(self):
        ct = classify_trace(TraceBuffer().seal(), SdvConfig().validate())
        assert simulate_fast(ct).cycles == 0.0

    def test_alu_only_block(self):
        r = run_program(lambda m, s, v: s.emit_alu(100))
        assert r.cycles == pytest.approx(100 / 2)  # issue width 2

    def test_cycles_positive_for_any_memory_work(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(64, dtype=np.float64))
            scl.emit_block(a.addr(np.arange(64)), False, 0)
        r = run_program(build)
        assert r.cycles > 0
        assert r.dram_reads > 0

    def test_report_totals_match_classification(self):
        def build(mem, scl, vec):
            a = mem.alloc("x", np.arange(512, dtype=np.float64))
            vec.vsetvl(256)
            vec.vle(a)
            vec.vle(a, 256)
        r = run_program(build)
        assert r.dram_reads == 64  # 512 doubles = 64 lines
        assert r.dram_bytes == 64 * 64


class TestLatencyResponse:
    def _gather_heavy(self, mem, scl, vec):
        rng = np.random.default_rng(0)
        a = mem.alloc("x", rng.random(1 << 15))
        idx = mem.alloc("idx", rng.integers(0, 1 << 15, 1 << 12))
        i = 0
        n = 1 << 12
        while i < n:
            vl = vec.vsetvl(n - i)
            iv = vec.vle(idx, i)
            vec.vlxe(a, iv)
            i += vl

    def test_time_increases_with_latency(self):
        base = run_program(self._gather_heavy)
        slow = run_program(self._gather_heavy,
                           config=SdvConfig().with_extra_latency(512))
        assert slow.cycles > base.cycles

    def test_larger_vl_flatter_slope(self):
        def slope(max_vl):
            t0 = run_program(self._gather_heavy, max_vl=max_vl).cycles
            t1 = run_program(
                self._gather_heavy,
                config=SdvConfig().with_extra_latency(1024),
                max_vl=max_vl,
            ).cycles
            return t1 / t0

        assert slope(256) < slope(8)


class TestBandwidthResponse:
    def _stream(self, mem, scl, vec):
        a = mem.alloc("x", np.arange(1 << 14, dtype=np.float64))
        b = mem.alloc("y", 1 << 14, np.float64)
        i, n = 0, 1 << 14
        while i < n:
            vl = vec.vsetvl(n - i)
            v = vec.vle(a, i)
            vec.vse(v, b, i)
            i += vl

    def test_time_decreases_with_bandwidth(self):
        t1 = run_program(self._stream, config=SdvConfig().with_bandwidth(1))
        t64 = run_program(self._stream, config=SdvConfig().with_bandwidth(64))
        assert t64.cycles < t1.cycles

    def test_throttled_run_is_bandwidth_bound(self):
        r = run_program(self._stream, config=SdvConfig().with_bandwidth(1))
        # 2048 read lines at 1/64 requests/cycle dominates everything
        assert r.cycles >= (r.dram_reads - 1) * 64

    def test_achieved_bandwidth_respects_limit(self):
        for bpc in (1, 4, 64):
            r = run_program(self._stream,
                            config=SdvConfig().with_bandwidth(bpc))
            # the last in-flight line can round the average up slightly
            assert r.achieved_bytes_per_cycle <= bpc * 1.01


class TestDecoupling:
    def test_scalar_work_overlaps_vector_memory(self):
        def vector_only(mem, scl, vec):
            a = mem.alloc("x", np.arange(1 << 13, dtype=np.float64))
            i, n = 0, 1 << 13
            while i < n:
                vl = vec.vsetvl(n - i)
                vec.vle(a, i)
                i += vl

        def with_scalar(mem, scl, vec):
            a = mem.alloc("x", np.arange(1 << 13, dtype=np.float64))
            i, n = 0, 1 << 13
            while i < n:
                vl = vec.vsetvl(n - i)
                vec.vle(a, i)
                scl.emit_alu(20)  # decoupled core runs this for free
                i += vl

        t_a = run_program(vector_only).cycles
        t_b = run_program(with_scalar).cycles
        assert t_b < t_a * 1.3

    def test_reduction_synchronizes_scalar_core(self):
        def with_sync(mem, scl, vec):
            a = mem.alloc("x", np.arange(4096, dtype=np.float64))
            i, n = 0, 4096
            while i < n:
                vl = vec.vsetvl(n - i)
                v = vec.vle(a, i)
                vec.vfredsum(v)   # scalar destination: core waits
                i += vl

        def without_sync(mem, scl, vec):
            a = mem.alloc("x", np.arange(4096, dtype=np.float64))
            i, n = 0, 4096
            while i < n:
                vl = vec.vsetvl(n - i)
                v = vec.vle(a, i)
                vec.vfadd(v, 1.0)
                i += vl

        assert (run_program(with_sync).cycles
                > run_program(without_sync).cycles)

    def test_queue_depth_improves_latency_tolerance(self):
        def stream(mem, scl, vec):
            a = mem.alloc("x", np.arange(1 << 13, dtype=np.float64))
            i, n = 0, 1 << 13
            while i < n:
                vl = vec.vsetvl(n - i)
                vec.vle(a, i)
                i += vl

        def cycles(depth):
            cfg = SdvConfig(
                vpu=VpuConfig(mem_queue_depth=depth)
            ).with_extra_latency(1024)
            return run_program(stream, config=cfg, max_vl=8).cycles

        assert cycles(16) < cycles(1)

    def test_barrier_serializes(self):
        def with_barrier(mem, scl, vec):
            a = mem.alloc("x", np.arange(512, dtype=np.float64))
            vec.vsetvl(256)
            vec.vle(a)
            scl.barrier()
            vec.vle(a, 256)

        def without_barrier(mem, scl, vec):
            a = mem.alloc("x", np.arange(512, dtype=np.float64))
            vec.vsetvl(256)
            vec.vle(a)
            vec.vle(a, 256)

        assert (run_program(with_barrier).cycles
                >= run_program(without_barrier).cycles)


class TestChaining:
    def test_chaining_speeds_up_dependent_chains(self):
        def chain(mem, scl, vec):
            a = mem.alloc("x", np.arange(4096, dtype=np.float64))
            i, n = 0, 4096
            while i < n:
                vl = vec.vsetvl(n - i)
                v = vec.vle(a, i)
                v = vec.vfmul(v, 2.0)
                v = vec.vfadd(v, 1.0)
                vec.vse(v, a, i)
                i += vl

        chained = run_program(chain).cycles
        cfg = SdvConfig(vpu=VpuConfig(chaining=False)).validate()
        unchained = run_program(chain, config=cfg).cycles
        assert chained < unchained
