"""Tests for roofline characterization — including the paper's Section 3.1
claims about the kernels' characters."""

import pytest

from repro.config import SdvConfig
from repro.core.analysis import (
    Characterization,
    characterize,
    count_fp_ops,
    peak_flops_per_cycle,
    roofline_bound,
    traffic_breakdown,
)
from repro.kernels import KERNELS
from repro.soc import FpgaSdv
from repro.workloads import get_scale


def run_and_characterize(kernel, impl="vector", vl=256):
    spec = KERNELS[kernel]
    wl = spec.prepare(get_scale("smoke"), 7)
    sdv = FpgaSdv()
    if impl == "vector":
        sdv.configure(max_vl=vl)
    sess = sdv.session()
    spec.build(impl)(sess, wl)
    trace = sess.seal()
    ct = sdv.classify(trace)
    report = sdv.time(trace)
    return characterize(ct, report, kernel=kernel, impl=impl)


class TestRooflineModel:
    def test_vpu_peak_is_lanes_fmas(self):
        cfg = SdvConfig().validate()
        assert peak_flops_per_cycle(cfg, vector=True) == 16.0

    def test_bound_is_min_of_roofs(self):
        cfg = SdvConfig().validate()
        # memory-bound region: low AI
        assert roofline_bound(cfg, 0.01, vector=True) == pytest.approx(0.64)
        # compute-bound region: high AI
        assert roofline_bound(cfg, 100.0, vector=True) == 16.0

    def test_bandwidth_knob_moves_the_roof(self):
        cfg = SdvConfig().with_bandwidth(1)
        assert roofline_bound(cfg, 1.0, vector=True) == pytest.approx(1.0)


class TestCharacterization:
    def test_properties(self):
        c = Characterization(kernel="k", impl="v", cycles=100.0,
                             fp_ops=200.0, dram_bytes=400.0,
                             l1_refs=1, l2_refs=2, dram_refs=3)
        assert c.arithmetic_intensity == 0.5
        assert c.flops_per_cycle == 2.0
        assert c.dram_bytes_per_cycle == 4.0

    def test_zero_traffic_is_infinite_ai(self):
        c = Characterization(kernel="k", impl="v", cycles=1.0, fp_ops=1.0,
                             dram_bytes=0.0, l1_refs=0, l2_refs=0,
                             dram_refs=0)
        assert c.arithmetic_intensity == float("inf")

    def test_achieved_below_roofline(self):
        """No run may beat the machine's roofline (sanity of the model)."""
        cfg = SdvConfig().validate()
        for kernel in KERNELS:
            c = run_and_characterize(kernel)
            bound = roofline_bound(cfg, c.arithmetic_intensity, vector=True)
            assert c.flops_per_cycle <= bound * 1.05, (kernel, c)


class TestPaperCharacterizations:
    """Section 3.1's qualitative descriptions, measured."""

    def test_spmv_is_memory_bound(self):
        c = run_and_characterize("spmv")
        assert c.arithmetic_intensity < 1.0  # well under the ridge point

    def test_pagerank_more_intense_than_bfs(self):
        pr = run_and_characterize("pagerank")
        bfs = run_and_characterize("bfs")
        assert pr.fp_ops > bfs.fp_ops

    def test_fft_most_arithmetically_intense(self):
        fft = run_and_characterize("fft")
        spmv = run_and_characterize("spmv")
        assert fft.arithmetic_intensity > spmv.arithmetic_intensity


class TestFpCounting:
    def test_fma_counts_double(self):
        from repro.isa import VectorContext
        from repro.memory.address_space import MemoryImage
        from repro.memory.classify import classify_trace
        from repro.trace.events import TraceBuffer

        mem = MemoryImage(1 << 16)
        trace = TraceBuffer()
        vec = VectorContext(mem, trace, max_vl=8)
        vec.vsetvl(8)
        a = vec.vfmv(1.0)
        vec.vfadd(a, 1.0)          # 8 flops
        vec.vfmacc(a, a, 2.0)      # 16 flops
        ct = classify_trace(trace.seal(), SdvConfig().validate())
        # vfmv contributes 8 as an ARITH op as well
        assert count_fp_ops(ct) == 8 + 8 + 16

    def test_integer_ops_do_not_count(self):
        from repro.isa import VectorContext
        from repro.memory.address_space import MemoryImage
        from repro.memory.classify import classify_trace
        from repro.trace.events import TraceBuffer

        mem = MemoryImage(1 << 16)
        trace = TraceBuffer()
        vec = VectorContext(mem, trace, max_vl=8)
        vec.vsetvl(8)
        v = vec.vid()
        vec.vadd(v, 1)
        vec.vsll(v, 2)
        ct = classify_trace(trace.seal(), SdvConfig().validate())
        assert count_fp_ops(ct) == 0


class TestTrafficBreakdown:
    def test_levels_sum_sensibly(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        sdv = FpgaSdv()
        sess = sdv.session()
        spec.vector(sess, wl)
        ct = sdv.classify(sess.seal())
        t = traffic_breakdown(ct)
        assert t["dram_bytes"] > 0
        assert t["l2_bytes"] >= 0
        assert t["dram_bytes"] == ct.dram_bytes
