"""Tests for the configuration-comparison ("what-if") tooling."""

import pytest

from repro.config import L2Config, SdvConfig, VpuConfig
from repro.core.compare import (
    WhatIf,
    compare_configs,
    compare_sweeps,
)
from repro.core.measurements import Measurement, SweepResult
from repro.errors import ReproError
from repro.kernels import KERNELS


def sweep(cycles_scale=1.0):
    r = SweepResult(kernel="k", axis="latency", points=[0, 32],
                    impls=["scalar"])
    for p, c in [(0, 100.0), (32, 200.0)]:
        r.add(Measurement(kernel="k", impl="scalar", extra_latency=p,
                          bandwidth_bpc=64, cycles=c * cycles_scale))
    return r


class TestCompareSweeps:
    def test_speedup_ratio(self):
        out = compare_sweeps(sweep(1.0), sweep(0.5))
        assert out["scalar"] == [2.0, 2.0]

    def test_grid_mismatch_rejected(self):
        a = sweep()
        b = SweepResult(kernel="k", axis="latency", points=[0],
                        impls=["scalar"])
        b.add(Measurement(kernel="k", impl="scalar", extra_latency=0,
                          bandwidth_bpc=64, cycles=1.0))
        with pytest.raises(ReproError):
            compare_sweeps(a, b)


class TestWhatIf:
    def test_vary_builds_valid_configs(self):
        cfgs = WhatIf().vary("vpu.lanes", [4, 16])
        assert [c.vpu.lanes for c in cfgs] == [4, 16]
        # the base is untouched
        assert SdvConfig().vpu.lanes == 8

    def test_vary_rejects_unknown_fields(self):
        with pytest.raises(ReproError):
            WhatIf().vary("vpu.flux_capacitor", [1])
        with pytest.raises(ReproError):
            WhatIf().vary("warp.lanes", [1])
        with pytest.raises(ReproError):
            WhatIf().vary("lanes", [1])

    def test_vary_validates_results(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            WhatIf().vary("vpu.max_vl", [7])

    def test_measure_runs_the_loop(self, smoke_scale):
        spec = KERNELS["fft"]
        wl = spec.prepare(smoke_scale, 3)
        out = WhatIf().measure("vpu.lanes", [4, 16], spec=spec, workload=wl)
        assert set(out) == {4, 16}
        assert out[16] < out[4]  # more lanes, fewer cycles

    def test_measure_custom_metric(self, smoke_scale):
        spec = KERNELS["fft"]
        wl = spec.prepare(smoke_scale, 3)
        out = WhatIf().measure("mem.dram_service_cycles", [10, 100],
                               spec=spec, workload=wl,
                               metric=lambda r: r.dram_reads)
        # traffic is latency-independent
        assert out[10] == out[100]


class TestCompareConfigs:
    def test_bigger_l2_helps_or_ties(self, smoke_scale):
        small = SdvConfig(
            l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4)).validate()
        big = SdvConfig().validate()
        cmp_ = compare_configs(
            small, big,
            kernels={"spmv": KERNELS["spmv"]},
            scale_name="smoke", vls=(256,),
        )
        assert cmp_.speedup("spmv", "vl256") >= 1.0

    def test_render_table(self, smoke_scale):
        a = SdvConfig().validate()
        b = SdvConfig(vpu=VpuConfig(lanes=16)).validate()
        cmp_ = compare_configs(a, b, kernels={"fft": KERNELS["fft"]},
                               scale_name="smoke", vls=(None, 256))
        out = cmp_.render()
        assert "fft" in out and "x" in out
        assert "vl256" in out

    def test_identity_comparison_is_all_ones(self, smoke_scale):
        cfg = SdvConfig().validate()
        cmp_ = compare_configs(cfg, cfg, kernels={"fft": KERNELS["fft"]},
                               scale_name="smoke", vls=(256,))
        assert cmp_.speedup("fft", "vl256") == pytest.approx(1.0)
