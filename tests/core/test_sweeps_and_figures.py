"""Tests for the study harness: sweeps, figure extraction, rendering."""

import dataclasses

import pytest

from repro.core.figures import (
    figure3_series,
    figure4_table,
    figure5_series,
    headline_numbers,
    plateau_bandwidth,
)
from repro.core.measurements import Measurement, SweepResult
from repro.core.report import (
    render_figure3,
    render_figure4,
    render_figure5,
    render_headline,
)
from repro.core.sweeps import (
    bandwidth_sweep,
    impl_label,
    latency_sweep,
    run_implementation,
    vl_sweep,
)
from repro.errors import ConfigError, KernelError, ReproError
from repro.kernels import KERNELS
from repro.workloads import get_scale

SCALE = get_scale("smoke")
VLS = (8, 64)
LATS = (0, 128, 1024)
BWS = (1, 8, 64)


@pytest.fixture(scope="module")
def spmv_latency():
    spec = KERNELS["spmv"]
    wl = spec.prepare(SCALE, 7)
    return latency_sweep(spec, wl, latencies=LATS, vls=VLS)


@pytest.fixture(scope="module")
def spmv_bandwidth():
    spec = KERNELS["spmv"]
    wl = spec.prepare(SCALE, 7)
    return bandwidth_sweep(spec, wl, bandwidths=BWS, vls=VLS)


class TestRunImplementation:
    def test_scalar_and_vector_build(self):
        spec = KERNELS["fft"]
        wl = spec.prepare(SCALE, 3)
        for vl in (None, 8):
            sdv, trace = run_implementation(spec, wl, vl)
            assert trace.sealed and len(trace) > 0

    def test_verification_catches_broken_kernel(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(SCALE, 7)
        import dataclasses
        broken = dataclasses.replace(
            spec, check=lambda out, ref: False
        )
        with pytest.raises(KernelError):
            run_implementation(broken, wl, None)

    def test_impl_label(self):
        assert impl_label(None) == "scalar"
        assert impl_label(256) == "vl256"


class TestLatencySweep:
    def test_grid_complete(self, spmv_latency):
        r = spmv_latency
        assert r.points == list(LATS)
        assert r.impls == ["scalar", "vl8", "vl64"]
        assert len(r.measurements) == len(LATS) * 3

    def test_time_monotone_in_latency(self, spmv_latency):
        for impl in spmv_latency.impls:
            s = spmv_latency.series(impl)
            assert all(a < b for a, b in zip(s, s[1:]))

    def test_vl_reduces_time(self, spmv_latency):
        for i, lat in enumerate(LATS):
            assert (spmv_latency.series("vl64")[i]
                    < spmv_latency.series("vl8")[i])

    def test_specification_engines_rejected_before_generation(self):
        # simulate_fast and simulate_events are not runtime engines
        spec = KERNELS["spmv"]
        emitted = []
        counting = dataclasses.replace(
            spec, scalar=lambda session, wl: emitted.append(1))
        for name in ("fast", "event-ref"):
            with pytest.raises(ConfigError, match="batch.*event"):
                latency_sweep(counting, spec.prepare(SCALE, 7),
                              latencies=LATS, vls=VLS, verify=False,
                              engine=name)
        assert emitted == []


class TestBandwidthSweep:
    def test_grid_complete(self, spmv_bandwidth):
        assert spmv_bandwidth.points == list(BWS)
        assert len(spmv_bandwidth.measurements) == len(BWS) * 3

    def test_time_monotone_nonincreasing_in_bandwidth(self, spmv_bandwidth):
        for impl in spmv_bandwidth.impls:
            s = spmv_bandwidth.series(impl)
            assert all(a >= b for a, b in zip(s, s[1:]))


class TestVlSweep:
    def test_returns_all_impls(self):
        spec = KERNELS["fft"]
        wl = spec.prepare(SCALE, 3)
        out = vl_sweep(spec, wl, vls=VLS)
        assert set(out) == {"scalar", "vl8", "vl64"}
        assert all(v > 0 for v in out.values())


class TestFigureExtraction:
    def test_figure3(self, spmv_latency):
        series = figure3_series(spmv_latency)
        assert set(series) == set(spmv_latency.impls)
        assert len(series["scalar"]) == len(LATS)

    def test_figure3_needs_latency_axis(self, spmv_bandwidth):
        with pytest.raises(ReproError):
            figure3_series(spmv_bandwidth)

    def test_figure4_normalizes_to_one(self, spmv_latency):
        table = figure4_table(spmv_latency)
        for impl in spmv_latency.impls:
            assert table[impl][0] == pytest.approx(1.0)
            assert all(v >= 1.0 for v in table[impl])

    def test_figure4_needs_zero_point(self):
        r = SweepResult(kernel="k", axis="latency", points=[32], impls=["x"])
        r.add(Measurement(kernel="k", impl="x", extra_latency=32,
                          bandwidth_bpc=64, cycles=1.0))
        with pytest.raises(ReproError):
            figure4_table(r)

    def test_figure5_normalizes_to_min_bandwidth(self, spmv_bandwidth):
        series = figure5_series(spmv_bandwidth)
        for impl in spmv_bandwidth.impls:
            assert series[impl][0] == pytest.approx(1.0)
            assert all(v <= 1.0 + 1e-9 for v in series[impl])

    def test_headline_numbers(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(SCALE, 7)
        r = latency_sweep(spec, wl, latencies=(0, 32, 1024), vls=(256,))
        h = headline_numbers(r)
        assert h.scalar_at_32 > h.vl256_at_32 >= 1.0
        assert h.scalar_at_1024 > h.vl256_at_1024 > 1.0
        assert len(h.rows()) == 4

    def test_plateau_detection_synthetic(self):
        r = SweepResult(kernel="k", axis="bandwidth", points=[1, 2, 4, 8],
                        impls=["a"])
        for bpc, cycles in [(1, 100), (2, 50), (4, 49), (8, 49)]:
            r.add(Measurement(kernel="k", impl="a", extra_latency=0,
                              bandwidth_bpc=bpc, cycles=cycles))
        assert plateau_bandwidth(r, "a") == 2

    def test_plateau_scalar_before_vl64(self, spmv_bandwidth):
        assert (plateau_bandwidth(spmv_bandwidth, "scalar")
                <= plateau_bandwidth(spmv_bandwidth, "vl64"))


class TestRendering:
    def test_figure3_text(self, spmv_latency):
        out = render_figure3(spmv_latency)
        assert "Figure 3" in out and "spmv" in out
        assert "scalar" in out and "vl64" in out

    def test_figure4_text(self, spmv_latency):
        out = render_figure4(spmv_latency)
        assert "Figure 4" in out
        assert "1.00" in out

    def test_figure4_color(self, spmv_latency):
        out = render_figure4(spmv_latency, color=True)
        assert "\x1b[48;5;" in out

    def test_figure5_text(self, spmv_bandwidth):
        out = render_figure5(spmv_bandwidth)
        assert "Figure 5" in out and "plateaus" in out

    def test_headline_text(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(SCALE, 7)
        r = latency_sweep(spec, wl, latencies=(0, 32, 1024), vls=(256,))
        out = render_headline(headline_numbers(r))
        assert "paper" in out and "8.78x" in out
