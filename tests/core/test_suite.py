"""Tests for the whole-study report generator."""

import dataclasses
from collections import Counter

import pytest

import repro.soc.sdv as sdv_mod
from repro.core.analysis import characterize
from repro.core.suite import SuiteResult, render_report, run_suite
from repro.core.sweeps import figure_sweeps, run_implementation
from repro.kernels import KERNELS
from repro.workloads import get_scale


@pytest.fixture(scope="module")
def suite():
    return run_suite(scale_name="smoke", vls=(8, 256), kernels=["spmv",
                                                                "fft"])


class TestRunSuite:
    def test_covers_requested_kernels(self, suite):
        assert set(suite.latency) == {"spmv", "fft"}
        assert set(suite.bandwidth) == {"spmv", "fft"}

    def test_sweep_grids_complete(self, suite):
        from repro.core.sweeps import DEFAULT_BANDWIDTHS, DEFAULT_LATENCIES
        assert suite.latency["spmv"].points == list(DEFAULT_LATENCIES)
        assert suite.bandwidth["fft"].points == list(DEFAULT_BANDWIDTHS)

    def test_elapsed_recorded(self, suite):
        assert suite.elapsed_s > 0


class TestRenderReport:
    def test_contains_all_sections(self, suite):
        text = render_report(suite)
        for heading in ("# FPGA-SDV study report", "## Machine",
                        "## Headline numbers", "## Figure 3", "## Figure 4",
                        "## Figure 5", "## Plateau summary", "## Roofline",
                        "## Conclusions checked"):
            assert heading in text, heading

    def test_quotes_paper_values(self, suite):
        text = render_report(suite)
        assert "8.78x" in text  # the paper column of the headline table

    def test_skips_headline_without_spmv(self):
        s = run_suite(scale_name="smoke", vls=(8,), kernels=["fft"])
        text = render_report(s)
        assert "Headline numbers" not in text
        assert "Figure 3" in text

    def test_renders_without_vl256(self):
        # the headline is defined at vl256; every other section falls back
        # to the suite's longest VL instead of failing
        s = run_suite(scale_name="smoke", vls=(8, 64), kernels=["spmv"])
        text = render_report(s)
        assert "Headline numbers" not in text
        assert s.roofline["spmv"].impl == "vl64"
        assert "vs vl64" in text

    def test_seed_keyword_accepted_and_ignored(self, suite):
        assert render_report(suite, seed=7) == render_report(suite)
        assert render_report(suite, seed=3) == render_report(suite)


def _roofline_section(text):
    return text.split("## Roofline")[1].split("## Conclusions")[0]


def _fresh_characterization(name, seed):
    """The roofline placement computed the long way: a freshly generated
    vl256 trace, classified and timed on its own SDV."""
    spec = KERNELS[name]
    workload = spec.prepare(get_scale("smoke"), seed)
    sdv, trace = run_implementation(spec, workload, 256, verify=False)
    return characterize(sdv.classify(trace), sdv.time(trace), kernel=name,
                        impl="vl256")


class TestOnePipeline:
    """run_suite + render_report build every trace once and render the
    roofline from the suite's own traces."""

    def test_each_trace_generated_and_lowered_once(self, monkeypatch):
        emitted = Counter()
        walks = []

        def counting(name, variant, emit):
            def wrapper(session, workload):
                impl = ("scalar" if variant == "scalar"
                        else f"vl{session.vector.max_vl}")
                emitted[name, impl] += 1
                return emit(session, workload)
            return wrapper

        for name in ("spmv", "fft"):
            spec = KERNELS[name]
            monkeypatch.setitem(KERNELS, name, dataclasses.replace(
                spec, scalar=counting(name, "scalar", spec.scalar),
                vector=counting(name, "vector", spec.vector)))
        lower, walk = sdv_mod.lower_trace, sdv_mod.batch_cycles
        lowered = []
        monkeypatch.setattr(sdv_mod, "lower_trace",
                            lambda ct: lowered.append(ct) or lower(ct))
        monkeypatch.setattr(
            sdv_mod, "batch_cycles",
            lambda lw, cfgs: walks.append(len(cfgs)) or walk(lw, cfgs))

        render_report(run_suite(scale_name="smoke", vls=(8, 256),
                                kernels=["spmv", "fft"]))
        impls = [(k, i) for k in ("spmv", "fft")
                 for i in ("scalar", "vl8", "vl256")]
        assert emitted == Counter(impls)
        assert len(lowered) == len(impls)
        # one walk per trace over both grids' 14 points
        assert walks == [14] * len(impls)

    def test_roofline_matches_a_fresh_trace(self, suite):
        for name in ("spmv", "fft"):
            assert suite.roofline[name] == _fresh_characterization(name, 7)

    def test_roofline_without_a_default_knob_point(self):
        # no grid point sits at the default knobs, so the task times one
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        sweeps = figure_sweeps(spec, workload, latencies=(64,),
                               bandwidths=(8,), vls=(8, 256), verify=False)
        assert sweeps.roofline == _fresh_characterization("fft", 7)

    def test_roofline_cycles_come_from_the_suite_engine(self):
        s = run_suite(scale_name="smoke", vls=(8,), kernels=["fft"],
                      engine="event")
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        sdv, trace = run_implementation(spec, workload, 8, verify=False)
        assert s.roofline["fft"].cycles == \
            sdv.time(trace, engine="event").cycles

    def test_report_uses_the_suite_seed(self, monkeypatch):
        # render_report once rebuilt seed-7 workloads for the roofline
        # whatever seed the suite ran with
        s = run_suite(scale_name="smoke", seed=3, vls=(8, 256),
                      kernels=["spmv"])
        own = _fresh_characterization("spmv", 3)
        stale = _fresh_characterization("spmv", 7)
        assert s.roofline["spmv"] == own
        # the two seeds' rows tell apart in the rendered precision
        shown_own = f"{own.flops_per_cycle:.3f}"
        shown_stale = f"{stale.flops_per_cycle:.3f}"
        assert shown_own != shown_stale

        def no_prepare(scale, seed):
            raise AssertionError("render_report prepared a workload")

        monkeypatch.setitem(KERNELS, "spmv", dataclasses.replace(
            KERNELS["spmv"], prepare=no_prepare))
        section = _roofline_section(render_report(s))
        assert shown_own in section
        assert shown_stale not in section


class TestCliReport:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "r.md"
        rc = main(["report", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--output", str(out)])
        assert rc == 0
        assert out.exists()
        assert "Figure 5" in out.read_text()
