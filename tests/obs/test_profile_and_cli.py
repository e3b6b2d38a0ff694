"""End-to-end tests: the profile harness, the CLI verbs, the artifact
checker, and the instrumented sweep path."""

import json

import pytest

from repro.cli import main
from repro.core.sweeps import figure_sweeps, latency_sweep
from repro.kernels import KERNELS
from repro.obs.check import check_file
from repro.obs.check import main as check_main
from repro.obs.manifest import load_and_validate
from repro.obs.metrics import get_metrics
from repro.obs.perfetto import load_and_validate as load_trace
from repro.obs.profile import profile_kernel
from repro.obs.spans import set_tracing
from repro.workloads import get_scale


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Leave the process-wide tracer the way we found it (disabled)."""
    yield
    set_tracing(False)


class TestProfileKernel:
    def test_profile_attributes_every_impl(self):
        r = profile_kernel("fft", scale="smoke", vls=(8, 64), seed=7)
        assert [e.impl for e in r.entries] == ["scalar", "vl8", "vl64"]
        for e in r.entries:
            e.attribution.check()
            assert e.report.attribution is e.attribution
        table = r.render()
        assert "DRAM latency stall" in table and "vl64" in table
        assert "%" in r.render(fractions=True)

    def test_profile_manifest_and_trace(self):
        set_tracing(True)
        r = profile_kernel("fft", scale="smoke", vls=(8,), seed=7,
                           timelines=True)
        m = r.manifest()
        assert m["kernel"] == "fft" and len(m["runs"]) == 2
        assert all("buckets" in run for run in m["runs"])
        events = r.trace_events()
        # one timeline process per impl + the profile spans
        assert any(e.get("ph") == "X" for e in events)
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names


class TestProfileCli:
    def test_profile_verb_prints_table(self, capsys):
        rc = main(["profile", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8,64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle attribution — fft" in out
        assert "DRAM latency stall" in out

    def test_profile_emits_valid_artifacts(self, tmp_path, capsys):
        mpath = tmp_path / "fft.manifest.json"
        tpath = tmp_path / "fft.trace.json"
        rc = main(["profile", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--emit-json", str(mpath),
                   "--emit-trace", str(tpath)])
        assert rc == 0
        assert check_file(str(mpath)) == "manifest"
        assert check_file(str(tpath)) == "trace"
        m = load_and_validate(mpath)
        assert m["scale"] == "smoke"

    def test_profile_all_kernels_suffixes_paths(self, tmp_path, capsys):
        rc = main(["profile", "--kernel", "all", "--scale", "smoke",
                   "--vls", "8", "--no-verify",
                   "--emit-json", str(tmp_path / "m.json")])
        assert rc == 0
        for name in KERNELS:
            assert (tmp_path / f"m-{name}.json").exists()


class TestFigureEmission:
    def test_fig3_emit_json_and_manifest(self, tmp_path, capsys):
        jpath = tmp_path / "fig3.json"
        rc = main(["fig3", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--emit-json", str(jpath)])
        assert rc == 0
        data = json.loads(jpath.read_text())
        assert data["schema"] == "repro.sweep/1"
        manifest = data["meta"]["manifest"]
        sibling = load_and_validate(tmp_path / "fig3.manifest.json")
        assert sibling["axis"] == "latency"
        assert manifest["config_hash"] == sibling["config_hash"]
        # attribution riding along: every sweep point carries buckets
        assert all("buckets" in run for run in sibling["runs"])

    def test_fig5_emit_trace_contains_sweep_spans(self, tmp_path, capsys):
        tpath = tmp_path / "fig5.trace.json"
        rc = main(["fig5", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8", "--emit-trace", str(tpath)])
        assert rc == 0
        obj = load_trace(tpath)
        names = {e["name"] for e in obj["traceEvents"]}
        assert "sweep:fft:bandwidth" in names
        for stage in ("re-time", "classify", "lower", "walk"):
            assert any(n.startswith(f"{stage}:fft:") for n in names), stage


class TestChecker:
    def test_check_main_ok_and_fail(self, tmp_path, capsys):
        good = tmp_path / "t.json"
        good.write_text(json.dumps({"traceEvents": []}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        assert check_main([str(good)]) == 0
        assert check_main([str(good), str(bad)]) == 1
        assert check_main([]) == 2


class TestInstrumentedSweep:
    def test_sweep_attributions_and_metrics(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        before = get_metrics().counter("sweep.points_timed").value
        result = latency_sweep(spec, workload, latencies=[0, 256],
                               vls=(8,), verify=False, attributions=True)
        for m in result.measurements:
            m.attribution.check()
            assert m.attribution.total == m.cycles
        after = get_metrics().counter("sweep.points_timed").value
        assert after - before == len(result.measurements)

    def test_sweep_spans_when_tracing(self):
        tracer = set_tracing(True)
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, latencies=[0], vls=(8,), verify=False)
        names = [s.name for s in tracer.spans]
        assert "sweep:fft:latency" in names
        assert any(n.startswith("trace-gen:fft:") for n in names)

    @pytest.mark.parametrize("engine,stages", [
        ("batch", ("classify", "lower", "walk")),
        ("fast", ("classify", "walk")),
    ])
    def test_retime_stage_spans(self, engine, stages):
        tracer = set_tracing(True)
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, latencies=[0, 64], vls=(8,),
                      verify=False, engine=engine)
        spans = {s.name: s for s in tracer.spans}
        for impl in ("scalar", "vl8"):
            parent = spans[f"re-time:fft:{impl}"]
            for stage in ("classify", "lower", "walk"):
                child = spans.get(f"{stage}:fft:{impl}")
                if stage not in stages:
                    assert child is None
                    continue
                assert child.depth == parent.depth + 1
                assert parent.t0 <= child.t0 <= child.t1 <= parent.t1

    def test_two_grid_sweep_span(self):
        tracer = set_tracing(True)
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        figure_sweeps(spec, workload, latencies=[0], bandwidths=[8],
                      vls=(8,), verify=False)
        names = [s.name for s in tracer.spans]
        assert "sweep:fft:latency+bandwidth" in names
        assert names.count("walk:fft:vl8") == 1

    @staticmethod
    def _cache_counts(sweep):
        from repro.obs import engine_stats as es_mod

        was = es_mod.introspection_enabled()
        collector = es_mod.set_introspection(True)
        before = collector.snapshot()
        try:
            sweep()
        finally:
            es_mod.set_introspection(was)
        delta = es_mod.snapshot_delta(
            before, collector.snapshot())["counters"]
        return {k: v for k, v in delta.items()
                if k.startswith(("classify_cache.", "lower_cache."))}

    @pytest.mark.parametrize("keep_reports", [False, True])
    @pytest.mark.parametrize("attributions", [False, True])
    def test_stages_look_each_cache_up_once(self, attributions,
                                            keep_reports):
        # the stage spans hand the classification and the lowering on
        # instead of looking them up again, so a cold batch task counts
        # one miss per cache and no hit
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        counts = self._cache_counts(lambda: figure_sweeps(
            spec, workload, latencies=[0, 64], bandwidths=[8], vls=(8,),
            verify=False, attributions=attributions,
            keep_reports=keep_reports))
        assert counts == {"classify_cache.misses": 2,  # scalar + vl8
                          "lower_cache.misses": 2}

    def test_cache_hits_mean_reuse(self, tmp_path):
        # a figure over traces memoized by an earlier one hits each cache
        # once per trace
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)

        def sweep():
            figure_sweeps(spec, workload, latencies=[0, 64],
                          bandwidths=[8], vls=(8,), verify=False,
                          trace_cache=tmp_path)

        sweep()  # records the traces
        sweep()  # loads them into the memo and lowers them
        assert self._cache_counts(sweep) == {"classify_cache.hits": 2,
                                             "lower_cache.hits": 2}

    def test_parallel_sweep_matches_serial(self, capsys):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = latency_sweep(spec, workload, latencies=[0, 64],
                               vls=(8, 64), verify=False, jobs=1)
        parallel = latency_sweep(spec, workload, latencies=[0, 64],
                                 vls=(8, 64), verify=False, jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == parallel.series(impl)


class TestHeadlineAndCharacterize:
    def test_headline_shows_section32_counters(self, capsys):
        rc = main(["headline", "--scale", "smoke", "--vls", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Section 3.2 counters" in out
        assert "vector instruction fraction" in out
        assert "cycle share: VPU busy" in out

    def test_characterize_shows_vector_fraction(self, capsys):
        rc = main(["characterize", "--kernel", "fft", "--scale", "smoke",
                   "--vls", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vec frac" in out and "%" in out
