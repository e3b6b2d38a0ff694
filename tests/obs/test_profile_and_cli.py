"""End-to-end tests: the profile harness, the CLI verbs, the artifact
checker, and the instrumented sweep path."""

import json
import sys
from collections import Counter

import pytest

from repro.cli import main
from repro.core.sweeps import figure_sweeps, latency_sweep
from repro.errors import ConfigError
from repro.kernels import KERNELS
from repro.obs.check import check_file
from repro.obs.check import main as check_main
from repro.obs.manifest import load_and_validate
from repro.obs.perfetto import load_and_validate as load_trace
from repro.obs.profile import profile_kernel
from repro.obs.record import fold, recording, spans
from repro.workloads import get_scale


class TestProfileKernel:
    def test_profile_attributes_every_impl(self):
        r = profile_kernel("fft", scale="smoke", vls=(8, 64), seed=7)
        assert [e.impl for e in r.entries] == ["scalar", "vl8", "vl64"]
        for e in r.entries:
            e.attribution.check()
        table = r.render()
        assert "DRAM latency stall" in table and "vl64" in table
        assert "%" in r.render(fractions=True)

    def test_profile_times_each_impl_once(self, monkeypatch):
        # the attribution's L0 rung is the run: on event, L0, L2, L3 and
        # L4 (L1 is L0 at full bandwidth) and no separate timing run
        from repro.engine import ENGINES

        real = ENGINES["event"]
        timed = []

        def counting(ct):
            timed.append(ct.config)
            return real(ct)

        monkeypatch.setitem(ENGINES, "event", counting)
        r = profile_kernel("fft", scale="smoke", vls=(8,), seed=7,
                           engine="event")
        assert len(r.entries) == 2
        assert len(timed) == 2 * 4

    def test_profile_rejects_specification_engines(self):
        for name in ("fast", "event-ref"):
            with pytest.raises(ConfigError, match="batch.*event"):
                profile_kernel("fft", scale="smoke", vls=(8,),
                               engine=name)

    def test_profile_manifest_and_trace(self):
        with recording() as rec:
            r = profile_kernel("fft", scale="smoke", vls=(8,), seed=7,
                               timelines=True)
        assert r.records == rec.records
        m = r.manifest()
        assert m["kernel"] == "fft" and len(m["runs"]) == 2
        assert all("buckets" in run for run in m["runs"])
        assert m["engine_stats"] == fold(r.records)
        events = r.trace_events()
        # one timeline process per impl + the profile spans
        assert any(e.get("ph") == "X" for e in events)
        assert "profile:fft:vl8" in {e["name"] for e in events}
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
                   "--emit-json", str(tmp_path / "m.json"),
                   "--emit-trace", str(tmp_path / "t.json")])
        assert rc == 0
        for name in KERNELS:
            assert (tmp_path / f"m-{name}.json").exists()
            # each kernel's trace holds its own profile spans only
            trace = load_trace(tmp_path / f"t-{name}.json")
            spans_ = {e["name"] for e in trace["traceEvents"]
                      if e["name"].startswith("profile:")}
            assert spans_ == {f"profile:{name}:scalar",
                              f"profile:{name}:vl8"}


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

    def test_fig3_event_emit_json_writes_a_valid_manifest(self, tmp_path,
                                                          capsys):
        jpath = tmp_path / "fig3.json"
        rc = main(["fig3", "--kernel", "spmv", "--scale", "smoke",
                   "--vls", "8", "--engine", "event",
                   "--emit-json", str(jpath)])
        assert rc == 0
        mpath = tmp_path / "fig3.manifest.json"
        assert check_main([str(mpath)]) == 0
        assert load_and_validate(mpath)["engine"] == "event"

    def test_sweep_manifests_carry_their_kernels_counters(self, tmp_path,
                                                           capsys):
        rc = main(["fig4", "--kernel", "all", "--scale", "smoke",
                   "--vls", "8", "--engine-stats",
                   "--emit-json", str(tmp_path / "f4.json")])
        assert rc == 0
        total = {}
        for name in KERNELS:
            m = load_and_validate(tmp_path / f"f4-{name}.manifest.json")
            counters = m["engine_stats"]["counters"]
            assert counters["sweep.sweeps_run"] == 1
            assert counters["sweep.impls_timed"] == 2  # scalar + vl8
            assert m["engine_stats"]["highs"]
            for k, v in counters.items():
                total[k] = total.get(k, 0) + v
        # the per-kernel counters add up to the command's table
        out = capsys.readouterr().out
        assert f"{'sweep.sweeps_run':<32s} {len(KERNELS):>14,.0f}" in out
        assert total["sweep.sweeps_run"] == len(KERNELS)

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
        with recording() as rec:
            result = latency_sweep(spec, workload, latencies=[0, 256],
                                   vls=(8,), verify=False,
                                   attributions=True)
        for m in result.measurements:
            m.attribution.check()
            assert m.attribution.total == m.cycles
        counters = fold(rec.records)["counters"]
        assert counters["sweep.points_timed"] == len(result.measurements)

    def test_event_sweep_rows_attributed_by_the_event_engine(self):
        # each row's buckets come from the engine that timed it, so they
        # sum to that row's cycles
        spec = KERNELS["spmv"]
        workload = spec.prepare(get_scale("smoke"), 7)
        result = latency_sweep(spec, workload, latencies=[0, 256],
                               vls=(8,), verify=False, engine="event",
                               attributions=True)
        for m in result.measurements:
            m.attribution.check()
            assert m.attribution.engine == "event"
            assert m.attribution.total == m.cycles

    def test_sweep_spans_when_tracing(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        with recording() as rec:
            latency_sweep(spec, workload, latencies=[0], vls=(8,),
                          verify=False)
        names = [s["name"] for s in spans(rec.records)]
        assert "sweep:fft:latency" in names
        assert any(n.startswith("trace-gen:fft:") for n in names)

    @pytest.mark.parametrize("engine,stages", [
        ("batch", ("classify", "lower", "walk")),
        ("event", ("classify", "lower", "walk")),
    ])
    def test_retime_stage_spans(self, engine, stages):
        # one path on both engines, attributed or not: the attribution
        # ladder is timed inside the walk stage
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        for attributions in (False, True):
            with recording() as rec:
                latency_sweep(spec, workload, latencies=[0, 64], vls=(8,),
                              verify=False, engine=engine,
                              attributions=attributions)
            by_name = {s["name"]: s for s in spans(rec.records)}
            for impl in ("scalar", "vl8"):
                parent = by_name[f"re-time:fft:{impl}"]
                children = {name.split(":")[0] for name, s in
                            by_name.items()
                            if s["depth"] == parent["depth"] + 1
                            and name.endswith(f":fft:{impl}")}
                assert children == set(stages)
                for stage in stages:
                    child = by_name[f"{stage}:fft:{impl}"]
                    assert parent["t0"] <= child["t0"] <= child["t1"] \
                        <= parent["t1"]

    def test_walk_span_names_the_walk(self, batch_walk):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        for engine in ("batch", "event"):
            with recording() as rec:
                latency_sweep(spec, workload, latencies=[0, 64], vls=(8,),
                              verify=False, engine=engine)
            by_name = {s["name"]: s for s in spans(rec.records)}
            attrs = by_name["walk:fft:vl8"]["attrs"]
            if engine == "batch":
                assert attrs["walk"] == batch_walk
            else:
                assert "walk" not in attrs

    def test_classify_span_names_the_walk(self, classify_walk):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        with recording() as rec:
            latency_sweep(spec, workload, latencies=[0, 64], vls=(8,),
                          verify=False)
        by_name = {s["name"]: s for s in spans(rec.records)}
        assert by_name["classify:fft:vl8"]["attrs"]["walk"] == classify_walk

    def test_two_grid_sweep_span(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        with recording() as rec:
            figure_sweeps(spec, workload, latencies=[0], bandwidths=[8],
                          vls=(8,), verify=False)
        names = [s["name"] for s in spans(rec.records)]
        assert "sweep:fft:latency+bandwidth" in names
        assert names.count("walk:fft:vl8") == 1

    @staticmethod
    def _cache_counts(sweep):
        with recording() as rec:
            sweep()
        return {k: v for k, v in fold(rec.records)["counters"].items()
                if k.startswith(("classify_cache.", "lower_cache."))}

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("attributions", [False, True])
    def test_stages_look_each_cache_up_once(self, attributions, pooled):
        # the stage spans hand the classification and the lowering on
        # instead of looking them up again, so a cold batch task counts
        # one miss per cache and no hit, in process or in a pool worker
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        counts = self._cache_counts(lambda: figure_sweeps(
            spec, workload, latencies=[0, 64], bandwidths=[8], vls=(8,),
            verify=False, attributions=attributions,
            jobs=2 if pooled else 1))
        assert counts == {"classify_cache.misses": 2,  # scalar + vl8
                          "lower_cache.misses": 2}

    @pytest.mark.parametrize("attributions", [False, True])
    def test_event_sweep_lowers_each_trace_once(self, attributions,
                                                monkeypatch):
        # the event plan and the attribute stage share the trace's cached
        # lowering, so an event sweep compiles each trace exactly once
        from repro.engine.lower import lower_trace as real

        lowered = Counter()

        def counting(ct):
            lowered[id(ct.trace)] += 1
            return real(ct)

        # every module that binds the name, however it was imported
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "lower_trace", None) is real):
                monkeypatch.setattr(mod, "lower_trace", counting)
        spec = KERNELS["spmv"]
        workload = spec.prepare(get_scale("smoke"), 7)
        figure_sweeps(spec, workload, latencies=[0, 64], bandwidths=[8],
                      vls=(8,), verify=False, engine="event",
                      attributions=attributions)
        assert sorted(lowered.values()) == [1, 1]  # scalar + vl8

    def test_cache_hits_mean_reuse(self, tmp_path):
        # a figure over cached traces loads each trace once: its
        # classification comes from the same cache entry (one hit per
        # trace), and it is lowered once (one miss per trace)
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)

        def sweep():
            figure_sweeps(spec, workload, latencies=[0, 64],
                          bandwidths=[8], vls=(8,), verify=False,
                          trace_cache=tmp_path)

        sweep()  # records the traces with their classifications
        assert self._cache_counts(sweep) == {"classify_cache.hits": 2,
                                             "lower_cache.misses": 2}

    def test_parallel_sweep_matches_serial(self, capsys):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = latency_sweep(spec, workload, latencies=[0, 64],
                               vls=(8, 64), verify=False, jobs=1)
        parallel = latency_sweep(spec, workload, latencies=[0, 64],
                                 vls=(8, 64), verify=False, jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == parallel.series(impl)

    def test_serial_and_pool_record_the_same_stream(self, capsys):
        spec = KERNELS["fft"]

        def sweep(scale, jobs):
            workload = spec.prepare(get_scale(scale), 7)
            with recording() as rec:
                latency_sweep(spec, workload, latencies=[0], vls=(8, 64),
                              verify=False, engine="event", jobs=jobs)
            return (Counter(r["name"] for r in rec.records
                            if r["kind"] == "begin"),
                    Counter(r["name"] for r in rec.records
                            if r["kind"] == "event"),
                    fold(rec.records))

        # a larger sweep first, so the pool's persistent workers have
        # seen higher high-water marks than the smoke sweep reaches
        sweep("ci", jobs=2)
        serial, pooled = sweep("smoke", jobs=1), sweep("smoke", jobs=2)
        assert serial[2]["highs"]["event.slab_high_water"] > 0
        assert pooled == serial


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
