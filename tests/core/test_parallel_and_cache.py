"""Sweep-harness infrastructure: process fan-out + on-disk trace cache.

Covers the ``jobs=N`` worker-pool path (rows identical to serial across
the kernel x engine x axis grid), the persistent pool's lifecycle, the
``trace_cache=DIR`` path (a repeat run must not re-execute the kernel, and
an *edited* kernel must miss the cache), and the hoisted once-per-sweep
reference and workload fingerprint.
"""

import dataclasses
import multiprocessing
import os

import pytest

import repro.core.parallel as parallel_mod
import repro.core.sweeps as sweeps_mod
from repro.core.parallel import (
    default_jobs,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)
from repro.core.sweeps import (
    bandwidth_sweep,
    figure_sweeps,
    latency_sweep,
    run_implementation,
    trace_cache_path,
    vl_sweep,
    workload_fingerprint,
)
from repro.kernels import KERNELS
from repro.soc import FpgaSdv
from repro.workloads import get_scale


def _square(x):
    return x * x


class TestRunTasks:
    def test_serial_matches_parallel(self):
        tasks = list(range(8))
        assert run_tasks(_square, tasks, jobs=1) == \
            run_tasks(_square, tasks, jobs=2) == [x * x for x in tasks]

    def test_resolve_jobs(self):
        assert resolve_jobs(0) == default_jobs()
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(4) == 4

    def test_single_task_runs_inline(self):
        assert run_tasks(_square, [5], jobs=8) == [25]

    def test_pool_is_sized_to_the_tasks(self, monkeypatch):
        # an executor forks all its workers at the first submit, so the
        # pool must not be larger than the task list
        from concurrent.futures import Future

        asked = []

        class _Executor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def submit(self, fn, task):
                f = Future()
                f.set_result(fn(task))
                return f

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        shutdown_pool()
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _Executor)
        try:
            assert run_tasks(abs, [-1, -2], jobs=64) == [1, 2]
        finally:
            shutdown_pool()
        assert asked == [2]


class TestPersistentPool:
    def test_pool_survives_across_calls(self):
        shutdown_pool()
        try:
            run_tasks(_square, [1, 2, 3], jobs=2)
            first = parallel_mod._pool
            run_tasks(_square, [4, 5, 6], jobs=2)
            second = parallel_mod._pool
            if first is not None:  # pool came up on this platform
                assert second is first
        finally:
            shutdown_pool()
        assert parallel_mod._pool is None

    def test_pool_replaced_when_shape_changes(self):
        shutdown_pool()
        try:
            run_tasks(_square, [1, 2, 3], jobs=2)
            first = parallel_mod._pool
            run_tasks(_square, [1, 2, 3], jobs=3)
            second = parallel_mod._pool
            if first is not None and second is not None:
                assert second is not first
                assert second[0] == 3
        finally:
            shutdown_pool()

    def test_shape_change_waits_for_old_workers(self):
        # regression: the old pool was torn down with wait=False, leaving
        # orphaned workers that outlived their pool and could race state
        # the caller frees right after
        shutdown_pool()
        calls = {}

        class _Recorder:
            def shutdown(self, wait=False, cancel_futures=False):
                calls["wait"] = wait
                calls["cancel_futures"] = cancel_futures

        parallel_mod._pool = (99, _Recorder())
        try:
            parallel_mod._get_pool(2)
            assert calls == {"wait": True, "cancel_futures": True}
        finally:
            shutdown_pool()

    def test_forked_child_abandons_foreign_pool(self, monkeypatch):
        # a forked child inherits the parent's pool handle: it must build
        # its own pool and never shut the parent's down (that would kill
        # the parent's workers mid-dispatch)
        class _Foreign:
            def shutdown(self, *a, **k):
                raise AssertionError("foreign pool must not be shut down")

        foreign = _Foreign()
        monkeypatch.setattr(parallel_mod, "_pool", (1, foreign))
        monkeypatch.setattr(parallel_mod, "_pool_pid", os.getpid() + 1)
        try:
            pool = parallel_mod._get_pool(1)
            assert pool is not foreign
            assert parallel_mod._pool[1] is pool
            assert parallel_mod._pool_pid == os.getpid()
        finally:
            shutdown_pool()


class _FakePool:
    """Stands in for a ProcessPoolExecutor with pre-resolved futures."""

    def __init__(self, futures):
        self._futures = list(futures)
        self._next = 0

    def submit(self, fn, task):
        f = self._futures[self._next]
        self._next += 1
        return f

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenPoolRebuild:
    def test_rebuild_reports_each_task_once(self, monkeypatch):
        # a worker dies mid-run: the first dispatch completes some tasks
        # then raises BrokenProcessPool; the retry completes everything.
        # on_result must fire exactly once per task (no duplicate
        # heartbeats / double-merged worker records) and the rebuild must
        # surface on the observability counters.
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.record import fold, recording

        tasks = [1, 2, 3]
        first = []
        for t in tasks[:-1]:
            f = Future()
            f.set_result(t * t)
            first.append(f)
        broken = Future()
        broken.set_exception(BrokenProcessPool("worker died"))
        first.append(broken)
        second = []
        for t in tasks:
            f = Future()
            f.set_result(t * t)
            second.append(f)

        pools = iter([_FakePool(first), _FakePool(second)])
        monkeypatch.setattr(parallel_mod, "_get_pool",
                            lambda workers: next(pools))

        reported = []
        with recording() as rec:
            out = run_tasks(_square, tasks, jobs=2,
                            on_result=lambda i, r: reported.append(i))

        assert out == [1, 4, 9]
        assert sorted(reported) == [0, 1, 2]  # each index exactly once
        assert fold(rec.records)["counters"] == {"parallel.pool_rebuilt": 1}
        events = [r for r in rec.records if r["kind"] == "event"]
        assert [(r["name"], r["level"]) for r in events] == [
            ("parallel.pool_rebuilt", "warn")]

    def test_twice_broken_pool_falls_back_to_serial(self, monkeypatch):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs.record import fold, recording

        def broken_pool(workers):
            futures = []
            for _ in range(3):
                f = Future()
                f.set_exception(BrokenProcessPool("worker died"))
                futures.append(f)
            return _FakePool(futures)

        monkeypatch.setattr(parallel_mod, "_get_pool", broken_pool)
        reported = []
        with recording() as rec:
            out = run_tasks(_square, [1, 2, 3], jobs=2,
                            on_result=lambda i, r: reported.append(i))
        assert out == [1, 4, 9]  # serial fallback still computes
        assert sorted(reported) == [0, 1, 2]
        counters = fold(rec.records)["counters"]
        assert counters["parallel.serial_fallback"] == 1


# small grids: more than one point and two VLs, cheap enough for the full
# kernel x engine matrix at smoke scale
LATS = (0, 128, 512)
BWS = (4, 32)
VLS = (8, 32)


def _smoke(kernel):
    spec = KERNELS[kernel]
    return spec, spec.prepare(get_scale("smoke"), 7)


def _rows(result):
    """Every field a fanned-out sweep must reproduce, in result order."""
    out = []
    for m in result.measurements:
        att = None if m.attribution is None else \
            (m.attribution.engine, m.attribution.total,
             dict(m.attribution.buckets))
        out.append((m.kernel, m.impl, m.extra_latency, m.bandwidth_bpc,
                    m.cycles, att))
    return out


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class TestParallelSweeps:
    """``jobs=2`` (one pool task per implementation) returns exactly the
    serial path's rows: same cycles, attributions and order."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_latency_grid(self, kernel, engine):
        spec, workload = _smoke(kernel)
        serial = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine=engine)
        fanned = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine=engine, jobs=2)
        assert _rows(serial) == _rows(fanned)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_bandwidth_grid(self, kernel, engine):
        spec, workload = _smoke(kernel)
        serial = bandwidth_sweep(spec, workload, bandwidths=BWS, vls=VLS,
                                 verify=False, engine=engine)
        fanned = bandwidth_sweep(spec, workload, bandwidths=BWS, vls=VLS,
                                 verify=False, engine=engine, jobs=2)
        assert _rows(serial) == _rows(fanned)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_two_grids(self, kernel, engine, jobs):
        # one task per implementation times both grids in one call; its
        # rows are exactly those of the two one-grid sweeps
        spec, workload = _smoke(kernel)
        lat = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                            verify=False, engine=engine)
        bw = bandwidth_sweep(spec, workload, bandwidths=BWS, vls=VLS,
                             verify=False, engine=engine)
        both = figure_sweeps(spec, workload, latencies=LATS, bandwidths=BWS,
                             vls=VLS, verify=False, engine=engine,
                             jobs=jobs)
        assert _rows(both.latency) == _rows(lat)
        assert _rows(both.bandwidth) == _rows(bw)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_two_grids_attributions(self, jobs):
        # the fused attribution walk over the union of both grids
        spec, workload = _smoke("fft")
        lat = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                            verify=False, engine="batch", attributions=True)
        bw = bandwidth_sweep(spec, workload, bandwidths=BWS, vls=VLS,
                             verify=False, engine="batch", attributions=True)
        both = figure_sweeps(spec, workload, latencies=LATS, bandwidths=BWS,
                             vls=VLS, verify=False, engine="batch",
                             attributions=True, jobs=jobs)
        rows = both.latency.measurements + both.bandwidth.measurements
        assert all(m.attribution is not None for m in rows)
        assert _rows(both.latency) == _rows(lat)
        assert _rows(both.bandwidth) == _rows(bw)

    def test_batch_engine(self):
        spec, workload = _smoke("fft")
        serial = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine="batch")
        fanned = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine="batch", jobs=2)
        assert _rows(serial) == _rows(fanned)

    def test_attributions(self):
        # the event engine attributes each row with its own DES ladder
        spec, workload = _smoke("fft")
        serial = latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                               verify=False, engine="event",
                               attributions=True)
        fanned = latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                               verify=False, engine="event",
                               attributions=True, jobs=2)
        assert all(m.attribution is not None for m in fanned.measurements)
        assert _rows(serial) == _rows(fanned)

    def test_verified_sweep(self):
        spec, workload = _smoke("fft")
        serial = latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                               verify=True, engine="batch")
        fanned = latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                               verify=True, engine="batch", jobs=2)
        assert _rows(serial) == _rows(fanned)

    def test_jobs2_matches_serial_and_leaks_nothing(self):
        # the fan-out shares nothing through /dev/shm: a sweep must not
        # leave a segment behind, and tearing the pool down must leave
        # no worker process
        before = _shm_entries()
        spec, workload = _smoke("fft")
        serial = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine="batch")
        fanned = latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                               verify=False, engine="batch", jobs=2)
        assert _rows(serial) == _rows(fanned)
        assert _shm_entries() <= before
        shutdown_pool()
        assert multiprocessing.active_children() == []

    def test_restarted_pool_matches_serial(self):
        shutdown_pool()  # the sweep below must build a fresh pool
        try:
            spec, workload = _smoke("fft")
            serial = latency_sweep(spec, workload, latencies=LATS,
                                   vls=(8,), verify=False, engine="batch")
            fanned = latency_sweep(spec, workload, latencies=LATS,
                                   vls=(8,), verify=False, engine="batch",
                                   jobs=2)
            assert parallel_mod._pool is not None
            assert _rows(serial) == _rows(fanned)
        finally:
            shutdown_pool()

    def test_latency_sweep_jobs2_matches_serial(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = latency_sweep(spec, workload, vls=(8, 64))
        fanned = latency_sweep(spec, workload, vls=(8, 64), jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == fanned.series(impl)

    def test_bandwidth_sweep_jobs2_matches_serial(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        serial = bandwidth_sweep(spec, workload, vls=(8,))
        fanned = bandwidth_sweep(spec, workload, vls=(8,), jobs=2)
        for impl in serial.impls:
            assert serial.series(impl) == fanned.series(impl)


class TestCompiledKernelsInWorkers:
    def test_pool_workers_inherit_the_parents_build(self, monkeypatch):
        from repro import native
        from repro.obs.record import recording

        if native.library() is None:
            pytest.skip("no C compiler could build the compiled kernels")
        # a process that has not built the kernels yet, and a fresh pool
        monkeypatch.setattr(native, "_lib", None)
        shutdown_pool()
        spec, workload = _smoke("spmv")
        with recording() as rec:
            latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                          verify=False, jobs=2)
        workers = {r["pid"] for r in rec.records} - {os.getpid()}
        builds = [r["pid"] for r in rec.records
                  if r["kind"] == "count" and r["name"] == "native.builds"]
        if not workers:
            pytest.skip("no worker pool on this platform")
        # one build, in the parent, before the pool forked
        assert builds == [os.getpid()]


class _EmitterRan(Exception):
    """Raised by the edited-kernel stand-in to prove it executed."""


def _edited(session, workload):
    raise _EmitterRan


class TestTraceCache:
    def test_cache_files_written_and_results_identical(self, tmp_path):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        first = latency_sweep(spec, workload, vls=(8,),
                              trace_cache=tmp_path)
        # one file per implementation (scalar + vl8), holding the trace
        # and its classification
        assert len(list(tmp_path.iterdir())) == 2
        second = latency_sweep(spec, workload, vls=(8,),
                               trace_cache=tmp_path)
        for impl in first.impls:
            assert first.series(impl) == second.series(impl)

    def test_truncated_entry_is_regenerated(self, tmp_path):
        # a truncated zip at the entry path (what a write killed in place
        # leaves) must count as a miss, be rewritten whole, and not
        # change a single row
        from repro.obs.record import fold, recording
        from repro.trace.serialize import load_classified, load_trace

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        cold = latency_sweep(spec, workload, vls=(8,), verify=False)
        latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path,
                      verify=False)
        sdv = FpgaSdv().configure(max_vl=8)
        entry = trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                 spec=spec)
        data = entry.read_bytes()
        entry.write_bytes(data[:len(data) // 2])
        with recording() as rec:
            again = latency_sweep(spec, workload, vls=(8,),
                                  trace_cache=tmp_path, verify=False)
        for impl in cold.impls:
            assert again.series(impl) == cold.series(impl)
        counters = fold(rec.records)["counters"]
        assert counters["trace_cache.hits"] == 1  # scalar
        assert counters["trace_cache.misses"] == 1  # vl8, regenerated
        warned = [r for r in rec.records if r["kind"] == "event"
                  and r["name"] == "trace_cache.unreadable"]
        assert [r["level"] for r in warned] == ["warn"]
        assert warned[0]["attrs"]["path"] == str(entry)
        trace = load_trace(entry)
        assert load_classified(entry, trace, sdv.config) is not None
        assert len(list(tmp_path.iterdir())) == 2

    def test_entry_that_breaks_the_trace_format_is_regenerated(self,
                                                               tmp_path):
        # mlp 0 on a scalar block with memory ops would time the vl8
        # column wrong: load refuses it (T109), so the cached run
        # regenerates the entry and every row equals the uncached one
        import numpy as np

        from repro.obs.record import recording

        spec = KERNELS["spmv"]
        workload = spec.prepare(get_scale("smoke"), 7)
        cold = latency_sweep(spec, workload, vls=(8,), verify=False)
        latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path,
                      verify=False)
        sdv = FpgaSdv().configure(max_vl=8)
        entry = trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                 spec=spec)
        data = dict(np.load(entry))
        blocks = (data["kind"] == 0) & (np.diff(data["addr_off"]) > 0)
        data["mlp"][np.flatnonzero(blocks)[0]] = 0
        np.savez_compressed(entry, **data)
        with recording() as rec:
            again = latency_sweep(spec, workload, vls=(8,),
                                  trace_cache=tmp_path, verify=False)
        for impl in cold.impls:
            assert again.series(impl) == cold.series(impl)
        warned = [r for r in rec.records if r["kind"] == "event"
                  and r["name"] == "trace_cache.unreadable"]
        assert [r["level"] for r in warned] == ["warn"]
        assert "T109" in warned[0]["attrs"]["error"]

    @pytest.mark.parametrize("damage", ["kind", "count"])
    def test_entry_that_does_not_fit_itself_is_regenerated(self, tmp_path,
                                                          damage):
        # a whole zip whose record codes name nothing, or whose stored
        # counts do not add up to the stored line requests: a miss, and
        # the rewritten classification is a fresh one
        import numpy as np

        from repro.memory.classify import classify_trace
        from repro.obs.record import recording
        from repro.trace.serialize import load_classified, load_trace

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        sdv, _ = run_implementation(spec, workload, 8, verify=False,
                                    trace_cache=tmp_path)
        entry = trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                 spec=spec)
        data = dict(np.load(entry))
        if damage == "kind":
            data["kind"][-1] = 7
        else:
            data["cls_rows"]["dram_reads"][0] += 40
        np.savez_compressed(entry, **data)
        with recording() as rec:
            run_implementation(spec, workload, 8, verify=False,
                               trace_cache=tmp_path)
        warned = [r for r in rec.records if r["kind"] == "event"
                  and r["name"] == "trace_cache.unreadable"]
        assert len(warned) == 1
        trace = load_trace(entry)
        stored = load_classified(entry, trace, sdv.config)
        fresh = classify_trace(trace, sdv.config)
        for name in ("rows", "req_off", "lines", "levels"):
            assert np.array_equal(getattr(stored, name),
                                  getattr(fresh, name)), name
        assert stored.totals == fresh.totals

    def test_classifier_edit_misses_the_cache(self, tmp_path, monkeypatch,
                                              edit_source):
        # the entry stores the classification, so an edit to the
        # classifier must miss the cache like an edit to the kernel: here
        # the "edit" runs every L1 set with one way, in the code that
        # classifies and in the source the fingerprint hashes
        import repro.memory.classify as classify_mod

        spec = KERNELS["spmv"]
        workload = spec.prepare(get_scale("smoke"), 7)
        before = latency_sweep(spec, workload, vls=(8,),
                               trace_cache=tmp_path, verify=False)
        real_geometry = classify_mod._geometry

        def one_way(config):
            sets, _ways, *l2 = real_geometry(config)
            return (sets, 1, *l2)

        monkeypatch.setattr(classify_mod, "_geometry", one_way)
        edit_source("memory/classify.py")
        uncached = latency_sweep(spec, workload, vls=(8,), verify=False)
        assert uncached.series("scalar") != before.series("scalar")
        cached = latency_sweep(spec, workload, vls=(8,),
                               trace_cache=tmp_path, verify=False)
        for impl in uncached.impls:
            assert cached.series(impl) == uncached.series(impl)

    def test_classify_c_edit_changes_the_fingerprint(self, edit_source):
        from repro.core.sweeps import kernel_fingerprint

        spec = KERNELS["fft"]
        base = kernel_fingerprint(spec)
        edit_source("memory/classify.c")
        assert kernel_fingerprint(spec) != base

    @pytest.mark.parametrize("edited_file", [
        "memory/address_space.py",   # where the memory image places arrays
        "isa/vector_ctx.py",         # what each vector instruction records
        "trace/events.py",           # the record columns
    ])
    def test_recording_machinery_edit_stales_the_entry(
            self, tmp_path, edit_source, edited_file):
        # an entry's trace is shaped by more than the emitters: an edit
        # anywhere in the code that records or classifies it must change
        # the key, and the audit then flags the entry
        from repro.core.sweeps import kernel_fingerprint
        from repro.lint.config_rules import check_trace_cache

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        run_implementation(spec, workload, 8, verify=False,
                           trace_cache=tmp_path)
        base = kernel_fingerprint(spec)
        edit_source(edited_file)
        assert kernel_fingerprint(spec) != base
        assert [f.rule for f in check_trace_cache(tmp_path)] == ["S002"]

    @pytest.mark.parametrize("edited_file", [
        "engine/batch_sim.py", "core/sweeps.py", "obs/record.py",
        "cli.py",
    ])
    def test_timing_edit_keeps_the_entry(self, edit_source, edited_file):
        # the engines, the harness and observability only re-time,
        # orchestrate and observe a recorded trace: record once, re-time
        # after editing them
        from repro.core.sweeps import kernel_fingerprint

        spec = KERNELS["fft"]
        base = kernel_fingerprint(spec)
        edit_source(edited_file)
        assert kernel_fingerprint(spec) == base

    def test_cache_hit_skips_kernel_execution(self, tmp_path):
        # wrappers keep the cache key stable across both runs (the key
        # fingerprints the emitters' defining module, which here is this
        # test file either way) while counting every actual execution
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        calls = []

        def counting_scalar(session, w):
            calls.append("scalar")
            return spec.scalar(session, w)

        def counting_vector(session, w):
            calls.append("vector")
            return spec.vector(session, w)

        counted = dataclasses.replace(spec, scalar=counting_scalar,
                                      vector=counting_vector)
        latency_sweep(counted, workload, vls=(8,), trace_cache=tmp_path)
        assert calls  # the warming run did record the traces
        calls.clear()
        result = latency_sweep(counted, workload, vls=(8,),
                               trace_cache=tmp_path, verify=False)
        assert calls == []  # cache hit: no emitter re-executed
        assert len(result.measurements) == 2 * len(result.points)

    def test_changed_kernel_source_invalidates_cache(self, tmp_path):
        # the staleness guard: a spec whose emitter code differs from the
        # one that warmed the cache must re-record, not load a stale trace
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        latency_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        edited = dataclasses.replace(spec, scalar=_edited, vector=_edited)
        with pytest.raises(_EmitterRan):
            latency_sweep(edited, workload, vls=(8,),
                          trace_cache=tmp_path, verify=False)
        sdv = FpgaSdv().configure(max_vl=8)
        assert trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                                spec=spec) != \
            trace_cache_path(tmp_path, spec.name, workload, 8, sdv,
                             spec=edited)

    def test_template_machinery_edit_invalidates_cache(self, edit_source):
        # the cache key must cover the trace-template machinery (Dep
        # semantics, replicate fixups, emission mode), not just the
        # kernel emitters: an edit there changes every recorded dep and
        # address column without touching any kernels/ file
        from repro.core.sweeps import kernel_fingerprint

        spec = KERNELS["fft"]
        base = kernel_fingerprint(spec)
        assert base == kernel_fingerprint(spec)  # deterministic
        edit_source("trace/template.py")
        assert kernel_fingerprint(spec) != base

    @pytest.mark.parametrize("edited_module", [
        "kernels/pagerank/vector.py",    # wrapped by the package init
        "kernels/spmv/vector.py",        # its accumulate pass
        "kernels/spmv/formats.py",       # the SELL format it sweeps
    ])
    def test_pagerank_key_covers_the_modules_it_emits_with(
            self, edit_source, edited_module):
        # PageRank's spec callables live in its package __init__ and its
        # accumulate pass is SpMV's SELL sweep: an edit to any module its
        # trace comes from must miss the cache
        from repro.core.sweeps import kernel_fingerprint

        spec = KERNELS["pagerank"]
        base = kernel_fingerprint(spec)
        edit_source(edited_module)
        assert kernel_fingerprint(spec) != base

    def test_cache_key_distinguishes_vl_and_workload(self, tmp_path):
        spec = KERNELS["fft"]
        w7 = spec.prepare(get_scale("smoke"), 7)
        w8 = spec.prepare(get_scale("smoke"), 8)
        assert workload_fingerprint(w7) != workload_fingerprint(w8)
        assert workload_fingerprint(w7) == workload_fingerprint(w7)
        sdv8 = FpgaSdv().configure(max_vl=8)
        sdv64 = FpgaSdv().configure(max_vl=64)
        assert trace_cache_path(tmp_path, spec.name, w7, 8, sdv8) != \
            trace_cache_path(tmp_path, spec.name, w7, 64, sdv64)
        assert trace_cache_path(tmp_path, spec.name, w7, 8, sdv8) != \
            trace_cache_path(tmp_path, spec.name, w8, 8, sdv8)

    def test_cache_path_that_is_a_file_rejected(self, tmp_path):
        from repro.errors import TraceError
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        not_a_dir = tmp_path / "cache.txt"
        not_a_dir.write_text("")
        with pytest.raises(TraceError):
            run_implementation(spec, workload, 8, verify=False,
                               trace_cache=not_a_dir)

    def test_vl_sweep_accepts_cache(self, tmp_path):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        first = vl_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        second = vl_sweep(spec, workload, vls=(8,), trace_cache=tmp_path)
        assert first == second


class TestFingerprintHoist:
    def test_fingerprint_computed_once_per_sweep(self, monkeypatch):
        # one workload pickle per (kernel, workload) in the parent, not
        # one per implementation task
        spec, workload = _smoke("fft")
        calls = []
        real = workload_fingerprint

        def counting(w):
            calls.append(1)
            return real(w)

        monkeypatch.setattr(sweeps_mod, "workload_fingerprint", counting)
        latency_sweep(spec, workload, latencies=LATS, vls=VLS,
                      verify=False, engine="batch")
        assert len(calls) == 1

    def test_hoisted_fp_reaches_cache_path(self, tmp_path, monkeypatch):
        spec, workload = _smoke("fft")
        calls = []
        real = workload_fingerprint

        def counting(w):
            calls.append(1)
            return real(w)

        monkeypatch.setattr(sweeps_mod, "workload_fingerprint", counting)
        latency_sweep(spec, workload, latencies=LATS, vls=(8,),
                      verify=False, engine="batch", trace_cache=tmp_path)
        # serial in-process run: the hoisted fp flows into every
        # trace_cache_path call, so the workload pickles exactly once
        assert len(calls) == 1


class TestHoistedReference:
    def test_reference_computed_once_per_sweep(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        calls = []

        def counting_reference(w):
            calls.append(1)
            return spec.reference(w)

        counted = dataclasses.replace(spec, reference=counting_reference)
        latency_sweep(counted, workload, vls=(8, 64), verify=True)
        assert len(calls) == 1  # three implementations, one reference

    def test_explicit_reference_skips_recompute(self):
        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        ref = spec.reference(workload)
        poisoned = dataclasses.replace(
            spec, reference=lambda w: pytest.fail("reference recomputed"))
        sdv, trace = run_implementation(poisoned, workload, 8,
                                        verify=True, reference=ref)
        assert trace.sealed


class TestClassifiedSidecar:
    """The classification stored in each cache entry: reloads skip
    reclassification entirely."""

    def test_reload_seeds_from_sidecar_without_reclassifying(self, tmp_path):
        from repro.obs.record import fold, recording

        spec = KERNELS["fft"]
        workload = spec.prepare(get_scale("smoke"), 7)
        with recording() as rec:
            first = latency_sweep(spec, workload, vls=(8,),
                                  trace_cache=tmp_path, verify=False)
        # the cold sweep classifies both traces (scalar + vl8) ...
        assert fold(rec.records)["counters"]["classify.runs"] == 2
        with recording() as rec:
            second = latency_sweep(spec, workload, vls=(8,),
                                   trace_cache=tmp_path, verify=False)
        delta = fold(rec.records)["counters"]
        for impl in first.impls:
            assert first.series(impl) == second.series(impl)
        assert delta.get("trace_cache.hits") == 2  # scalar + vl8
        # ... and the stored classification means zero runs on reload
        assert delta.get("classify.runs", 0) == 0
