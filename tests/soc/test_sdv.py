"""Unit tests for the FpgaSdv top level."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, EngineError, TraceError
from repro.kernels.micro import stream_triad
from repro.soc import FpgaSdv


def stream_builder(session, n=2048):
    mem, vec = session.mem, session.vector
    a = mem.alloc("x", np.arange(n, dtype=np.float64))
    b = mem.alloc("y", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        v = vec.vle(a, i)
        vec.vse(v, b, i)
        i += vl
    return b.view.copy()


class TestConfigure:
    def test_defaults(self):
        sdv = FpgaSdv()
        assert sdv.max_vl == 256
        assert sdv.extra_latency == 0
        assert sdv.bandwidth_bpc == 64.0

    def test_knobs_apply(self):
        sdv = FpgaSdv().configure(max_vl=16, extra_latency=128,
                                  bandwidth_bpc=8)
        assert sdv.max_vl == 16
        assert sdv.extra_latency == 128
        assert sdv.bandwidth_bpc == 8.0

    def test_partial_reconfiguration(self):
        sdv = FpgaSdv().configure(max_vl=32)
        sdv.configure(extra_latency=64)
        assert sdv.max_vl == 32  # untouched

    def test_chainable(self):
        sdv = FpgaSdv()
        assert sdv.configure(max_vl=8) is sdv

    def test_invalid_engine(self):
        # the engine is chosen per call, never per SDV
        with pytest.raises(TypeError):
            FpgaSdv(engine="batch")
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_builder(sess, n=64)
        trace = sess.seal()
        # the specifications are not runtime engines
        for name in ("magic", "fast", "event-ref"):
            for call in (sdv.time, sdv.attribute):
                with pytest.raises(ConfigError, match="batch.*event"):
                    call(trace, engine=name)
            with pytest.raises(ConfigError, match="batch.*event"):
                sdv.time_many(trace, [sdv.config], engine=name)

    def test_invalid_vl(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            FpgaSdv().configure(max_vl=100)


class TestSessions:
    def test_session_respects_max_vl(self):
        sdv = FpgaSdv().configure(max_vl=16)
        sess = sdv.session()
        assert sess.vector.vsetvl(1000) == 16

    def test_sessions_are_isolated(self):
        sdv = FpgaSdv()
        s1 = sdv.session()
        s1.mem.alloc("x", 4, np.float64)
        s2 = sdv.session()
        assert "x" not in s2.mem

    def test_seal_flushes_scalar_state(self):
        sdv = FpgaSdv()
        sess = sdv.session()
        a = sess.mem.alloc("x", np.zeros(2))
        sess.scalar.load_f64(a, 0)
        trace = sess.seal()
        assert trace.sealed
        assert len(trace) == 1


class TestTiming:
    def test_run_returns_result_and_report(self):
        sdv = FpgaSdv()
        out, report = sdv.run(stream_builder)
        assert (out == np.arange(2048)).all()
        assert report.cycles > 0

    def test_counters_accumulate(self):
        sdv = FpgaSdv()
        sdv.run(stream_builder)
        first = sdv.counters.cycles
        sdv.run(stream_builder)
        assert sdv.counters.cycles > first
        assert len(sdv.counters.history) == 2

    def test_retiming_without_reclassification(self):
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_builder(sess)
        trace = sess.seal()
        t0 = sdv.time(trace).cycles
        sdv.configure(extra_latency=512)
        t1 = sdv.time(trace).cycles
        assert t1 > t0
        # classification cached once for the geometry
        assert len(getattr(trace, "_classified_cache")) == 1

    def test_engine_selection_per_call(self):
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_builder(sess, n=256)
        trace = sess.seal()
        batch = sdv.time(trace, engine="batch")
        event = sdv.time(trace, engine="event")
        assert batch.engine == "batch"
        assert event.engine == "event"
        assert sdv.time(trace).engine == "batch"  # the default

    def test_event_timing_derives_the_line_requests_once(self,
                                                         monkeypatch):
        # the event plan takes its banks from the classification's arena
        # instead of deriving the line requests again; every derivation
        # asks the loader for its kernel first
        from repro import native

        asked = []
        function = native.function

        def counting(name, *args):
            asked.append(name)
            return function(name, *args)

        monkeypatch.setattr(native, "function", counting)
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_triad(sess, n=1024)
        sdv.time(sess.seal(), engine="event")
        assert asked.count("repro_line_requests") == 1

    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_time_many_counts_like_time(self, engine):
        # every report a timing call returns is counted with the trace's
        # retired instructions, one call or many configs at once
        sess = FpgaSdv().session()
        stream_builder(sess, n=256)
        trace = sess.seal()
        one, many = FpgaSdv(), FpgaSdv()
        latencies = (0, 256)
        for lat in latencies:
            one.configure(extra_latency=lat).time(trace, engine=engine)
        reports = many.time_many(
            trace, [many.config.with_extra_latency(lat)
                    for lat in latencies], engine=engine)
        assert [r.cycles for r in reports] == one.counters.history
        for name in ("runs", "instret", "vector_fraction", "cycles",
                     "dram_reads", "dram_writes"):
            assert getattr(many.counters, name) == \
                getattr(one.counters, name), name
        assert many.counters.vector_fraction > 0
        # the sweep path returns bare cycles and counts nothing
        cycles = many.time_many(trace, [many.config], engine=engine,
                                reports=False)
        assert cycles.dtype == np.float64
        assert cycles.tolist() == [reports[0].cycles]
        assert many.counters.runs == len(latencies)

    @pytest.mark.parametrize("engine", ["batch", "event"])
    def test_time_many_rejects_a_config_from_another_build(self, engine):
        # the knobs are all a config may change: the trace was classified
        # and lowered for the SDV's own caches
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_builder(sess, n=256)
        trace = sess.seal()
        cfg = sdv.config
        wider_l2 = dataclasses.replace(
            cfg, l2=dataclasses.replace(cfg.l2, ways=2 * cfg.l2.ways))
        with pytest.raises(EngineError, match="latency/bandwidth knobs"):
            sdv.time_many(trace, [cfg.with_extra_latency(64),
                                  wider_l2.validate()], engine=engine)

    def test_timing_deterministic(self):
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_builder(sess)
        trace = sess.seal()
        assert sdv.time(trace).cycles == sdv.time(trace).cycles

    def test_vl_affects_time(self):
        t = {}
        for vl in (8, 256):
            sdv = FpgaSdv().configure(max_vl=vl)
            _, report = sdv.run(stream_builder)
            t[vl] = report.cycles
        assert t[256] < t[8]


class TestDependencies:
    @pytest.mark.parametrize("engine", ["batch", "event"])
    @pytest.mark.parametrize("where", ["forward", "self", "-2"])
    def test_dep_that_is_not_an_earlier_record_is_rejected(self, engine,
                                                           where):
        # a forward or self dep names a record not yet timed, -2 none
        sdv = FpgaSdv()
        sess = sdv.session()
        stream_triad(sess, n=1024)
        trace = sess.seal()
        dep = trace.cols.dep
        i = int(np.flatnonzero(dep >= 0)[0])
        dep[i] = {"forward": i + 1, "self": i, "-2": -2}[where]
        with pytest.raises(TraceError, match="earlier record"):
            sdv.time(trace, engine=engine)
