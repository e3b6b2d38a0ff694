"""Equality suite for the compiled classification walk.

The compiled cache walk (``classify.c``) must be **bit-identical** to the
Python dict walk that specifies it — rows, line-request offsets, levels
and totals — on every trace and every cache geometry. Both run through
:func:`repro.memory.classify.classify_trace`; the Python walk is forced
by making the kernel loader report no library. These tests pin the
agreement down three ways: a kernel x VL grid on real generated traces,
a directed geometry/feature ablation grid on random traces, and a
Hypothesis property suite on adversarial access streams.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.config import CoreConfig, L2Config, SdvConfig, VpuConfig
from repro.memory.classify import classify_trace
from repro.memory.classify_fast import CLASSIFIERS, DEFAULT_CLASSIFIER
from repro.memory.reuse import first_touch_mask, prev_occurrence
from repro.trace.events import (
    ScalarBlock,
    TraceBuffer,
    VectorInstr,
    VMemPattern,
    VOpClass,
)

BASE = 0x10000


def tiny_cfg(**vpu_kwargs) -> SdvConfig:
    return SdvConfig(
        core=CoreConfig(l1d_bytes=4096, l1d_ways=4),
        l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
        vpu=VpuConfig(**vpu_kwargs),
    ).validate()


def both_walks(trace, cfg):
    """``(compiled, python)`` classifications of one trace."""
    if native.library() is None:
        pytest.skip("no C compiler could build the compiled kernels")
    compiled = classify_trace(trace, cfg)
    with mock.patch.object(native, "library", lambda: None):
        python = classify_trace(trace, cfg)
    return compiled, python


def assert_identical(a, b):
    """rows, request offsets, levels and totals all bit-identical."""
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.req_off, b.req_off)
    assert a.levels.dtype == b.levels.dtype == np.uint8
    assert np.array_equal(a.levels, b.levels)
    assert a.totals == b.totals


def rand_trace(rng, n_rec, vl) -> TraceBuffer:
    """Random mixed scalar/vector trace exercising every pattern."""
    tb = TraceBuffer()
    for _ in range(n_rec):
        if rng.random() < 0.45:
            k = int(rng.integers(1, 12))
            addrs = (rng.integers(0, 1 << 14, size=k)) * 8
            writes = rng.random(k) < 0.35
            tb.append(ScalarBlock(n_alu_ops=0,
                                  mem_addrs=addrs.astype(np.int64),
                                  mem_is_write=writes))
        else:
            pat = [VMemPattern.UNIT, VMemPattern.STRIDED,
                   VMemPattern.INDEXED][int(rng.integers(0, 3))]
            base = int(rng.integers(0, 1 << 12)) * 8
            k = int(rng.integers(1, vl + 1))
            if pat == VMemPattern.UNIT:
                addrs = base + 8 * np.arange(k)
            elif pat == VMemPattern.STRIDED:
                addrs = base + int(rng.integers(1, 9)) * 8 * np.arange(k)
            else:
                addrs = (rng.integers(0, 1 << 12, size=k)) * 8
            w = bool(rng.random() < 0.4)
            tb.append(VectorInstr(op=VOpClass.MEM, vl=k,
                                  opcode="vse" if w else "vle", pattern=pat,
                                  addrs=addrs.astype(np.int64), is_write=w))
    return tb.seal()


class TestKernelGrid:
    """Real generated traces: every kernel, scalar + two VLs."""

    @pytest.mark.parametrize("kernel", ["spmv", "bfs", "pagerank", "fft"])
    @pytest.mark.parametrize("vl", [None, 64, 256])
    def test_bit_identical_on_kernel_traces(self, kernel, vl):
        from repro.core.sweeps import run_implementation
        from repro.kernels import KERNELS
        from repro.workloads import get_scale

        spec = KERNELS[kernel]
        workload = spec.prepare(get_scale("smoke"), 7)
        _sdv, trace = run_implementation(spec, workload, vl, verify=False,
                                         reference=None, trace_cache=None)
        cfg = SdvConfig().validate()
        assert_identical(*both_walks(trace, cfg))


class TestAblationGrid:
    """Random traces across geometry / prefetch / coalescing ablations."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_prefetch_and_coalescing(self, depth, coalesce):
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=4096, l1d_ways=4,
                            l1_prefetch_depth=depth),
            l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
            vpu=VpuConfig(coalesce_gathers=coalesce),
        ).validate()
        rng = np.random.default_rng(depth * 2 + coalesce)
        for _ in range(6):
            tr = rand_trace(rng, int(rng.integers(10, 80)), 32)
            assert_identical(*both_walks(tr, cfg))

    @pytest.mark.parametrize("l1_bytes,l1_ways", [(4096, 2), (8192, 8)])
    @pytest.mark.parametrize("banks,bank_ways", [(1, 4), (4, 16)])
    def test_geometry_ablations(self, l1_bytes, l1_ways, banks, bank_ways):
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=l1_bytes, l1d_ways=l1_ways),
            l2=L2Config(banks=banks, bank_bytes=64 * 1024, ways=bank_ways),
        ).validate()
        rng = np.random.default_rng(l1_bytes + l1_ways + banks + bank_ways)
        for _ in range(6):
            tr = rand_trace(rng, int(rng.integers(10, 80)),
                            int(rng.choice([8, 64])))
            assert_identical(*both_walks(tr, cfg))


class TestPropertySuite:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_streams_identical(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_rec = data.draw(st.integers(1, 60))
        vl = data.draw(st.sampled_from([1, 8, 32, 64]))
        depth = data.draw(st.sampled_from([0, 2]))
        coalesce = data.draw(st.booleans())
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=4096, l1d_ways=4,
                            l1_prefetch_depth=depth),
            l2=L2Config(banks=2, bank_bytes=16 * 1024, ways=4),
            vpu=VpuConfig(coalesce_gathers=coalesce),
        ).validate()
        tr = rand_trace(np.random.default_rng(seed), n_rec, vl)
        assert_identical(*both_walks(tr, cfg))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=120))
    def test_prev_occurrence_matches_dict_walk(self, vals):
        lines = np.asarray(vals, dtype=np.int64)
        prev = prev_occurrence(lines)
        last: dict[int, int] = {}
        for t, line in enumerate(vals):
            assert prev[t] == last.get(line, -1)
            last[line] = t
        assert np.array_equal(first_touch_mask(lines), prev < 0)


class TestSelector:
    def test_registry_names_the_one_classifier(self):
        assert CLASSIFIERS == {DEFAULT_CLASSIFIER: classify_trace}

    def test_sdv_looks_the_classifier_up_at_call_time(self, monkeypatch):
        from repro.soc import FpgaSdv

        calls = []

        def wrapped(trace, cfg):
            calls.append(trace)
            return classify_trace(trace, cfg)

        monkeypatch.setitem(CLASSIFIERS, DEFAULT_CLASSIFIER, wrapped)
        tb = TraceBuffer()
        tb.append(ScalarBlock(n_alu_ops=0, mem_addrs=np.array([BASE]),
                              mem_is_write=np.zeros(1, dtype=bool)))
        trace = tb.seal()
        FpgaSdv().classify(trace)
        assert calls == [trace]

    def test_seed_classification_round_trip(self):
        from repro.soc import FpgaSdv

        tb = TraceBuffer()
        tb.append(ScalarBlock(n_alu_ops=0, mem_addrs=np.array([BASE]),
                              mem_is_write=np.zeros(1, dtype=bool)))
        trace = tb.seal()
        a = FpgaSdv()
        ct = a.classify(trace)
        # the cache lives on the trace, keyed by geometry: a
        # same-geometry peer already sees it ...
        assert FpgaSdv().has_classification(trace)
        # ... and a fresh trace object does not, until seeded
        tb2 = TraceBuffer()
        tb2.append(ScalarBlock(n_alu_ops=0, mem_addrs=np.array([BASE]),
                               mem_is_write=np.zeros(1, dtype=bool)))
        trace2 = tb2.seal()
        b = FpgaSdv()
        assert not b.has_classification(trace2)
        b.seed_classification(trace2, ct)
        assert b.has_classification(trace2)
        assert b.classify(trace2).totals == ct.totals

