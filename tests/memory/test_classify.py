"""Unit tests for trace classification (the hit/miss labelling pass)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.config import CoreConfig, L2Config, SdvConfig, VpuConfig
from repro.engine.lower import (
    LKIND_BARRIER,
    LKIND_SCALAR,
    LKIND_VARITH,
    LKIND_VMEM,
    lower_trace,
)
from repro.errors import TraceError
from repro.memory.classify import (
    AccessLevel,
    _coalesce_lines,
    _numpy_line_requests,
    classify_trace,
    line_requests,
)
from repro.trace.events import (
    OPCLASS_ID,
    PATTERN_LIST,
    REC_SCALAR,
    REC_VECTOR,
    Barrier,
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


def scalar_block(addrs, writes=False, n_alu=0):
    addrs = np.asarray(addrs, dtype=np.int64)
    if isinstance(writes, bool):
        writes = np.full(addrs.shape[0], writes)
    return ScalarBlock(n_alu_ops=n_alu, mem_addrs=addrs,
                       mem_is_write=np.asarray(writes))


def vload(addrs, pattern=VMemPattern.UNIT, write=False):
    addrs = np.asarray(addrs, dtype=np.int64)
    return VectorInstr(op=VOpClass.MEM, vl=addrs.shape[0],
                       opcode="vse" if write else "vle", pattern=pattern,
                       addrs=addrs, is_write=write)


def build(*records) -> TraceBuffer:
    t = TraceBuffer()
    for r in records:
        t.append(r)
    return t.seal()


class TestScalarPath:
    def test_first_touch_misses_to_dram(self):
        ct = classify_trace(build(scalar_block([BASE])), tiny_cfg())
        assert ct.rows["dram_reads"][0] == 1
        assert ct.req_off.tolist() == [0, 1]
        assert ct.levels.tolist() == [AccessLevel.DRAM]

    def test_rereference_hits_l1(self):
        ct = classify_trace(build(scalar_block([BASE, BASE])), tiny_cfg())
        assert ct.rows["l1_hits"][0] == 1
        assert ct.req_off.tolist() == [0, 2]
        assert ct.levels.tolist() == [AccessLevel.DRAM, AccessLevel.L1]

    def test_l1_evict_refill_hits_l2(self):
        cfg = tiny_cfg()
        # touch BASE, then blow the 4KB L1 with conflicting lines, re-touch
        conflicts = [BASE + 4096 * k for k in range(1, 8)]
        addrs = [BASE] + conflicts + [BASE]
        ct = classify_trace(build(scalar_block(addrs)), cfg)
        assert ct.req_off.tolist() == [0, len(addrs)]
        assert ct.levels[-1] == AccessLevel.L2

    def test_dirty_l1_victim_reaches_l2_not_dram(self):
        cfg = tiny_cfg()
        conflicts = [BASE + 4096 * k for k in range(1, 8)]
        addrs = [BASE] + conflicts
        writes = [True] + [False] * len(conflicts)
        ct = classify_trace(build(scalar_block(addrs, writes)), cfg)
        # the dirty victim lands in the (empty) L2 without a DRAM write
        assert ct.rows["dram_writes"][0] == 0

    def test_unsealed_trace_rejected(self):
        t = TraceBuffer()
        t.append(scalar_block([BASE]))
        with pytest.raises(TraceError):
            classify_trace(t, tiny_cfg())

    def test_row_metadata(self):
        blk = scalar_block([BASE, BASE + 8], n_alu=5)
        ct = classify_trace(build(blk), tiny_cfg())
        assert lower_trace(ct).kind[0] == LKIND_SCALAR
        # one line request per memory op, each served by some level
        assert np.diff(ct.req_off).tolist() == [2]
        row = ct.rows[0]
        assert row["l1_hits"] + row["l2_hits"] + row["dram_reads"] == 2


class TestVectorPath:
    def test_unit_load_coalesces_to_lines(self):
        addrs = BASE + 8 * np.arange(16)  # 16 doubles = 2 lines
        ct = classify_trace(build(vload(addrs)), tiny_cfg())
        assert lower_trace(ct).kind[0] == LKIND_VMEM
        assert np.diff(ct.req_off).tolist() == [2]
        assert ct.rows["dram_reads"][0] == 2

    def test_l2_hit_on_revisit(self):
        addrs = BASE + 8 * np.arange(8)
        ct = classify_trace(build(vload(addrs), vload(addrs)), tiny_cfg())
        assert ct.rows["dram_reads"][1] == 0
        assert ct.rows["l2_hits"][1] == 1

    def test_vector_bypasses_l1(self):
        addrs = BASE + 8 * np.arange(8)
        ct = classify_trace(
            build(scalar_block(addrs), vload(addrs)), tiny_cfg()
        )
        # the vector access is served by L2 (where the scalar miss filled),
        # never by L1
        assert ct.rows["l1_hits"][1] == 0
        assert ct.rows["l2_hits"][1] == 1

    def test_gather_coalescing_dedupes_lines(self):
        # 8 elements all within one line, duplicated lines across the instr
        addrs = np.array([BASE, BASE + 8, BASE + 16, BASE,
                          BASE + 24, BASE + 8, BASE + 32, BASE + 40])
        ct = classify_trace(build(vload(addrs, VMemPattern.INDEXED)),
                            tiny_cfg(coalesce_gathers=True))
        assert np.diff(ct.req_off).tolist() == [1]

    def test_gather_no_coalescing_ablation(self):
        addrs = np.array([BASE, BASE + 8, BASE, BASE + 8])
        ct = classify_trace(build(vload(addrs, VMemPattern.INDEXED)),
                            tiny_cfg(coalesce_gathers=False))
        assert np.diff(ct.req_off).tolist() == [4]

    def test_unit_store_allocates_without_fill(self):
        addrs = BASE + 8 * np.arange(8)
        ct = classify_trace(build(vload(addrs, write=True)), tiny_cfg())
        assert ct.rows["dram_reads"][0] == 0
        assert ct.rows["l2_hits"][0] == 1

    def test_indexed_store_miss_fetches_line(self):
        addrs = np.array([BASE])
        ct = classify_trace(
            build(vload(addrs, VMemPattern.INDEXED, write=True)), tiny_cfg()
        )
        assert ct.rows["dram_reads"][0] == 1

    def test_dirty_l1_line_recalled_on_vector_access(self):
        addrs = np.array([BASE])
        scalar_write = scalar_block(addrs, writes=True)
        ct = classify_trace(
            build(scalar_write, vload(BASE + 8 * np.arange(8))), tiny_cfg()
        )
        # the recalled dirty line makes the vector access an L2 hit
        assert ct.rows["l2_hits"][1] >= 1

    def test_varith_and_barrier_rows(self):
        arith = VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd")
        ct = classify_trace(build(arith, Barrier()), tiny_cfg())
        assert lower_trace(ct).kind.tolist() == [LKIND_VARITH, LKIND_BARRIER]
        # neither touches memory
        assert ct.req_off.tolist() == [0, 0, 0]
        assert (ct.rows["l1_hits"] + ct.rows["l2_hits"]
                + ct.rows["dram_reads"]).tolist() == [0, 0]


class TestCompiledWalk:
    def test_both_walks_label_a_directed_hierarchy_alike(self,
                                                         classify_walk):
        # L1 hits on demanded and prefetched lines, a dirty L1 victim
        # written back into L2, an L2 hit on it, a unit store allocating
        # without a fill, and an indexed store evicting a dirty L2 line
        cfg = SdvConfig(
            core=CoreConfig(l1d_bytes=256, l1d_ways=2,
                            l1_prefetch_depth=1),
            l2=L2Config(banks=2, bank_bytes=1024, ways=2),
        ).validate()
        tr = build(
            scalar_block([BASE, BASE, BASE + 64], writes=True),
            scalar_block([BASE + 128 * k for k in range(6)]),
            vload([BASE, BASE + 8]),
            vload([BASE + 4096 + 8 * k for k in range(16)], write=True),
            vload([BASE + 8192, BASE + 9000], pattern=VMemPattern.INDEXED,
                  write=True),
        )
        ct = classify_trace(tr, cfg)
        assert ct.req_off.tolist() == [0, 3, 9, 10, 12, 14]
        assert ct.levels.tolist() == [
            2, 0, 0, 0, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2]
        assert ct.totals == {
            "l1_hits": 3, "l2_hits": 3, "dram_reads": 8, "dram_writes": 1,
            "scalar_mem_ops": 9, "vector_line_reqs": 5, "pf_dram_reads": 6}

    def test_span_past_the_arena_raises_before_the_kernel(self,
                                                          monkeypatch):
        tr = build(scalar_block([BASE, BASE + 64, BASE + 128]))
        tr.cols.addr_off[-1] += 4  # the last span now overruns the arena
        calls = []
        monkeypatch.setattr(native, "function",
                            lambda name, argtypes: calls.append)
        with pytest.raises(TraceError):
            classify_trace(tr, tiny_cfg())
        assert calls == []

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_counts_are_the_levels_of_each_span(self, ci_traces, coalesce,
                                                classify_walk):
        """Every record's L1 hits, L2 hits and DRAM reads are the number
        of its line requests each level served, on both walks."""
        cfg = SdvConfig(vpu=VpuConfig(coalesce_gathers=coalesce)).validate()
        for trace in ci_traces:
            ct = classify_trace(trace, cfg)
            n = ct.rows.shape[0]
            owner = np.repeat(np.arange(n), np.diff(ct.req_off))
            for level, name in ((AccessLevel.L1, "l1_hits"),
                                (AccessLevel.L2, "l2_hits"),
                                (AccessLevel.DRAM, "dram_reads")):
                served = np.bincount(owner[ct.levels == level], minlength=n)
                assert np.array_equal(served, ct.rows[name]), name


class TestCoalesceLines:
    def test_unit_consecutive_dupes_dropped(self):
        addrs = np.array([0, 8, 16, 64, 72], dtype=np.int64)
        lines = _coalesce_lines(addrs, VMemPattern.UNIT, True)
        assert list(lines) == [0, 1]

    def test_indexed_keeps_first_touch_order(self):
        addrs = np.array([128, 0, 64, 0, 128], dtype=np.int64)
        lines = _coalesce_lines(addrs, VMemPattern.INDEXED, True)
        assert list(lines) == [2, 0, 1]

    def test_empty(self):
        lines = _coalesce_lines(np.empty(0, dtype=np.int64),
                                VMemPattern.UNIT, True)
        assert lines.shape == (0,)


@pytest.fixture(scope="module")
def ci_traces():
    """The 28 ci-scale traces a figure sweep times: every kernel, scalar
    and every paper VL."""
    from repro.core.sweeps import DEFAULT_VLS, run_implementation
    from repro.kernels import KERNELS
    from repro.workloads import get_scale

    traces = []
    for spec in KERNELS.values():
        workload = spec.prepare(get_scale("ci"), 7)
        for vl in (None, *DEFAULT_VLS):
            traces.append(run_implementation(spec, workload, vl,
                                             verify=False)[1])
    return traces


@st.composite
def arenas(draw):
    """Traces whose line requests exercise every rule: scalar blocks,
    unit, strided and indexed vector memory, records without addresses;
    empty and one-element spans; lines drawn from a pool, so a span
    revisits them both consecutively and not (A, B, A); and gathers of up
    to 600 elements, from a one-line pool (all duplicates) to a wide one
    (nearly all distinct)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = draw(st.sampled_from([1, 2, 5, 64, 4096, 1 << 20]))
    records = []
    kinds = st.sampled_from(["scalar", "unit", "strided", "indexed",
                             "arith", "barrier"])
    for kind in draw(st.lists(kinds, max_size=10)):
        if kind == "arith":
            records.append(VectorInstr(op=VOpClass.ARITH, vl=8,
                                       opcode="vfadd"))
            continue
        if kind == "barrier":
            records.append(Barrier())
            continue
        span = draw(st.sampled_from(["empty", "one", "short", "long"]))
        size = {"empty": 0, "one": 1, "short": int(rng.integers(2, 41)),
                "long": int(rng.integers(41, 601 if kind == "indexed"
                                         else 121))}[span]
        addrs = BASE + 64 * rng.integers(0, pool, size) \
            + 8 * rng.integers(0, 8, size)
        if kind == "scalar":
            records.append(scalar_block(addrs, rng.random(size) < 0.5))
        else:
            records.append(vload(addrs, VMemPattern[kind.upper()],
                                 write=bool(rng.random() < 0.5)))
    return build(*records)


class TestLineRequests:
    @settings(max_examples=200, deadline=None)
    @given(arenas(), st.booleans())
    def test_compiled_equals_the_numpy_specification(self, trace, coalesce):
        if native.library() is None:
            pytest.skip("no C compiler could build the compiled kernels")
        req_off, lines = line_requests(trace.cols, coalesce)
        want_off, want_lines = _numpy_line_requests(trace.cols, coalesce)
        assert req_off.dtype == want_off.dtype == lines.dtype == np.int64
        assert np.array_equal(req_off, want_off)
        assert np.array_equal(lines, want_lines)
        assert lines.shape == (req_off[-1],)

    @pytest.mark.parametrize("broken", ["overrun", "backward"])
    def test_bad_spans_raise_before_the_kernel(self, monkeypatch, broken):
        tr = build(scalar_block([BASE, BASE + 64]),
                   vload(BASE + 8 * np.arange(4)))
        off = tr.cols.addr_off
        if broken == "overrun":
            off[-1] += 4
        else:
            off[1] = off[2] + 1
        calls = []
        monkeypatch.setattr(native, "function",
                            lambda *args: calls.append(args))
        with pytest.raises(TraceError, match="tile"):
            line_requests(tr.cols, True)
        assert calls == []

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_ci_traces_follow_the_per_instruction_rule(self, ci_traces,
                                                       coalesce):
        """A scalar block requests every line it touches, a vector memory
        instruction its :func:`_coalesce_lines` lines, anything else
        nothing; the arena is the specification's; and classification
        keeps that same arena."""
        cfg = SdvConfig(vpu=VpuConfig(coalesce_gathers=coalesce)).validate()
        mem_id = OPCLASS_ID[VOpClass.MEM]
        for trace in ci_traces:
            c = trace.cols
            req_off, lines = line_requests(c, coalesce)
            want_off, want_lines = _numpy_line_requests(c, coalesce)
            assert np.array_equal(req_off, want_off)
            assert np.array_equal(lines, want_lines)
            off = c.addr_off
            vm = (c.kind == REC_VECTOR) & (c.opclass == mem_id)
            scalar = c.kind == REC_SCALAR
            for i in np.flatnonzero(vm | scalar).tolist():
                addrs = c.addrs[off[i]:off[i + 1]]
                want = (addrs >> 6 if scalar[i] else _coalesce_lines(
                    addrs, PATTERN_LIST[c.pattern[i]], coalesce))
                assert np.array_equal(lines[req_off[i]:req_off[i + 1]],
                                      want)
            assert (np.diff(req_off)[~(vm | scalar)] == 0).all()
            assert req_off[-1] == lines.shape[0]
            ct = classify_trace(trace, cfg)
            assert np.array_equal(ct.req_off, req_off)
            assert np.array_equal(ct.lines, lines)


class TestTotals:
    def test_totals_aggregate(self):
        addrs = BASE + 8 * np.arange(8)
        ct = classify_trace(build(vload(addrs), vload(addrs)), tiny_cfg())
        assert ct.totals["dram_reads"] == 1
        assert ct.totals["l2_hits"] == 1
        assert ct.dram_transactions == 1
        assert ct.dram_bytes == 64

    def test_classification_independent_of_knobs(self):
        addrs = BASE + 8 * np.arange(64)
        trace = build(vload(addrs))
        a = classify_trace(trace, tiny_cfg())
        cfg2 = tiny_cfg().with_extra_latency(512).with_bandwidth(2)
        b = classify_trace(trace, cfg2)
        assert (a.rows["dram_reads"] == b.rows["dram_reads"]).all()
        assert (a.rows["l2_hits"] == b.rows["l2_hits"]).all()


class TestPrefetcher:
    def _stream_cfg(self, depth):
        return SdvConfig(
            core=CoreConfig(l1d_bytes=4096, l1d_ways=4,
                            l1_prefetch_depth=depth),
            l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
        ).validate()

    def test_prefetch_converts_stream_misses_to_l1_hits(self):
        addrs = BASE + 8 * np.arange(256)  # 32 sequential lines
        off = classify_trace(build(scalar_block(addrs)), self._stream_cfg(0))
        on = classify_trace(build(scalar_block(addrs)), self._stream_cfg(2))
        assert on.rows["l1_hits"][0] > off.rows["l1_hits"][0]
        assert on.rows["dram_reads"][0] < off.rows["dram_reads"][0]

    def test_prefetch_traffic_accounted_separately(self):
        addrs = BASE + 8 * np.arange(256)
        on = classify_trace(build(scalar_block(addrs)), self._stream_cfg(2))
        # demand + prefetch fills together still cover all 32 lines
        assert (on.rows["dram_reads"][0] + on.rows["pf_dram_reads"][0]
                >= 32)
        assert on.rows["pf_dram_reads"][0] > 0

    def test_prefetch_useless_on_random_accesses(self):
        rng = np.random.default_rng(0)
        addrs = BASE + 8 * rng.integers(0, 1 << 14, 256)
        off = classify_trace(build(scalar_block(addrs)), self._stream_cfg(0))
        on = classify_trace(build(scalar_block(addrs)), self._stream_cfg(2))
        # hit rate barely moves, but prefetch traffic is wasted bandwidth
        assert on.rows["l1_hits"][0] <= off.rows["l1_hits"][0] + 24
        assert on.rows["pf_dram_reads"][0] > 100

    def test_prefetch_depth_zero_emits_no_prefetch_traffic(self):
        addrs = BASE + 8 * np.arange(128)
        ct = classify_trace(build(scalar_block(addrs)), self._stream_cfg(0))
        assert ct.rows["pf_dram_reads"][0] == 0

    def test_prefetch_changes_geometry_key(self):
        from repro.soc import FpgaSdv
        a = FpgaSdv(self._stream_cfg(0)).geometry_key()
        b = FpgaSdv(self._stream_cfg(2)).geometry_key()
        assert a != b
