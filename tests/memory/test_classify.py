"""Unit tests for trace classification (the hit/miss labelling pass)."""

import numpy as np
import pytest

from repro import native
from repro.config import CoreConfig, L2Config, SdvConfig, VpuConfig
from repro.errors import TraceError
from repro.memory.classify import (
    AccessLevel,
    KIND_BARRIER,
    KIND_SCALAR,
    KIND_VARITH,
    KIND_VMEM,
    _coalesce_lines,
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
        row = ct.rows[0]
        assert row["kind"] == KIND_SCALAR
        assert row["n_alu"] == 5
        assert row["n_mem"] == 2


class TestVectorPath:
    def test_unit_load_coalesces_to_lines(self):
        addrs = BASE + 8 * np.arange(16)  # 16 doubles = 2 lines
        ct = classify_trace(build(vload(addrs)), tiny_cfg())
        row = ct.rows[0]
        assert row["kind"] == KIND_VMEM
        assert row["n_line_reqs"] == 2
        assert row["dram_reads"] == 2

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
        assert ct.rows["n_line_reqs"][0] == 1

    def test_gather_no_coalescing_ablation(self):
        addrs = np.array([BASE, BASE + 8, BASE, BASE + 8])
        ct = classify_trace(build(vload(addrs, VMemPattern.INDEXED)),
                            tiny_cfg(coalesce_gathers=False))
        assert ct.rows["n_line_reqs"][0] == 4

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
        assert ct.rows["kind"][0] == KIND_VARITH
        assert ct.rows["kind"][1] == KIND_BARRIER

    def test_dep_and_scalar_dest_propagate(self):
        arith = VectorInstr(op=VOpClass.REDUCE, vl=8, opcode="vfredsum",
                            dep=0, scalar_dest=True)
        filler = VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd")
        ct = classify_trace(build(filler, arith), tiny_cfg())
        assert ct.rows["dep"][1] == 0
        assert ct.rows["scalar_dest"][1] == 1
        assert ct.rows["dep"][0] == -1


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


class TestLineRequests:
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_ci_traces_follow_the_per_instruction_rule(self, ci_traces,
                                                       coalesce):
        """A scalar block requests every line it touches, a vector memory
        instruction its :func:`_coalesce_lines` lines, anything else
        nothing; and classification levels that same arena."""
        cfg = SdvConfig(vpu=VpuConfig(coalesce_gathers=coalesce)).validate()
        mem_id = OPCLASS_ID[VOpClass.MEM]
        for trace in ci_traces:
            c = trace.cols
            req_off, lines = line_requests(c, coalesce)
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
            assert np.array_equal(ct.rows["n_line_reqs"],
                                  np.where(vm, np.diff(req_off), 0))


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
