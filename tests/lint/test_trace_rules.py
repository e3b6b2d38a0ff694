"""Template hazard analysis + columnar invariants, on planted defects."""

import numpy as np
import pytest

from repro.lint.findings import Severity
from repro.lint.trace_rules import (
    MAX_DIST,
    analyze_snapshot,
    check_trace_buffer,
)
from repro.trace.events import (
    OPCLASS_ID,
    PATTERN_ID,
    TraceBuffer,
    VMemPattern,
    VOpClass,
)
from repro.trace.template import Dep
from tests.lint.util import (
    STRIDE,
    STRIP,
    error_rules,
    lane_block,
    mem,
    offsets,
    replicate,
    rules_of,
)

A = 0x10000   # stream written by the planted store
B = 0x40000   # independent stream, far from A
N = 8


class TestHazardDetection:
    def test_disjoint_streams_are_clean(self):
        def build(tpl, n):
            mem(tpl, B, n, write=False)
            mem(tpl, A, n, write=True)
        snap, _ = replicate(build, N)
        assert analyze_snapshot(snap) == []

    def test_undeclared_cross_iteration_raw(self):
        # the store writes strip i; the load reads strip i-1's addresses
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - STRIDE, n, write=False)
        snap, _ = replicate(build, N)
        errs = [f for f in analyze_snapshot(snap)
                if f.severity is Severity.ERROR]
        assert error_rules(errs) == ["T001"]
        assert "iteration distance 1" in errs[0].message

    def test_declared_prev_dep_covers_the_raw(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - STRIDE, n, write=False, dep=Dep.prev(0))
        snap, _ = replicate(build, N)
        assert error_rules(analyze_snapshot(snap)) == []

    def test_same_iteration_raw_needs_local_dep(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A, n, write=False)
        snap, _ = replicate(build, N)
        errs = [f for f in analyze_snapshot(snap)
                if f.severity is Severity.ERROR]
        assert error_rules(errs) == ["T001"]
        assert "same iteration" in errs[0].message

        def fixed(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A, n, write=False, dep=Dep.local(0))
        snap, _ = replicate(fixed, N)
        assert error_rules(analyze_snapshot(snap)) == []

    def test_undeclared_war(self):
        # the load reads strip i; the later store overwrites it at i+1
        def build(tpl, n):
            mem(tpl, A, n, write=False)
            mem(tpl, A - STRIDE, n, write=True)
        snap, _ = replicate(build, N)
        assert "T002" in error_rules(analyze_snapshot(snap))

    def test_undeclared_waw(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - STRIDE, n, write=True)
        snap, _ = replicate(build, N)
        assert error_rules(analyze_snapshot(snap)) == ["T003"]

    def test_barrier_orders_instead_of_dep(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            tpl.barrier("fence")
            mem(tpl, A - STRIDE, n, write=False)
        snap, _ = replicate(build, N)
        assert error_rules(analyze_snapshot(snap)) == []

    def test_explicit_stream_raw_is_sampled(self):
        # reader uses flat per-iteration gather addresses that trail the
        # affine store by one strip: caught by the sampled explicit path
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            flat = np.concatenate(
                [lane_block(A - STRIDE) + i * STRIDE for i in range(n)])
            tpl.vector(VOpClass.MEM, STRIP, "vlxe",
                       pattern=VMemPattern.INDEXED, flat_addrs=flat,
                       counts=np.full(n, STRIP, dtype=np.int64))
        snap, _ = replicate(build, N)
        assert "T001" in error_rules(analyze_snapshot(snap))

    def test_far_field_overlap_is_warning_not_error(self):
        # overlap only at iteration distance MAX_DIST+2: outside the
        # proven window, reported as a bounded WARNING
        gap = MAX_DIST + 2

        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - gap * STRIDE, n, write=False)
        snap, _ = replicate(build, gap + 4)
        found = analyze_snapshot(snap)
        assert error_rules(found) == []
        warns = [f for f in found if f.rule == "T001"]
        assert warns and all(f.severity is Severity.WARNING
                             for f in warns)
        assert "beyond" in warns[0].message


class TestDepValidity:
    def test_forward_local_dep(self):
        def build(tpl, n):
            mem(tpl, B, n, write=False, dep=Dep.local(1))
            mem(tpl, A, n, write=True)
        snap, _ = replicate(build, N)
        assert "T004" in rules_of(analyze_snapshot(snap))

    def test_dep_slot_out_of_range(self):
        # replicate() refuses this template outright, so the analyzer
        # sees it the way an offline consumer would: as a raw snapshot
        from tests.lint.util import snapshot_of

        def build(tpl, n):
            mem(tpl, B, n, write=False, dep=Dep.local(5))
        snap = snapshot_of(build, N)
        assert "T004" in rules_of(analyze_snapshot(snap))

    def test_dep_on_barrier_slot(self):
        def build(tpl, n):
            tpl.barrier("fence")
            mem(tpl, B, n, write=False, dep=Dep.local(0))
        snap, _ = replicate(build, N)
        assert "T004" in rules_of(analyze_snapshot(snap))

    def test_prev_first_must_precede_template(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - STRIDE, n, write=False, dep=Dep.prev(0, first=7))
        snap, _ = replicate(build, N)  # template starts at record 0
        assert "T004" in rules_of(analyze_snapshot(snap))

    def test_absolute_dep_must_precede_template(self):
        def build(tpl, n):
            mem(tpl, B, n, write=False, dep=Dep.at(3))
        snap, _ = replicate(build, N)
        assert "T004" in rules_of(analyze_snapshot(snap))

    def test_dead_dep_on_non_aliasing_store(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, B, n, write=False, dep=Dep.prev(0))
        snap, _ = replicate(build, N)
        found = analyze_snapshot(snap)
        assert error_rules(found) == []
        assert "T005" in rules_of(found)


class TestScalarVectorOrdering:
    def test_aliasing_scalar_block_warns_without_barrier(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            tpl.scalar_block(4, base_addrs=lane_block(A),
                             iter_offsets=offsets(n), label="drain")
        snap, _ = replicate(build, N)
        found = analyze_snapshot(snap)
        assert "T006" in rules_of(found)
        assert error_rules(found) == []

    def test_barrier_silences_the_pair(self):
        def build(tpl, n):
            mem(tpl, A, n, write=True)
            tpl.barrier("fence")
            tpl.scalar_block(4, base_addrs=lane_block(A),
                             iter_offsets=offsets(n), label="drain")
        snap, _ = replicate(build, N)
        assert rules_of(analyze_snapshot(snap)) == []


# ---------------------------------------------------------- columnar checks

def _sealed_trace() -> TraceBuffer:
    tr = TraceBuffer()
    mem_id = OPCLASS_ID[VOpClass.MEM]
    unit = PATTERN_ID[VMemPattern.UNIT]
    op = tr.intern("vle")
    tr.emit_vector(mem_id, STRIP, op, pattern_id=unit,
                   addrs=lane_block(A))
    tr.emit_vector(OPCLASS_ID[VOpClass.ARITH], STRIP, tr.intern("vfadd"),
                   dep=0)
    tr.emit_barrier()
    tr.emit_vector(mem_id, STRIP, tr.intern("vse"), pattern_id=unit,
                   addrs=lane_block(B), is_write=True, dep=1)
    tr.emit_scalar_block(lane_block(A)[:2], np.array([False, True]), 3,
                         mlp_hint=2)
    return tr.seal()


class TestTraceBufferInvariants:
    def test_clean_trace_has_no_findings(self):
        assert check_trace_buffer(_sealed_trace()) == []

    @pytest.mark.parametrize("mutate,rule", [
        (lambda c: c.addr_off.__setitem__(1, 99), "T101"),
        (lambda c: c.addr_off.__setitem__(-1, int(c.addr_off[-1]) + 8),
         "T102"),
        (lambda c: c.kind.__setitem__(1, 7), "T104"),
        (lambda c: c.opclass.__setitem__(1, 200), "T104"),
        (lambda c: c.active.__setitem__(0, STRIP + 1), "T105"),
        pytest.param(lambda c: c.active.__setitem__(0, STRIP - 1), "T105",
                     id="active-below-addresses"),
        pytest.param(lambda c: c.mlp.__setitem__(4, 0), "T109", id="mlp-0"),
        pytest.param(lambda c: c.n_alu.__setitem__(4, -1), "T109",
                     id="n_alu-negative"),
        (lambda c: c.vl.__setitem__(2, 1), "T106"),
        (lambda c: c.dep.__setitem__(0, 0), "T107"),
        (lambda c: c.vl.__setitem__(1, 10 ** 6), "T108"),
        (lambda c: c.vl.__setitem__(1, -3), "T108"),
    ])
    def test_planted_columnar_corruption(self, mutate, rule):
        tr = _sealed_trace()
        mutate(tr.cols)
        found = check_trace_buffer(tr)
        assert rule in rules_of(found), found

    def test_dtype_violation(self):
        tr = _sealed_trace()
        tr.cols.vl = tr.cols.vl.astype(np.int64)
        assert "T103" in rules_of(check_trace_buffer(tr))

    def test_string_table_must_lead_with_empty(self):
        tr = _sealed_trace()
        tr.cols.strings[0] = "oops"
        assert "T103" in rules_of(check_trace_buffer(tr))

    def test_vl_cap_scales_with_hw_max_vl(self):
        tr = _sealed_trace()
        tr.cols.vl[1] = 8 * 8 * 8 + 1  # legal under 256, not under 8
        assert check_trace_buffer(tr, hw_max_vl=256) == []
        assert "T108" in rules_of(check_trace_buffer(tr, hw_max_vl=8))
