"""Property tests: ``TraceTemplate.replicate`` ≡ per-iteration record appends.

The templated generation path exists purely for speed — its contract is
that ``replicate(n)`` appends *exactly* the records an equivalent
per-iteration emission loop would have appended, bit for bit: same column
values, same address arena, same interned strings. Hypothesis drives
random loop bodies (record kinds, address modes, dep shapes, const vs
per-iteration fields) through both paths and compares the sealed columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.events import (
    MLP_UNBOUNDED,
    Barrier,
    ScalarBlock,
    TraceBuffer,
    VectorInstr,
    VMemPattern,
    VOpClass,
)
from repro.trace.template import (
    _D_ABS,
    _D_LOCAL,
    _D_NONE,
    _D_PREV,
    Dep,
    RecordBatch,
    TraceTemplate,
    capture_replications,
)

_COLS = ("kind", "n_alu", "mlp", "mem_bytes", "vl", "active", "opclass",
         "pattern", "is_write", "masked", "dep", "scalar_dest",
         "opcode_id", "label_id", "addr_off", "addrs", "writes")


def assert_traces_identical(a: TraceBuffer, b: TraceBuffer) -> None:
    ca, cb = a.cols, b.cols
    assert ca.strings == cb.strings
    for name in _COLS:
        np.testing.assert_array_equal(
            getattr(ca, name), getattr(cb, name), err_msg=name)


# ------------------------------------------------------------- strategies

def _arr(draw, n, lo, hi):
    return np.array(
        draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
        dtype=np.int64)


def _draw_dep(draw, t, n_slots):
    choices = ["none", "prev", "prev_first", "at"]
    if t > 0:
        choices += ["local", "int"]
    c = draw(st.sampled_from(choices))
    if c == "none":
        return None
    if c == "int":           # bare local index, the _normalize_dep path
        return draw(st.integers(0, t - 1))
    if c == "local":
        return Dep.local(draw(st.integers(0, t - 1)))
    if c == "prev":
        return Dep.prev(draw(st.integers(0, n_slots - 1)))
    if c == "prev_first":    # iteration 0 falls back to the preamble record
        return Dep.prev(draw(st.integers(0, n_slots - 1)), first=0)
    return Dep.at(0)


@st.composite
def cases(draw):
    n = draw(st.integers(0, 4))
    return n, _draw_body(draw, n)


def _draw_body(draw, n):
    """One loop body whose per-iteration fields cover ``n`` iterations."""
    n_slots = draw(st.integers(1, 4))
    slots = []
    for t in range(n_slots):
        k = draw(st.sampled_from(("arith", "mem", "csr", "scalar",
                                  "barrier")))
        s = {"kind": k}
        if k == "barrier":
            s["label"] = draw(st.sampled_from(("", "sync")))
        elif k == "scalar":
            s["n_alu"] = (_arr(draw, n, 0, 9) if draw(st.booleans())
                          else draw(st.integers(0, 9)))
            mode = draw(st.sampled_from(("none", "affine", "explicit")))
            s["mode"] = mode
            if mode == "affine":
                p = draw(st.integers(1, 3))
                s["base"] = _arr(draw, p, 0, 1 << 20) * 8
                s["ioff"] = _arr(draw, n, 0, 1 << 10) * 8
                if draw(st.booleans()):
                    s["writes"] = np.array(
                        draw(st.lists(st.booleans(), min_size=p,
                                      max_size=p)))
            elif mode == "explicit":
                counts = _arr(draw, n, 0, 3)
                s["counts"] = counts
                s["flat"] = _arr(draw, int(counts.sum()), 0, 1 << 20) * 8
            s["mlp"] = draw(st.sampled_from((1, 2, 4, MLP_UNBOUNDED)))
            s["mem_bytes"] = draw(st.sampled_from((4, 8)))
            s["label"] = draw(st.sampled_from(("blk", "update")))
        else:
            op = {"arith": VOpClass.ARITH, "mem": VOpClass.MEM,
                  "csr": VOpClass.CSR}[k]
            s["op"] = op
            s["opcode"] = draw(st.sampled_from(("vfadd", "vle", "vsxe")))
            s["elem_bytes"] = draw(st.sampled_from((4, 8)))
            s["masked"] = draw(st.booleans())
            s["scalar_dest"] = (draw(st.booleans()) if k != "mem"
                                else False)
            s["dep"] = _draw_dep(draw, t, n_slots)
            if k == "mem":
                s["pattern"] = draw(st.sampled_from(list(VMemPattern)))
                s["is_write"] = draw(st.booleans())
                mode = draw(st.sampled_from(("affine", "explicit")))
                s["mode"] = mode
                if mode == "affine":
                    p = draw(st.integers(1, 4))
                    s["base"] = _arr(draw, p, 0, 1 << 20) * 8
                    s["ioff"] = _arr(draw, n, 0, 1 << 10) * 8
                    s["active"] = p
                    s["vl"] = draw(st.integers(p, p + 4))
                else:
                    counts = _arr(draw, n, 1, 4)
                    s["counts"] = counts
                    s["flat"] = _arr(draw, int(counts.sum()), 0,
                                     1 << 20) * 8
                    s["active"] = counts
                    s["vl"] = draw(st.integers(4, 8))
            else:
                s["vl"] = (_arr(draw, n, 1, 16) if draw(st.booleans())
                           else draw(st.integers(1, 16)))
                s["active"] = None
        slots.append(s)
    return slots


# --------------------------------------------------------- the two paths

def _preamble(trace):
    """Record 0 of both traces: the target of Dep.at / Dep.prev(first=0)."""
    trace.append(VectorInstr(op=VOpClass.ARITH, vl=4, opcode="vpre"))


def expand_template(trace, slots, n):
    tpl = record_template(trace, slots)
    return tpl.replicate(n), tpl


def record_template(trace, slots, dep=lambda s: s["dep"]):
    tpl = TraceTemplate(trace)
    for s in slots:
        if s["kind"] == "barrier":
            tpl.barrier(label=s["label"])
        elif s["kind"] == "scalar":
            akw = {}
            if s["mode"] == "affine":
                akw = {"base_addrs": s["base"], "iter_offsets": s["ioff"]}
                if "writes" in s:
                    akw["writes"] = s["writes"]
            elif s["mode"] == "explicit":
                akw = {"flat_addrs": s["flat"], "counts": s["counts"]}
            tpl.scalar_block(s["n_alu"], mem_bytes=s["mem_bytes"],
                             mlp_hint=s["mlp"], label=s["label"], **akw)
        else:
            akw = {}
            if s["kind"] == "mem":
                if s["mode"] == "affine":
                    akw = {"base_addrs": s["base"],
                           "iter_offsets": s["ioff"]}
                else:
                    akw = {"flat_addrs": s["flat"], "counts": s["counts"]}
            tpl.vector(s["op"], s["vl"], s["opcode"],
                       pattern=s.get("pattern"),
                       is_write=s.get("is_write", False),
                       elem_bytes=s["elem_bytes"], masked=s["masked"],
                       active=s["active"], dep=dep(s),
                       scalar_dest=s["scalar_dest"], **akw)
    return tpl


def _resolve_dep(d, i, t, n_slots, start):
    if d is None:
        return -1
    if isinstance(d, int):
        d = Dep.local(d)
    if d.mode == _D_NONE:
        return -1
    if d.mode == _D_LOCAL:
        return start + i * n_slots + d.slot
    if d.mode == _D_PREV:
        return (start + (i - 1) * n_slots + d.slot) if i > 0 else d.first
    assert d.mode == _D_ABS
    return d.first


def expand_reference(trace, slots, n):
    """The semantics replicate() promises: one object append per record."""
    n_slots = len(slots)
    start = len(trace)
    pos = [0] * n_slots  # flat-address cursor per explicit-mode slot
    for i in range(n):
        for t, s in enumerate(slots):
            if s["kind"] == "barrier":
                trace.append(Barrier(label=s["label"]))
                continue
            addrs = None
            if s.get("mode") == "affine":
                addrs = s["base"] + s["ioff"][i]
            elif s.get("mode") == "explicit":
                c = int(s["counts"][i])
                addrs = s["flat"][pos[t]:pos[t] + c]
                pos[t] += c
            if s["kind"] == "scalar":
                if addrs is None:
                    addrs = np.empty(0, dtype=np.int64)
                writes = s.get("writes")
                if writes is None:
                    writes = np.zeros(addrs.shape[0], dtype=bool)
                n_alu = s["n_alu"]
                if isinstance(n_alu, np.ndarray):
                    n_alu = int(n_alu[i])
                trace.append(ScalarBlock(
                    n_alu_ops=n_alu, mem_addrs=addrs, mem_is_write=writes,
                    mem_bytes=s["mem_bytes"], mlp_hint=s["mlp"],
                    label=s["label"]))
                continue
            vl = s["vl"]
            if isinstance(vl, np.ndarray):
                vl = int(vl[i])
            active = s["active"]
            if isinstance(active, np.ndarray):
                active = int(active[i])
            trace.append(VectorInstr(
                op=s["op"], vl=vl, opcode=s["opcode"],
                pattern=s.get("pattern"), addrs=addrs,
                is_write=s.get("is_write", False),
                elem_bytes=s["elem_bytes"], masked=s["masked"],
                active=active,
                dep=_resolve_dep(s["dep"], i, t, n_slots, start),
                scalar_dest=s["scalar_dest"]))
    for t, s in enumerate(slots):
        if s.get("mode") == "explicit":
            assert pos[t] == s["flat"].shape[0]


# -------------------------------------------------------------- properties

class TestReplicateEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_replicate_matches_object_path(self, case):
        n, slots = case
        templated, reference = TraceBuffer(), TraceBuffer()
        _preamble(templated)
        _preamble(reference)
        start, _ = expand_template(templated, slots, n)
        assert start == 1
        expand_reference(reference, slots, n)
        assert_traces_identical(templated.seal(), reference.seal())

    @settings(max_examples=25, deadline=None)
    @given(cases())
    def test_replicate_twice_matches_two_object_loops(self, case):
        """The body stays recorded; deps rebase onto the new start."""
        n, slots = case
        templated, reference = TraceBuffer(), TraceBuffer()
        _preamble(templated)
        _preamble(reference)
        _, tpl = expand_template(templated, slots, n)
        tpl.replicate(n)
        expand_reference(reference, slots, n)
        expand_reference(reference, slots, n)
        assert_traces_identical(templated.seal(), reference.seal())


# ------------------------------------------------------- ragged expansion

@st.composite
def ragged_cases(draw):
    """Loops of one body (zero-iteration loops included) with single gap
    records before, between and after them, and per-loop dep anchors."""
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(counts) + 1,
                         max_size=len(counts) + 1))
    slots = _draw_body(draw, sum(counts))
    # Dep.at / Dep.prev(first=) target: the record just before the loop,
    # or the preamble
    before = draw(st.lists(st.booleans(), min_size=len(counts),
                           max_size=len(counts)))
    return counts, gaps, slots, before


def _gap(k):
    """The ``k``-th single record between loops: a short unit load."""
    vl = 1 + k % 3
    return VectorInstr(op=VOpClass.MEM, vl=vl, opcode="gap",
                       pattern=VMemPattern.UNIT,
                       addrs=4096 * (k + 1) + 8 * np.arange(vl))


def _ragged_layout(counts, gaps, n_slots):
    """Each loop's first record and the gap records' positions."""
    starts, gap_pos, pos = [], [], 1  # record 0 is the preamble
    for s, c in enumerate(counts):
        gap_pos += range(pos, pos + gaps[s])
        pos += gaps[s]
        starts.append(pos)
        pos += c * n_slots
    gap_pos += range(pos, pos + gaps[-1])
    return np.array(starts, dtype=np.int64), gap_pos


def _anchored(s, anchors):
    """``s``'s dep with ``Dep.at``/``Dep.prev(first=0)`` re-aimed."""
    d = s.get("dep")
    if not isinstance(d, Dep) or d.first != 0:
        return d
    return Dep(d.mode, d.slot, anchors)


def _one_loop(slots, lo, hi, anchor):
    """The body cut down to iterations ``lo:hi``, deps aimed at
    ``anchor``: what a one-loop replication of that loop records."""
    out = []
    for s in slots:
        s = dict(s)
        for key in ("n_alu", "vl", "active", "ioff"):
            if isinstance(s.get(key), np.ndarray):
                s[key] = s[key][lo:hi]
        if "counts" in s:
            cum = np.concatenate(([0], np.cumsum(s["counts"])))
            s["flat"] = s["flat"][cum[lo]:cum[hi]]
            s["counts"] = s["counts"][lo:hi]
            if s["kind"] == "mem":
                s["active"] = s["counts"]
        s["dep"] = _anchored(s, anchor)
        out.append(s)
    return out


def expand_ragged(trace, counts, gaps, slots, before):
    """Gap records placed by position + one ragged expansion, one batch."""
    T = len(slots)
    starts, gap_pos = _ragged_layout(counts, gaps, T)
    anchors = np.where(before, starts - 1, 0)
    batch = RecordBatch(trace, sum(gaps) + sum(counts) * T)
    if gap_pos:
        recs = [_gap(k) for k in range(len(gap_pos))]
        batch.vector(np.array(gap_pos), VOpClass.MEM,
                     np.array([r.vl for r in recs]), "gap",
                     pattern=VMemPattern.UNIT,
                     addrs=np.concatenate([r.addrs for r in recs]))
    tpl = record_template(trace, slots,
                          dep=lambda s: _anchored(s, anchors))
    tpl.expand(batch, counts, starts)
    assert batch.commit() == 1


def expand_loops(trace, counts, gaps, slots, before):
    """The same program emitted gap by gap and loop by loop."""
    starts, _ = _ragged_layout(counts, gaps, len(slots))
    k = lo = 0
    for s in range(len(counts) + 1):
        for _ in range(gaps[s]):
            trace.append(_gap(k))
            k += 1
        if s == len(counts):
            break
        c = counts[s]
        anchor = int(starts[s] - 1) if before[s] else 0
        tpl = record_template(trace, _one_loop(slots, lo, lo + c, anchor))
        assert tpl.replicate(c) == (starts[s] if c else len(trace))
        lo += c


def _same_field(a, b):
    if isinstance(a, Dep) or isinstance(b, Dep):
        return (a.mode, a.slot, int(a.first)) == (b.mode, b.slot,
                                                  int(b.first))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestRaggedExpansion:
    @settings(max_examples=60, deadline=None)
    @given(ragged_cases())
    def test_ragged_matches_loops_replicated_one_at_a_time(self, case):
        ragged, loops = TraceBuffer(), TraceBuffer()
        for trace in (ragged, loops):
            _preamble(trace)
            trace.intern("gap")
        with capture_replications() as got:
            expand_ragged(ragged, *case)
        with capture_replications() as want:
            expand_loops(loops, *case)
        assert_traces_identical(ragged.seal(), loops.seal())
        assert len(got) == len(want) == sum(c > 0 for c in case[0])
        for g, w in zip(got, want):
            assert (g.start, g.n_iters, g.scal, g.strs) == \
                (w.start, w.n_iters, w.scal, w.strs)
            for gv, wv in zip(g.var, w.var):
                assert all(_same_field(a, b) for a, b in zip(gv, wv))

    def test_per_loop_dep_needs_one_value_per_loop(self):
        batch = RecordBatch(TraceBuffer(), 2)
        tpl = TraceTemplate(batch.trace)
        tpl.vector(VOpClass.ARITH, 4, "vfadd",
                   dep=Dep.at(np.array([0, 0, 0])))
        with pytest.raises(TraceError):
            tpl.expand(batch, [1, 1], [0, 1])

    def test_loop_counts_and_starts_must_match(self):
        batch = RecordBatch(TraceBuffer(), 2)
        tpl = TraceTemplate(batch.trace)
        tpl.barrier()
        with pytest.raises(TraceError):
            tpl.expand(batch, [1, 1], [0])

    def test_overlapping_loops_are_refused_at_commit(self):
        batch = RecordBatch(TraceBuffer(), 2)
        tpl = TraceTemplate(batch.trace)
        tpl.barrier()
        tpl.expand(batch, [1, 1], [0, 0])
        with pytest.raises(TraceError):
            batch.commit()

    def test_unplaced_positions_are_refused_at_commit(self):
        trace = TraceBuffer()
        batch = RecordBatch(trace, 3)
        batch.vector(np.array([0, 2]), VOpClass.ARITH, 4, "vfadd")
        with pytest.raises(TraceError):
            batch.commit()
        assert len(trace) == 0

    def test_positions_outside_the_batch_are_refused(self):
        batch = RecordBatch(TraceBuffer(), 2)
        with pytest.raises(TraceError):
            batch.vector(np.array([1, 2]), VOpClass.ARITH, 4, "vfadd")
        with pytest.raises(TraceError):
            batch.vector(-1, VOpClass.ARITH, 4, "vfadd")


# ------------------------------------------------------------- error paths

class TestRecordingValidation:
    def test_mem_needs_exactly_one_address_mode(self):
        tpl = TraceTemplate(TraceBuffer())
        a = np.zeros(2, dtype=np.int64)
        with pytest.raises(TraceError):
            tpl.vector(VOpClass.MEM, 4, "vle")
        with pytest.raises(TraceError):
            tpl.vector(VOpClass.MEM, 4, "vle", base_addrs=a,
                       iter_offsets=a, flat_addrs=a, counts=a)

    def test_affine_needs_iter_offsets(self):
        tpl = TraceTemplate(TraceBuffer())
        with pytest.raises(TraceError):
            tpl.vector(VOpClass.MEM, 4, "vle",
                       base_addrs=np.zeros(2, dtype=np.int64))

    def test_explicit_needs_counts(self):
        tpl = TraceTemplate(TraceBuffer())
        with pytest.raises(TraceError):
            tpl.vector(VOpClass.MEM, 4, "vle",
                       flat_addrs=np.zeros(2, dtype=np.int64))

    def test_non_mem_rejects_addresses(self):
        tpl = TraceTemplate(TraceBuffer())
        with pytest.raises(TraceError):
            tpl.vector(VOpClass.ARITH, 4, "vfadd",
                       base_addrs=np.zeros(2, dtype=np.int64),
                       iter_offsets=np.zeros(1, dtype=np.int64))

    def test_scalar_writes_true_is_ambiguous(self):
        tpl = TraceTemplate(TraceBuffer())
        with pytest.raises(TraceError):
            tpl.scalar_block(1, writes=True)


class TestReplicateValidation:
    #: how the tests expand a template of n iterations
    expand = staticmethod(lambda tpl, n: tpl.replicate(n))

    def test_negative_iteration_count(self):
        tpl = TraceTemplate(TraceBuffer())
        tpl.barrier()
        with pytest.raises(TraceError):
            self.expand(tpl, -1)

    def test_iter_offsets_shape_checked_at_replicate(self):
        tpl = TraceTemplate(TraceBuffer())
        tpl.vector(VOpClass.MEM, 2, "vle", pattern=VMemPattern.UNIT,
                   base_addrs=np.zeros(2, dtype=np.int64),
                   iter_offsets=np.zeros(3, dtype=np.int64))
        with pytest.raises(TraceError):
            self.expand(tpl, 4)

    def test_counts_sum_must_match_flat_addrs(self):
        tpl = TraceTemplate(TraceBuffer())
        tpl.vector(VOpClass.MEM, 2, "vlxe", pattern=VMemPattern.INDEXED,
                   flat_addrs=np.zeros(5, dtype=np.int64),
                   counts=np.array([2, 2], dtype=np.int64))
        with pytest.raises(TraceError):
            self.expand(tpl, 2)

    def test_per_iteration_vl_shape_checked(self):
        tpl = TraceTemplate(TraceBuffer())
        tpl.vector(VOpClass.ARITH, np.array([4, 4], dtype=np.int64),
                   "vfadd")
        with pytest.raises(TraceError):
            self.expand(tpl, 3)

    def test_local_dep_out_of_range(self):
        tpl = TraceTemplate(TraceBuffer())
        tpl.vector(VOpClass.ARITH, 4, "vfadd", dep=Dep.local(3))
        with pytest.raises(TraceError):
            self.expand(tpl, 1)

    def test_replicate_zero_appends_nothing(self):
        trace = TraceBuffer()
        tpl = TraceTemplate(trace)
        tpl.barrier()
        assert self.expand(tpl, 0) == 0
        assert len(trace) == 0

    def test_empty_template_appends_nothing(self):
        trace = TraceBuffer()
        assert self.expand(TraceTemplate(trace), 5) == 0
        assert len(trace) == 0


def _two_loops(tpl, n):
    """``n`` iterations as a ragged call over two loops, one batch."""
    T = len(tpl)
    batch = RecordBatch(tpl.trace, max(n, 0) * T)
    first = n // 2
    tpl.expand(batch, [first, n - first],
               [batch.start, batch.start + first * T])
    return batch.commit()


class TestRaggedValidation(TestReplicateValidation):
    """The same checks on a ragged expansion over two loops."""

    expand = staticmethod(_two_loops)
