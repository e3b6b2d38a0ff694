"""Unit tests for the RVV intrinsics layer: functional semantics + trace
records."""

import numpy as np
import pytest

from repro.errors import IsaError
from repro.isa import VectorContext, VMask, VReg
from repro.memory.address_space import MemoryImage
from repro.trace.events import TraceBuffer, VMemPattern, VOpClass


@pytest.fixture
def env():
    mem = MemoryImage(1 << 20)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=16)
    return mem, trace, vec


class TestVsetvl:
    def test_strip_mining_sequence(self, env):
        _, _, vec = env
        granted = []
        remaining = 40
        while remaining:
            vl = vec.vsetvl(remaining)
            granted.append(vl)
            remaining -= vl
        assert granted == [16, 16, 8]

    def test_ops_require_vsetvl(self, env):
        _, _, vec = env
        with pytest.raises(IsaError):
            vec.vfmv(0.0)

    def test_operand_vl_mismatch_detected(self, env):
        _, _, vec = env
        vec.vsetvl(8)
        a = vec.vfmv(1.0)
        vec.vsetvl(4)
        b = vec.vfmv(2.0)
        with pytest.raises(IsaError):
            vec.vfadd(a, b)

    def test_emits_csr_record(self, env):
        _, trace, vec = env
        vec.vsetvl(8)
        assert trace[0].op is VOpClass.CSR


class TestLoadsStores:
    def test_vle_vse_roundtrip(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(16, dtype=np.float64))
        b = mem.alloc("y", 16, np.float64)
        vec.vsetvl(16)
        v = vec.vle(a)
        vec.vse(v, b)
        assert (b.view == a.view).all()

    def test_vle_offset(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(32, dtype=np.float64))
        vec.vsetvl(8)
        v = vec.vle(a, offset=10)
        assert (v.data == np.arange(10, 18)).all()

    def test_vlse_strided(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(64, dtype=np.float64))
        vec.vsetvl(8)
        v = vec.vlse(a, offset=1, stride=4)
        assert (v.data == 1 + 4 * np.arange(8)).all()

    def test_vsse_strided_store(self, env):
        mem, _, vec = env
        a = mem.alloc("x", 64, np.float64)
        vec.vsetvl(8)
        v = vec.vfmv(3.0)
        vec.vsse(v, a, offset=0, stride=8)
        assert (a.view[::8] == 3.0).all()
        assert (a.view[1::8] == 0.0).all()

    def test_vlxe_gather(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(100, dtype=np.float64))
        vec.vsetvl(4)
        idx = VReg(np.array([3, 1, 99, 0], dtype=np.int64))
        v = vec.vlxe(a, idx)
        assert (v.data == [3, 1, 99, 0]).all()

    def test_vsxe_scatter(self, env):
        mem, _, vec = env
        a = mem.alloc("x", 100, np.float64)
        vec.vsetvl(3)
        idx = VReg(np.array([5, 50, 99], dtype=np.int64))
        vec.vsxe(vec.vfmv(2.5), a, idx)
        assert a.view[5] == a.view[50] == a.view[99] == 2.5

    def test_vsxe_duplicate_last_wins(self, env):
        mem, _, vec = env
        a = mem.alloc("x", 8, np.float64)
        vec.vsetvl(2)
        idx = VReg(np.array([3, 3], dtype=np.int64))
        val = VReg(np.array([1.0, 2.0]))
        vec.vsxe(val, a, idx)
        assert a.view[3] == 2.0

    def test_masked_load_zeros_inactive(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64) + 1)
        vec.vsetvl(8)
        m = VMask(np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=bool))
        v = vec.vle(a, mask=m)
        assert (v.data[::2] == a.view[::2]).all()
        assert (v.data[1::2] == 0).all()

    def test_masked_load_records_active_addresses_only(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(8)
        m = VMask(np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=bool))
        vec.vle(a, mask=m)
        rec = trace[-1]
        assert rec.active == 2
        assert rec.addrs.shape == (2,)

    def test_masked_store_preserves_inactive(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.full(4, 9.0))
        vec.vsetvl(4)
        m = VMask(np.array([1, 0, 0, 1], dtype=bool))
        vec.vse(vec.vfmv(1.0), a, mask=m)
        assert list(a.view) == [1.0, 9.0, 9.0, 1.0]

    def test_float_index_rejected(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(4)
        with pytest.raises(IsaError):
            vec.vlxe(a, vec.vfmv(1.0))

    def test_zero_stride_rejected(self, env):
        mem, _, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(4)
        with pytest.raises(IsaError):
            vec.vlse(a, 0, 0)

    def test_trace_patterns(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", np.arange(64, dtype=np.float64))
        vec.vsetvl(8)
        vec.vle(a)
        vec.vlse(a, 0, 2)
        vec.vlxe(a, vec.vid())
        patterns = [r.pattern for r in trace if getattr(r, "is_mem", False)]
        assert patterns == [VMemPattern.UNIT, VMemPattern.STRIDED,
                            VMemPattern.INDEXED]


class TestArithmetic:
    def test_vv_and_vf_forms(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        a = VReg(np.array([1.0, 2.0, 3.0, 4.0]))
        b = VReg(np.array([10.0, 20.0, 30.0, 40.0]))
        assert (vec.vfadd(a, b).data == [11, 22, 33, 44]).all()
        assert (vec.vfadd(a, 1.0).data == [2, 3, 4, 5]).all()

    def test_vfmacc(self, env):
        _, _, vec = env
        vec.vsetvl(2)
        acc = VReg(np.array([1.0, 1.0]))
        a = VReg(np.array([2.0, 3.0]))
        b = VReg(np.array([4.0, 5.0]))
        assert (vec.vfmacc(acc, a, b).data == [9.0, 16.0]).all()

    def test_masked_arith_keeps_inactive(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        a = VReg(np.array([1.0, 2.0, 3.0, 4.0]))
        m = VMask(np.array([True, False, True, False]))
        out = vec.vfmul(a, 10.0, mask=m)
        assert list(out.data) == [10.0, 2.0, 30.0, 4.0]

    def test_integer_ops(self, env):
        _, _, vec = env
        vec.vsetvl(3)
        a = VReg(np.array([1, 2, 3], dtype=np.int64))
        assert (vec.vadd(a, 1).data == [2, 3, 4]).all()
        assert (vec.vsll(a, 2).data == [4, 8, 12]).all()
        assert (vec.vsrl(vec.vsll(a, 2), 2).data == a.data).all()
        assert (vec.vand(a, 1).data == [1, 0, 1]).all()

    def test_heavy_ops_classified(self, env):
        _, trace, vec = env
        vec.vsetvl(2)
        a = VReg(np.array([4.0, 9.0]))
        out = vec.vfsqrt(a)
        assert (out.data == [2.0, 3.0]).all()
        assert trace[-1].op is VOpClass.ARITH_HEAVY

    def test_vid_and_vmv(self, env):
        _, _, vec = env
        vec.vsetvl(5)
        assert (vec.vid().data == np.arange(5)).all()
        assert (vec.vmv(7).data == 7).all()
        assert vec.vmv(7).data.dtype == np.int64
        assert vec.vfmv(7.0).data.dtype == np.float64


class TestMasksAndPermutes:
    def test_compares(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        a = VReg(np.array([1, 5, 3, 7], dtype=np.int64))
        assert list(vec.vmsgt(a, 3).bits) == [False, True, False, True]
        assert list(vec.vmseq(a, 3).bits) == [False, False, True, False]

    def test_mask_logic(self, env):
        _, _, vec = env
        vec.vsetvl(3)
        a = VMask(np.array([1, 1, 0], dtype=bool))
        b = VMask(np.array([1, 0, 0], dtype=bool))
        assert list(vec.vmand(a, b).bits) == [True, False, False]
        assert list(vec.vmor(a, b).bits) == [True, True, False]
        assert list(vec.vmnot(b).bits) == [False, True, True]
        assert list(vec.vmandnot(a, b).bits) == [False, True, False]

    def test_vpopc_vfirst(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        m = VMask(np.array([0, 1, 0, 1], dtype=bool))
        assert vec.vpopc(m) == 2
        assert vec.vfirst(m) == 1
        assert vec.vfirst(VMask(np.zeros(4, dtype=bool))) == -1

    def test_viota(self, env):
        _, _, vec = env
        vec.vsetvl(5)
        m = VMask(np.array([1, 0, 1, 1, 0], dtype=bool))
        assert list(vec.viota(m).data) == [0, 1, 1, 2, 3]

    def test_vcompress(self, env):
        _, _, vec = env
        vec.vsetvl(5)
        src = VReg(np.array([10, 20, 30, 40, 50], dtype=np.int64))
        m = VMask(np.array([0, 1, 0, 1, 1], dtype=bool))
        out = vec.vcompress(src, m)
        assert list(out.data) == [20, 40, 50, 0, 0]

    def test_vrgather(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        src = VReg(np.array([10.0, 20.0, 30.0, 40.0]))
        idx = VReg(np.array([3, 3, 0, 9], dtype=np.int64))
        out = vec.vrgather(src, idx)
        assert list(out.data) == [40.0, 40.0, 10.0, 0.0]  # OOB gives 0

    def test_slides(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        src = VReg(np.array([1.0, 2.0, 3.0, 4.0]))
        assert list(vec.vslideup(src, 1).data) == [0.0, 1.0, 2.0, 3.0]
        assert list(vec.vslidedown(src, 2).data) == [3.0, 4.0, 0.0, 0.0]

    def test_vmerge(self, env):
        _, _, vec = env
        vec.vsetvl(3)
        m = VMask(np.array([1, 0, 1], dtype=bool))
        a = VReg(np.array([1.0, 2.0, 3.0]))
        assert list(vec.vmerge(m, a, 9.0).data) == [1.0, 9.0, 3.0]


class TestReductions:
    def test_vfredsum(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        v = VReg(np.array([1.0, 2.0, 3.0, 4.0]))
        assert vec.vfredsum(v) == 10.0
        assert vec.vfredsum(v, init=1.0) == 11.0

    def test_vredsum_int(self, env):
        _, _, vec = env
        vec.vsetvl(3)
        v = VReg(np.array([1, 2, 3], dtype=np.int64))
        assert vec.vredsum(v) == 6

    def test_masked_reduction(self, env):
        _, _, vec = env
        vec.vsetvl(4)
        v = VReg(np.array([1.0, 2.0, 3.0, 4.0]))
        m = VMask(np.array([1, 0, 0, 1], dtype=bool))
        assert vec.vfredsum(v, mask=m) == 5.0

    def test_empty_mask_returns_init(self, env):
        _, _, vec = env
        vec.vsetvl(2)
        v = VReg(np.array([1.0, 2.0]))
        m = VMask(np.zeros(2, dtype=bool))
        assert vec.vfredsum(v, init=7.0, mask=m) == 7.0

    def test_vredmax_min(self, env):
        _, _, vec = env
        vec.vsetvl(3)
        v = VReg(np.array([5, 1, 9], dtype=np.int64))
        assert vec.vredmax(v, 0) == 9
        assert vec.vredmin(v, 100) == 1

    def test_reduce_is_scalar_dest(self, env):
        _, trace, vec = env
        vec.vsetvl(2)
        vec.vfredsum(VReg(np.array([1.0, 2.0])))
        assert trace[-1].scalar_dest


class TestDependencyTracking:
    def test_load_produces_src(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(8)
        v = vec.vle(a)
        assert v.src == len(trace) - 1

    def test_consumer_records_dep(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(8)
        v = vec.vle(a)
        out = vec.vfmul(v, 2.0)
        assert trace[out.src].dep == v.src

    def test_dep_is_newest_operand(self, env):
        _, trace, vec = env
        vec.vsetvl(2)
        a = vec.vfmv(1.0)
        b = vec.vfmv(2.0)
        out = vec.vfadd(a, b)
        assert trace[out.src].dep == b.src

    def test_gather_dep_on_index(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))
        vec.vsetvl(4)
        idx = vec.vid()
        vec.vlxe(a, idx)
        assert trace[-1].dep == idx.src

    def test_store_dep_on_value(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", 8, np.float64)
        vec.vsetvl(4)
        v = vec.vfmv(1.0)
        vec.vse(v, a)
        assert trace[-1].dep == v.src

    def test_scalar_sourced_reg_has_no_dep(self, env):
        mem, trace, vec = env
        a = mem.alloc("x", 8, np.float64)
        vec.vsetvl(4)
        raw = VReg(np.zeros(4))
        vec.vse(raw, a)
        assert trace[-1].dep == -1


class TestWithVl:
    def test_truncate(self, env):
        _, _, vec = env
        vec.vsetvl(8)
        v = vec.vfmv(3.0)
        vec.vsetvl(4)
        out = vec.with_vl(v)
        assert out.vl == 4 and (out.data == 3.0).all()

    def test_extend_zero_fills(self, env):
        _, _, vec = env
        vec.vsetvl(2)
        v = vec.vfmv(3.0)
        vec.vsetvl(4)
        out = vec.with_vl(v)
        assert list(out.data) == [3.0, 3.0, 0.0, 0.0]

    def test_emits_no_instruction(self, env):
        _, trace, vec = env
        vec.vsetvl(4)
        v = vec.vfmv(1.0)
        n = len(trace)
        vec.with_vl(v)
        assert len(trace) == n
