"""Unit tests for the scalar context (interpreter + columnar emission)."""

import numpy as np
import pytest

from repro.errors import AccessError, TraceError
from repro.isa.scalar_ctx import ScalarContext, interleave_streams
from repro.memory.address_space import MemoryImage
from repro.soc.sdv import FpgaSdv
from repro.trace.events import Barrier, ScalarBlock, TraceBuffer


@pytest.fixture
def env():
    mem = MemoryImage(1 << 20)
    trace = TraceBuffer()
    return mem, trace, ScalarContext(mem, trace)


class TestInterleave:
    def test_two_streams(self):
        a = np.array([1, 3, 5])
        b = np.array([2, 4, 6])
        assert list(interleave_streams(a, b)) == [1, 2, 3, 4, 5, 6]

    def test_single_stream_identity(self):
        a = np.array([1, 2, 3])
        assert list(interleave_streams(a)) == [1, 2, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            interleave_streams(np.array([1]), np.array([1, 2]))

    def test_no_streams_rejected(self):
        with pytest.raises(TraceError):
            interleave_streams()


class TestColumnarEmission:
    def test_emit_block(self, env):
        mem, trace, scl = env
        a = mem.alloc("x", 8, np.float64)
        scl.emit_block(a.addr(np.arange(4)), False, 10, label="t")
        blk = trace[0]
        assert isinstance(blk, ScalarBlock)
        assert blk.n_mem_ops == 4
        assert blk.n_alu_ops == 10
        assert not blk.mem_is_write.any()

    def test_emit_block_scalar_write_flag_broadcast(self, env):
        mem, trace, scl = env
        a = mem.alloc("x", 4, np.float64)
        scl.emit_block(a.addr(np.arange(4)), True, 0)
        assert trace[0].mem_is_write.all()

    def test_emit_block_validates_addresses(self, env):
        _, _, scl = env
        with pytest.raises(AccessError):
            scl.emit_block(np.array([0]), False, 0)

    def test_emit_alu_only(self, env):
        _, trace, scl = env
        scl.emit_alu(42)
        assert trace[0].n_alu_ops == 42
        assert trace[0].n_mem_ops == 0

    def test_emit_alu_zero_is_noop(self, env):
        _, trace, scl = env
        scl.emit_alu(0)
        assert len(trace) == 0

    def test_instret_counts(self, env):
        # the hardware counters count retired instructions from the
        # sealed trace's columns: a block retires its ALU and memory ops
        mem, trace, scl = env
        a = mem.alloc("x", 4, np.float64)
        scl.emit_block(a.addr(np.arange(4)), False, 6)
        scl.emit_alu(3)
        scl.barrier()
        assert FpgaSdv._instret(trace.seal()) == (13, 0)


class TestInterpreter:
    def test_load_store_roundtrip(self, env):
        mem, trace, scl = env
        a = mem.alloc("x", np.array([1.5, 2.5]))
        v = scl.load_f64(a, 0)
        scl.store_f64(a, 1, v * 2)
        scl.alu(2)
        scl.flush(label="loop")
        assert a.view[1] == 3.0
        blk = trace[0]
        assert blk.n_mem_ops == 2
        assert list(blk.mem_is_write) == [False, True]
        assert blk.n_alu_ops == 2

    def test_int_accessors(self, env):
        mem, _, scl = env
        a = mem.alloc("x", np.array([7, 8], dtype=np.int64))
        assert scl.load_i64(a, 1) == 8
        scl.store_i64(a, 0, 42)
        assert a.view[0] == 42

    def test_flush_empty_is_noop(self, env):
        _, trace, scl = env
        scl.flush()
        assert len(trace) == 0

    def test_barrier_flushes_pending(self, env):
        mem, trace, scl = env
        a = mem.alloc("x", np.zeros(2))
        scl.load_f64(a, 0)
        scl.barrier("sync")
        assert isinstance(trace[0], ScalarBlock)
        assert isinstance(trace[1], Barrier)
        assert scl.pending_accesses == 0

    def test_negative_alu_rejected(self, env):
        _, _, scl = env
        with pytest.raises(TraceError):
            scl.alu(-1)

    def test_interpreter_addresses_match_columnar(self, env):
        """The two frontends must produce identical address streams."""
        mem, _, _ = env
        a = mem.alloc("x", np.arange(8, dtype=np.float64))

        t1 = TraceBuffer()
        s1 = ScalarContext(mem, t1)
        for i in range(4):
            s1.load_f64(a, i)
            s1.store_f64(a, i + 4, float(i))
        s1.flush()

        t2 = TraceBuffer()
        s2 = ScalarContext(mem, t2)
        loads = a.addr(np.arange(4))
        stores = a.addr(np.arange(4, 8))
        addrs = interleave_streams(loads, stores)
        writes = np.tile([False, True], 4)
        s2.emit_block(addrs, writes, 0)

        b1, b2 = t1[0], t2[0]
        assert np.array_equal(b1.mem_addrs, b2.mem_addrs)
        assert np.array_equal(b1.mem_is_write, b2.mem_is_write)
