"""Tests for trace save/load round-tripping."""

import numpy as np
import pytest

from repro.config import SdvConfig
from repro.engine import simulate_fast
from repro.errors import TraceError
from repro.memory.classify import classify_trace
from repro.soc import FpgaSdv
from repro.trace.events import (
    Barrier,
    ScalarBlock,
    TraceBuffer,
    VectorInstr,
    VMemPattern,
    VOpClass,
)
from repro.trace.serialize import (
    FORMAT_VERSION,
    load_classified,
    load_trace,
    save_classified,
    save_trace,
)


def make_mixed_trace():
    t = TraceBuffer()
    t.append(ScalarBlock(n_alu_ops=7, mem_addrs=np.array([0x1000, 0x1008]),
                         mem_is_write=np.array([False, True]),
                         mlp_hint=3, label="blk"))
    t.append(VectorInstr(op=VOpClass.CSR, vl=8, opcode="vsetvl",
                         scalar_dest=True))
    t.append(VectorInstr(op=VOpClass.MEM, vl=8, opcode="vle",
                         pattern=VMemPattern.UNIT,
                         addrs=0x2000 + 8 * np.arange(8)))
    t.append(VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd", dep=2))
    t.append(VectorInstr(op=VOpClass.MEM, vl=8, opcode="vsxe",
                         pattern=VMemPattern.INDEXED,
                         addrs=0x3000 + 64 * np.arange(3),
                         is_write=True, masked=True, active=3, dep=3))
    t.append(Barrier(label="end"))
    return t.seal()


class TestRoundTrip:
    def test_record_fidelity(self, tmp_path):
        path = tmp_path / "t.npz"
        orig = make_mixed_trace()
        save_trace(orig, path)
        back = load_trace(path)
        assert len(back) == len(orig)
        for a, b in zip(orig, back):
            assert type(a) is type(b)
        blk = back[0]
        assert blk.n_alu_ops == 7 and blk.mlp_hint == 3 and blk.label == "blk"
        assert np.array_equal(blk.mem_addrs, orig[0].mem_addrs)
        assert np.array_equal(blk.mem_is_write, orig[0].mem_is_write)
        mem = back[2]
        assert mem.opcode == "vle" and mem.pattern is VMemPattern.UNIT
        assert np.array_equal(mem.addrs, orig[2].addrs)
        arith = back[3]
        assert arith.dep == 2
        scat = back[4]
        assert scat.is_write and scat.masked and scat.active == 3
        assert back[1].scalar_dest
        assert back[5].label == "end"

    def test_loaded_trace_is_sealed(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        assert load_trace(path).sealed

    def test_unsealed_rejected(self, tmp_path):
        t = TraceBuffer()
        with pytest.raises(TraceError):
            save_trace(t, tmp_path / "x.npz")

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.npz"
        save_trace(TraceBuffer().seal(), path)
        assert len(load_trace(path)) == 0

    def test_version_check(self, tmp_path):
        # the retired v1 format is refused like any unknown version
        path = tmp_path / "v.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path))
        for version in (1, FORMAT_VERSION + 1):
            data["version"] = np.int64(version)
            np.savez_compressed(path, **data)
            with pytest.raises(TraceError, match="unsupported"):
                load_trace(path)


class TestTimingEquivalence:
    def test_retiming_loaded_trace_matches_original(self, tmp_path):
        """The record-once / re-time-later workflow end to end."""
        from repro.kernels.fft import fft_vector
        from repro.workloads.signals import make_signal

        sdv = FpgaSdv()
        sess = sdv.session()
        fft_vector(sess, make_signal(256, seed=3))
        orig = sess.seal()
        path = tmp_path / "fft.npz"
        save_trace(orig, path)
        back = load_trace(path)

        for extra in (0, 512):
            cfg = SdvConfig().with_extra_latency(extra)
            a = simulate_fast(classify_trace(orig, cfg)).cycles
            b = simulate_fast(classify_trace(back, cfg)).cycles
            assert a == b


class TestFormatVersions:
    def test_v2_has_no_pickled_arrays(self, tmp_path):
        """v2 must stay loadable with allow_pickle=False (plain arrays)."""
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        with np.load(path, allow_pickle=False) as z:
            assert int(z["version"]) == FORMAT_VERSION
            for name in z.files:
                z[name]  # raises if any member needs pickle

    def test_pickled_member_is_refused(self, tmp_path):
        """A cache file with an object-array member is refused, never
        unpickled."""
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path))
        data["strings"] = np.array(["blk", "vle"], dtype=object)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="allow_pickle"):
            load_trace(path)

    def test_nul_in_string_table_rejected(self, tmp_path):
        t = TraceBuffer()
        t.append(Barrier(label="bad\0label"))
        with pytest.raises(TraceError):
            save_trace(t.seal(), tmp_path / "x.npz")


class TestClassifiedSidecar:
    def test_v1_and_short_offsets_load_as_none(self, tmp_path):
        trace = make_mixed_trace()
        cfg = SdvConfig().validate()
        path = tmp_path / "t.cls.npz"
        save_classified(classify_trace(trace, cfg), path, geometry_fp="g")
        assert load_classified(path, trace, cfg, geometry_fp="g") is not None
        data = dict(np.load(path))
        # version 1 stored per-record lengths and the levels they cut
        v1 = {"version": np.int64(1), "geometry": data["geometry"],
              "rows": data["rows"],
              "lens": np.diff(data["req_off"]), "flat": data["levels"]}
        short = dict(data, req_off=data["req_off"][:-1])
        for name, payload in (("v1", v1), ("short", short)):
            np.savez_compressed(tmp_path / f"{name}.npz", **payload)
            assert load_classified(tmp_path / f"{name}.npz", trace, cfg,
                                   geometry_fp="g") is None
