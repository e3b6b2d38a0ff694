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

    def test_forward_dep_rejected_on_load(self, tmp_path):
        # a trace file is input from outside the program: a dep that is not
        # an earlier record would reach the engines' walks unchecked
        path = tmp_path / "d.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path))
        data["dep"][3] = 4
        np.savez_compressed(path, **data)
        with pytest.raises(TraceError, match="earlier record"):
            load_trace(path)


class TestRecordCodes:
    """Lowering and the engines sort records by their kind, opclass and
    pattern codes, so a file whose codes name nothing is refused."""

    @pytest.mark.parametrize("column, record, code", [
        ("kind", -1, 7),       # the barrier
        ("opclass", 3, 200),   # vfadd
        ("pattern", 2, 9),     # vle
        ("pattern", 4, 9),     # vsxe
    ])
    def test_code_out_of_range_rejected_on_load(self, tmp_path, column,
                                                record, code):
        path = tmp_path / "c.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path))
        data[column][record] = code
        np.savez_compressed(path, **data)
        with pytest.raises(TraceError, match=f"{column} {code} is not"):
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


class TestAtomicSave:
    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        """A save that fails mid-write leaves nothing at the path and no
        temporary file behind."""
        real = np.lib.format.write_array
        written = []

        def disk_full(fp, array, *args, **kwargs):
            if len(written) == 3:
                raise OSError("No space left on device")
            written.append(1)
            return real(fp, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", disk_full)
        path = tmp_path / "t.npz"
        with pytest.raises(OSError, match="No space"):
            save_trace(make_mixed_trace(), path)
        assert written  # the failure came mid-write, not before it
        assert list(tmp_path.iterdir()) == []


class TestClassifiedSidecar:
    """The classification stored in the trace file itself."""

    def test_classification_round_trips_in_the_trace_file(self, tmp_path):
        trace = make_mixed_trace()
        cfg = SdvConfig().validate()
        ct = classify_trace(trace, cfg)
        path = tmp_path / "t.npz"
        save_trace(trace, path, classified=ct)
        back = load_trace(path)  # the trace loads as before
        loaded = load_classified(path, back, cfg)
        assert loaded.trace is back and loaded.config is cfg
        assert np.array_equal(loaded.rows, ct.rows)
        assert loaded.rows.dtype == ct.rows.dtype
        assert np.array_equal(loaded.req_off, ct.req_off)
        assert np.array_equal(loaded.lines, ct.lines)
        assert np.array_equal(loaded.levels, ct.levels)
        assert loaded.totals == ct.totals

    def test_missing_or_short_classification_raises(self, tmp_path):
        trace = make_mixed_trace()
        cfg = SdvConfig().validate()
        bare = tmp_path / "bare.npz"
        save_trace(trace, bare)
        with pytest.raises(TraceError, match="no classification"):
            load_classified(bare, trace, cfg)
        full = tmp_path / "full.npz"
        save_trace(trace, full, classified=classify_trace(trace, cfg))
        data = dict(np.load(full))
        short_off = dict(data, cls_req_off=data["cls_req_off"][:-1])
        short_rows = dict(data, cls_rows=data["cls_rows"][:-1])
        for name, payload in (("off", short_off), ("rows", short_rows)):
            np.savez_compressed(tmp_path / f"{name}.npz", **payload)
            with pytest.raises(TraceError):
                load_classified(tmp_path / f"{name}.npz", trace, cfg)

    @pytest.mark.parametrize("damage", [
        "count", "offset", "lines", "level", "rows_dtype", "offset_start"])
    def test_classification_that_does_not_fit_itself_raises(self, tmp_path,
                                                           damage):
        # the stored arrays each fit the trace's length, but not one
        # another: a run would time them without complaint
        trace = make_mixed_trace()
        cfg = SdvConfig().validate()
        path = tmp_path / "t.npz"
        save_trace(trace, path, classified=classify_trace(trace, cfg))
        data = dict(np.load(path))
        assert data["cls_req_off"].tolist() == [0, 2, 2, 3, 3, 6, 6]
        if damage == "count":
            data["cls_rows"]["dram_reads"][2] += 40
        elif damage == "offset":  # vfadd gains the vsxe's three requests
            data["cls_req_off"][4] += 3
        elif damage == "lines":
            data["cls_lines"] = data["cls_lines"][:-1]
        elif damage == "level":
            data["cls_levels"][0] = 3
        elif damage == "rows_dtype":
            data["cls_rows"] = data["cls_rows"].astype(
                [(name, np.int32) for name in data["cls_rows"].dtype.names])
        else:
            data["cls_req_off"] = data["cls_req_off"] + 1
        np.savez_compressed(path, **data)
        with pytest.raises(TraceError):
            load_classified(path, load_trace(path), cfg)
        # the audit's read-back has no config and refuses it the same way
        with pytest.raises(TraceError):
            load_classified(path, load_trace(path), None)
