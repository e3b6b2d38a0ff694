"""Machine-characterization microkernels: the substrate self-consistency
proof — the machine must *measure* as the configuration describes it."""

import dataclasses

import numpy as np
import pytest

from repro.kernels.base import KernelOutput
from repro.kernels.micro import (
    characterize_machine,
    gather_probe,
    pointer_chase,
    scatter_probe,
    stream_add,
    stream_copy,
    stream_scale,
    stream_triad,
)
from repro.soc import FpgaSdv
from repro.util.prng import make_rng


@pytest.fixture(scope="module")
def probe():
    return characterize_machine(FpgaSdv())


class TestFunctional:
    def test_copy(self):
        out, _ = FpgaSdv().run(stream_copy, n=1024)
        assert (out.value == np.arange(1024)).all()

    def test_scale(self):
        out, _ = FpgaSdv().run(stream_scale, n=512, q=2.0)
        assert (out.value == 2.0 * np.arange(512)).all()

    def test_add(self):
        out, _ = FpgaSdv().run(stream_add, n=512)
        assert (out.value == 2.0 * np.arange(512)).all()

    def test_triad(self):
        out, _ = FpgaSdv().run(stream_triad, n=512, q=3.0)
        assert (out.value == 4.0 * np.arange(512)).all()

    def test_gather_scatter(self):
        g, _ = FpgaSdv().run(gather_probe, n=512)
        s, _ = FpgaSdv().run(scatter_probe, n=512)
        assert g.value.shape == s.value.shape == (512,)

    def test_pointer_chase_walks_ring(self):
        out, _ = FpgaSdv().run(pointer_chase, n=256, hops=64)
        assert 0 <= out.value < 256

    @pytest.mark.parametrize("hops", [0, 100, 256, 700])
    def test_pointer_chase_emits_the_hop_loop(self, hops):
        """The probe's one address vector is the block a hop-by-hop walk
        of the ring emits, and it ends on the same node, whether the walk
        stops short of the ring's length, at it or wraps around it."""
        def hop_loop(session, n, hops, seed=5):
            # the walk as it reads: follow each node's next pointer
            rng = make_rng(seed, "chase")
            stride = 8
            order = rng.permutation(n).astype(np.int64)
            nxt = np.zeros(n * stride, dtype=np.int64)
            nxt[order[:-1] * stride] = order[1:]
            nxt[order[-1] * stride] = order[0]
            ring = session.mem.alloc("micro.ring", nxt)
            node = int(order[0])
            addrs = np.empty(hops, dtype=np.int64)
            for h in range(hops):
                addrs[h] = ring.addr(node * stride)
                node = int(ring.view[node * stride])
            session.scalar.emit_block(addrs, False, hops, mlp_hint=1,
                                      label="pointer-chase")
            return KernelOutput(value=node, meta={"hops": hops})

        sdv = FpgaSdv()
        got, want = sdv.session(), sdv.session()
        out = pointer_chase(got, n=256, hops=hops)
        ref = hop_loop(want, n=256, hops=hops)
        assert out.value == ref.value
        a, b = got.seal().cols, want.seal().cols
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name))


class TestSelfConsistency:
    """Measured machine == configured machine."""

    def test_streams_achieve_near_peak_bandwidth(self, probe):
        # peak is 64 B/cycle; streaming should land within 15%
        assert probe.copy_bytes_per_cycle > 0.85 * 64
        assert probe.triad_bytes_per_cycle > 0.85 * 64

    def test_pointer_chase_reads_configured_latency(self, probe):
        cfg = FpgaSdv().config
        assert probe.chase_cycles_per_hop == pytest.approx(
            cfg.dram_latency, rel=0.1)

    def test_latency_controller_visible_in_chase(self):
        extra = 777
        p = characterize_machine(FpgaSdv().configure(extra_latency=extra))
        base = characterize_machine(FpgaSdv())
        assert (p.chase_cycles_per_hop - base.chase_cycles_per_hop
                == pytest.approx(extra, rel=0.02))

    def test_bandwidth_limiter_caps_streams(self):
        for bpc in (4, 16):
            p = characterize_machine(FpgaSdv().configure(bandwidth_bpc=bpc))
            # triad moves 3 bytes per 2 DRAM-read bytes, so the achieved
            # figure can exceed the limiter by that ratio but not more
            assert p.copy_bytes_per_cycle <= 2.1 * bpc

    def test_gather_slower_than_stream(self, probe):
        assert probe.gather_bytes_per_cycle < probe.copy_bytes_per_cycle

    def test_gather_rate_tracks_agu(self):
        # gather AGU does 2 elements/cycle -> 16 B/cycle of payload, i.e.
        # 24 B/cycle counting the index and result streams (3 arrays)
        p = characterize_machine(FpgaSdv())
        assert 16 <= p.gather_bytes_per_cycle <= 40

    def test_render(self, probe):
        out = probe.render()
        assert "triad" in out and "B/cycle" in out


class TestTransposeProbe:
    def test_functional(self):
        from repro.kernels.micro import transpose_probe
        out, _ = FpgaSdv().run(transpose_probe, side=16)
        assert (out.value == out.meta["expected"]).all()

    def test_strided_pattern_recorded(self):
        from repro.kernels.micro import transpose_probe
        from repro.trace.events import VectorInstr, VMemPattern
        sess = FpgaSdv().session()
        transpose_probe(sess, side=16)
        trace = sess.seal()
        patterns = {r.pattern for r in trace
                    if isinstance(r, VectorInstr) and r.is_mem}
        assert VMemPattern.STRIDED in patterns

    def test_strided_slower_than_streaming(self):
        """A strided walk touches vl lines per access — far below the
        unit-stride bandwidth."""
        from repro.kernels.micro import stream_copy, transpose_probe
        side = 64
        _, tr = FpgaSdv().run(transpose_probe, side=side)
        _, st = FpgaSdv().run(stream_copy, n=side * side)
        bw_tr = 16 * side * side / tr.cycles
        bw_st = 16 * side * side / st.cycles
        assert bw_tr < bw_st
