"""End-to-end workflows: the library as a downstream user drives it."""

import pytest

from repro import (
    FpgaSdv,
    KERNELS,
    SdvConfig,
    get_scale,
    latency_sweep,
    simulate_events,
    simulate_fast,
)
from repro.workloads.mm_io import read_matrix_market, write_matrix_market


class TestFullWorkflow:
    def test_matrix_market_roundtrip_into_spmv(self, tmp_path):
        """Persist a matrix, reload it (as one would the real cage10.mtx),
        and run the whole SpMV comparison on it."""
        from repro.workloads.cage import scaled_cage_like
        mat = scaled_cage_like(256, seed=5)
        path = tmp_path / "cage.mtx"
        write_matrix_market(path, mat)
        loaded = read_matrix_market(path)

        spec = KERNELS["spmv"]
        ref = spec.reference(loaded)
        for vl in (None, 64):
            sdv = FpgaSdv()
            if vl:
                sdv.configure(max_vl=vl)
            build = spec.scalar if vl is None else spec.vector
            out = build(sdv.session(), loaded)
            assert spec.check(out, ref)

    def test_custom_machine_configuration_end_to_end(self):
        """A user studies a hypothetical 16-lane, small-L2 variant."""
        from repro.config import L2Config, VpuConfig
        cfg = SdvConfig(
            vpu=VpuConfig(lanes=16, max_vl=256),
            l2=L2Config(banks=4, bank_bytes=64 * 1024, ways=8),
        ).validate()
        spec = KERNELS["fft"]
        wl = spec.prepare(get_scale("smoke"), 3)
        result = latency_sweep(spec, wl, latencies=(0, 1024), vls=(256,),
                               config=cfg)
        assert result.cycles("vl256", 1024) > result.cycles("vl256", 0)

    def test_all_kernels_verify_on_both_engines(self):
        """Functional results are engine-independent (timing only)."""
        scale = get_scale("smoke")
        for name, spec in KERNELS.items():
            wl = spec.prepare(scale, 7)
            ref = spec.reference(wl)
            sdv = FpgaSdv()
            sess = sdv.session()
            out = spec.vector(sess, wl)
            assert spec.check(out, ref), name
            trace = sess.seal()
            ct = sdv.classify(trace)
            fast = simulate_fast(ct)
            event = simulate_events(ct)
            assert fast.dram_reads == event.dram_reads, name
            assert fast.cycles == pytest.approx(event.cycles, rel=0.6), name

    def test_sweep_determinism_across_runs(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        a = latency_sweep(spec, wl, latencies=(0, 64), vls=(8, 64))
        b = latency_sweep(spec, wl, latencies=(0, 64), vls=(8, 64))
        for impl in a.impls:
            assert a.series(impl) == b.series(impl)

    def test_counters_track_a_whole_study(self):
        sdv = FpgaSdv()
        spec = KERNELS["fft"]
        wl = spec.prepare(get_scale("smoke"), 3)
        for _ in range(3):
            sdv.run(spec.vector, wl)
        assert len(sdv.counters.history) == 3
        assert sdv.counters.cycles == pytest.approx(
            sum(sdv.counters.history))

    def test_memory_budget_respected_at_paper_scale_sizes(self):
        """Paper-scale allocations fit the default simulated memory."""
        from repro.workloads.graphs import rmat_graph
        g = rmat_graph(2 ** 12, edge_factor=8, seed=1)
        sdv = FpgaSdv()
        sess = sdv.session()
        out = KERNELS["bfs"].vector(sess, g)
        assert sess.mem.used_bytes < sdv.config.memory_bytes
        assert out.value.shape == (g.n,)
