"""Unit tests for the machine configuration layer."""

import dataclasses

import pytest

from repro.config import (
    CoreConfig,
    L2Config,
    MemConfig,
    NocConfig,
    SdvConfig,
    VpuConfig,
    bw_fraction_for_bytes_per_cycle,
)
from repro.errors import ConfigError


class TestDefaultsMatchPaper:
    """The default build is the system of Section 2."""

    def test_vpu_is_vitruvius_like(self):
        cfg = SdvConfig().validate()
        assert cfg.vpu.lanes == 8                 # "eight lanes"
        assert cfg.vpu.max_vl == 256              # "256 double precision"
        assert cfg.vpu.register_bits == 16384     # "16384-bit wide"

    def test_noc_is_2x2_mesh(self):
        cfg = SdvConfig().validate()
        assert cfg.noc.nodes == 4

    def test_l2_has_four_banks(self):
        cfg = SdvConfig().validate()
        assert cfg.l2.banks == 4

    def test_min_dram_latency_about_50_cycles(self):
        cfg = SdvConfig().validate()
        assert 45 <= cfg.dram_latency <= 55       # "approximately 50"

    def test_peak_bandwidth_64_bytes_per_cycle(self):
        cfg = SdvConfig().validate()
        assert cfg.mem.bytes_per_cycle_limit == 64.0


class TestValidation:
    def test_core_rejects_bad_issue_width(self):
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=0).validate()

    def test_core_rejects_misaligned_l1(self):
        with pytest.raises(ConfigError):
            CoreConfig(l1d_bytes=1000).validate()

    def test_vpu_rejects_non_pow2_vl(self):
        with pytest.raises(ConfigError):
            VpuConfig(max_vl=100).validate()

    def test_vpu_rejects_vl_below_lanes(self):
        with pytest.raises(ConfigError):
            VpuConfig(lanes=8, max_vl=4).validate()

    def test_vpu_rejects_bad_mshrs(self):
        with pytest.raises(ConfigError):
            VpuConfig(line_mshrs=0).validate()

    def test_l2_rejects_non_pow2_banks(self):
        with pytest.raises(ConfigError):
            L2Config(banks=3).validate()

    def test_mem_rejects_over_peak_fraction(self):
        with pytest.raises(ConfigError):
            MemConfig(bw_num=3, bw_den=2).validate()

    def test_noc_rejects_zero_dims(self):
        with pytest.raises(ConfigError):
            NocConfig(mesh_cols=0).validate()

    def test_sdv_rejects_more_banks_than_nodes(self):
        cfg = SdvConfig(l2=L2Config(banks=8, bank_bytes=64 * 1024, ways=8))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_sdv_rejects_tiny_memory(self):
        with pytest.raises(ConfigError):
            SdvConfig(memory_bytes=16).validate()


class TestKnobCopies:
    def test_with_extra_latency(self):
        cfg = SdvConfig().validate()
        cfg2 = cfg.with_extra_latency(512)
        assert cfg2.mem.extra_latency_cycles == 512
        assert cfg.mem.extra_latency_cycles == 0  # original untouched
        assert cfg2.dram_latency == cfg.dram_latency + 512

    def test_with_bandwidth(self):
        cfg = SdvConfig().with_bandwidth(8)
        assert cfg.mem.bytes_per_cycle_limit == 8.0

    def test_with_max_vl(self):
        cfg = SdvConfig().with_max_vl(16)
        assert cfg.vpu.max_vl == 16

    def test_knobs_compose(self):
        cfg = (SdvConfig().with_max_vl(32).with_extra_latency(64)
               .with_bandwidth(4))
        assert cfg.vpu.max_vl == 32
        assert cfg.mem.extra_latency_cycles == 64
        assert cfg.mem.bytes_per_cycle_limit == 4.0

    def test_invalid_knob_values_rejected(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            SdvConfig().with_max_vl(7)
        with pytest.raises(ReproError):
            SdvConfig().with_bandwidth(3)
        with pytest.raises(ReproError):
            SdvConfig().with_extra_latency(-1)


class TestDerivedLatencies:
    def test_l2_hit_cheaper_than_dram(self):
        cfg = SdvConfig().validate()
        assert cfg.l2_hit_latency < cfg.dram_latency

    def test_frozen(self):
        cfg = SdvConfig().validate()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.memory_bytes = 1

    def test_hop_cycles_feed_latency(self):
        slow_noc = SdvConfig(noc=NocConfig(hop_cycles=20)).validate()
        fast_noc = SdvConfig(noc=NocConfig(hop_cycles=1)).validate()
        assert slow_noc.l2_hit_latency > fast_noc.l2_hit_latency


class TestBwFractionHelper:
    def test_known_values(self):
        assert bw_fraction_for_bytes_per_cycle(64) == (1, 1)
        assert bw_fraction_for_bytes_per_cycle(32) == (1, 2)
        assert bw_fraction_for_bytes_per_cycle(8) == (1, 8)
        assert bw_fraction_for_bytes_per_cycle(1) == (1, 64)

    def test_invalid_target(self):
        with pytest.raises(ConfigError):
            bw_fraction_for_bytes_per_cycle(3)
        with pytest.raises(ConfigError):
            bw_fraction_for_bytes_per_cycle(0)

    def test_config_roundtrip(self):
        cfg = MemConfig(bw_num=1, bw_den=2)
        assert cfg.bytes_per_cycle_limit == 32.0
