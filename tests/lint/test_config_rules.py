"""Sweep-grid legality, SoC config checks, trace-cache staleness audit."""

import pytest

from repro.config import SdvConfig
from repro.core.sweeps import run_implementation
from repro.errors import ConfigError
from repro.kernels import KERNELS
from repro.lint.config_rules import (
    check_bandwidth_axis,
    check_latency_axis,
    check_sweep,
    check_trace_cache,
    check_vls,
)
from repro.workloads import get_scale
from tests.lint.util import error_rules, rules_of


class TestAxes:
    def test_default_grids_are_clean(self):
        from repro.core.sweeps import (
            DEFAULT_BANDWIDTHS,
            DEFAULT_LATENCIES,
            DEFAULT_VLS,
        )
        assert check_latency_axis(DEFAULT_LATENCIES) == []
        assert check_bandwidth_axis(DEFAULT_BANDWIDTHS) == []
        assert check_vls(DEFAULT_VLS) == []

    @pytest.mark.parametrize("points,rule", [
        ((0, -5), "C001"),
        ((0, 1.5), "C001"),
        ((), "C008"),
        ((0, 2000), "C007"),
        ((64, 0), "C006"),
        ((0, 0), "C006"),
    ])
    def test_latency_axis(self, points, rule):
        assert rule in rules_of(check_latency_axis(points))

    @pytest.mark.parametrize("points,rule", [
        ((0,), "C002"),            # zero B/cycle
        ((3,), "C002"),            # does not divide the 64 B line
        ((128,), "C002"),          # beyond the line: cannot divide it
        ((), "C008"),
    ])
    def test_bandwidth_axis(self, points, rule):
        assert rule in rules_of(check_bandwidth_axis(points))

    @pytest.mark.parametrize("vls,rule", [
        ((48,), "C003"),
        ((0,), "C003"),
        ((512,), "C007"),
        ((), "C008"),
    ])
    def test_vl_grid(self, vls, rule):
        assert rule in rules_of(check_vls(vls))

    def test_check_sweep_rolls_up_axis_vls_and_config(self):
        found = check_sweep("latency", (0, -1), (48,), SdvConfig())
        rules = rules_of(found)
        assert "C001" in rules and "C003" in rules

    def test_unknown_axis(self):
        assert "C005" in rules_of(check_sweep("voltage", (0,), (8,)))


class TestSweepGate:
    """The harness rejects illegal grids before generating any trace."""

    def test_latency_sweep_rejects_bad_grid(self):
        from repro.core.sweeps import latency_sweep
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        with pytest.raises(ConfigError, match="C001"):
            latency_sweep(spec, wl, latencies=(0, -5), vls=(64,))
        with pytest.raises(ConfigError, match="C003"):
            latency_sweep(spec, wl, latencies=(0,), vls=(48,))

    def test_bandwidth_sweep_rejects_bad_grid(self):
        from repro.core.sweeps import bandwidth_sweep
        spec = KERNELS["spmv"]
        wl = spec.prepare(get_scale("smoke"), 7)
        with pytest.raises(ConfigError, match="C002"):
            bandwidth_sweep(spec, wl, bandwidths=(3,), vls=(64,))


class TestTraceCacheAudit:
    def _warm(self, tmp_path):
        spec = KERNELS["fft"]
        wl = spec.prepare(get_scale("smoke"), 7)
        run_implementation(spec, wl, 8, trace_cache=tmp_path,
                           verify=False)
        return spec, wl

    def test_fresh_cache_is_clean(self, tmp_path):
        self._warm(tmp_path)
        assert check_trace_cache(tmp_path) == []

    def test_not_a_directory(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("x")
        assert rules_of(check_trace_cache(f)) == ["S003"]

    def test_unrecognized_entry(self, tmp_path):
        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        # a stray file, and the temporary file a killed save leaves
        for name in ("leftover.npz", f"{entry.name}.4242.tmp"):
            stray = tmp_path / name
            stray.write_bytes(b"x")
            assert rules_of(check_trace_cache(tmp_path)) == ["S003"]
            stray.unlink()

    @staticmethod
    def _trace_entry(tmp_path):
        """The one cache entry: the trace and its classification."""
        (entry,) = tmp_path.glob("*.npz")
        return entry

    def test_truncated_entry_is_unreadable(self, tmp_path):
        # what a killed copy or a full disk leaves: half of the zip
        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        data = entry.read_bytes()
        entry.write_bytes(data[:len(data) // 2])
        found = check_trace_cache(tmp_path)
        assert error_rules(found) == ["S005"]
        assert found[0].location == str(entry)

    def test_entry_whose_counts_do_not_fit_is_unreadable(self, tmp_path):
        # a whole zip whose stored counts disagree with its stored line
        # requests: every cached run would reject and regenerate it
        import numpy as np

        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        data = dict(np.load(entry))
        data["cls_rows"]["dram_reads"][0] += 40
        np.savez_compressed(entry, **data)
        found = check_trace_cache(tmp_path)
        assert error_rules(found) == ["S005"]
        assert found[0].location == str(entry)

    def test_entry_that_breaks_the_trace_format_is_unreadable(self,
                                                              tmp_path):
        # a whole zip whose trace has a scalar block with mlp 0: load
        # refuses it (T109), so every cached run would regenerate it
        import numpy as np

        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        data = dict(np.load(entry))
        data["mlp"][np.flatnonzero(data["kind"] == 0)[0]] = 0
        np.savez_compressed(entry, **data)
        found = check_trace_cache(tmp_path)
        assert error_rules(found) == ["S005"]
        assert "T109" in found[0].message

    def test_stale_schema_version(self, tmp_path):
        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        stale = entry.name.replace("-t", "-t9", 1)
        entry.rename(tmp_path / stale)
        assert rules_of(check_trace_cache(tmp_path)) == ["S001"]

    def test_stale_kernel_fingerprint(self, tmp_path):
        self._warm(tmp_path)
        entry = self._trace_entry(tmp_path)
        stem, src = entry.name.rsplit("-", 1)
        entry.rename(tmp_path / f"{stem}-{'0' * 12}.npz")
        found = check_trace_cache(tmp_path)
        assert rules_of(found) == ["S002"]
        assert error_rules(found) == ["S002"]

    def test_classifier_edit_stales_the_entry(self, tmp_path,
                                              edit_source):
        # an entry stores its classification, so an edit to the
        # classifier's source stales it like an edit to the emitters
        self._warm(tmp_path)
        edit_source("memory/classify.py")
        found = check_trace_cache(tmp_path)
        assert error_rules(found) == ["S002"]
        assert "classifies" in found[0].message
