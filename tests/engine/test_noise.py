"""Tests for the Section 3.2 measurement protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.noise import (
    PAPER_RUNS,
    MeasuredValue,
    NoiseModel,
    measure,
)
from repro.errors import ConfigError


class TestNoiseModel:
    def test_noise_only_adds_cycles(self):
        nm = NoiseModel(sigma=0.05, seed=1)
        for _ in range(200):
            assert nm.perturb(1000.0) >= 1000.0

    def test_zero_sigma_is_identity(self):
        nm = NoiseModel(sigma=0.0)
        assert nm.perturb(1234.0) == 1234.0

    def test_deterministic_given_seed(self):
        a = [NoiseModel(seed=7).perturb(100.0) for _ in range(3)]
        b = [NoiseModel(seed=7).perturb(100.0) for _ in range(3)]
        assert a == b

    def test_seed_changes_stream(self):
        a = NoiseModel(seed=1)
        b = NoiseModel(seed=2)
        sa = [a.perturb(1e6) for _ in range(20)]
        sb = [b.perturb(1e6) for _ in range(20)]
        assert sa != sb

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(sigma=0.5)
        with pytest.raises(ConfigError):
            NoiseModel(sigma=-0.1)


class TestMeasureProtocol:
    def test_uses_paper_run_count(self):
        calls = []
        m = measure(lambda: calls.append(1) or 1000.0)
        assert len(calls) == PAPER_RUNS
        assert len(m.samples) == PAPER_RUNS

    def test_mean_close_to_truth(self):
        m = measure(lambda: 1_000_000.0, noise=NoiseModel(seed=3))
        assert m.mean == pytest.approx(1_000_000.0, rel=0.03)

    def test_spread_property(self):
        m = MeasuredValue(mean=100.0, samples=(99.0, 100.0, 101.0))
        assert m.spread == pytest.approx(0.02)

    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigError):
            measure(lambda: 1.0, runs=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1e3, 1e9))
    def test_property_default_noise_within_paper_bound(self, seed, cycles):
        """The calibrated default noise reproduces '<3% variation'."""
        m = measure(lambda: cycles, noise=NoiseModel(seed=seed))
        assert m.within_paper_bound, m.spread

    def test_on_a_real_simulation(self):
        """End to end: measure a kernel the way Section 3.2 describes."""
        from repro.soc import FpgaSdv
        from repro.kernels.fft import fft_vector
        from repro.workloads.signals import make_signal

        sdv = FpgaSdv()
        sess = sdv.session()
        fft_vector(sess, make_signal(128, seed=3))
        trace = sess.seal()
        m = measure(lambda: sdv.time(trace).cycles)
        assert m.within_paper_bound
        assert m.mean >= sdv.time(trace).cycles  # noise only adds
