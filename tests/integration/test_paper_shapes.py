"""Integration tests: the paper's qualitative results must hold.

These are the load-bearing assertions of the whole reproduction — each maps
to a sentence in Section 4 or 5 of the paper. They run at the 'ci' scale
(the structures, not absolute cycle counts, are scale-invariant; the
benchmark harness re-checks at paper scale).
"""

import pytest

from repro.core.figures import figure4_table, figure5_series, \
    headline_numbers, plateau_bandwidth
from repro.core.sweeps import bandwidth_sweep, latency_sweep
from repro.kernels import KERNELS
from repro.workloads import get_scale

SCALE = get_scale("ci")
VLS = (8, 64, 256)
LATS = (0, 32, 1024)
BWS = (1, 2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module", params=list(KERNELS))
def kernel_name(request):
    return request.param


@pytest.fixture(scope="module")
def latency_results():
    out = {}
    for name, spec in KERNELS.items():
        wl = spec.prepare(SCALE, 7)
        out[name] = latency_sweep(spec, wl, latencies=LATS, vls=VLS)
    return out


@pytest.fixture(scope="module")
def bandwidth_results():
    out = {}
    for name, spec in KERNELS.items():
        wl = spec.prepare(SCALE, 7)
        out[name] = bandwidth_sweep(spec, wl, bandwidths=BWS, vls=VLS)
    return out


class TestSection41Latency:
    """'the vectorized implementations are less impaired than the scalar
    ones ... accentuated when the vector implementations use a large VL'."""

    def test_all_times_increase_with_latency(self, latency_results,
                                             kernel_name):
        r = latency_results[kernel_name]
        for impl in r.impls:
            s = r.series(impl)
            assert s[0] < s[1] < s[2], (kernel_name, impl)

    def test_scalar_slowdown_worse_than_long_vectors(self, latency_results,
                                                     kernel_name):
        """Scalar degrades more than the long-vector implementations.

        Note: at VL=8 two kernels (BFS, FFT) have dispatch/sync-bound base
        times in our model, which mutes their *relative* slowdown below the
        scalar one — a documented deviation (EXPERIMENTS.md); the paper's
        conclusion concerns long vectors, asserted here for VL>=64.
        """
        table = figure4_table(latency_results[kernel_name])
        at_1024 = {impl: table[impl][-1] for impl in table}
        assert at_1024["scalar"] > at_1024["vl64"], (kernel_name, at_1024)
        assert at_1024["scalar"] > at_1024["vl256"], (kernel_name, at_1024)

    def test_vl256_slowdown_best_of_long_vectors(self, latency_results,
                                                 kernel_name):
        table = figure4_table(latency_results[kernel_name])
        at_1024 = {impl: table[impl][-1] for impl in table}
        assert at_1024["vl256"] <= at_1024["vl64"], (kernel_name, at_1024)
        assert at_1024["vl256"] < at_1024["scalar"], (kernel_name, at_1024)

    def test_absolute_time_decreases_with_vl(self, latency_results,
                                             kernel_name):
        """Longer vectors run faster in absolute cycles at every latency
        (small tolerance between adjacent VLs for strip-count granularity
        effects at CI scale)."""
        r = latency_results[kernel_name]
        for i in range(len(LATS)):
            v = [r.series(f"vl{vl}")[i] for vl in VLS]
            assert v[2] < v[0], (kernel_name, LATS[i], v)      # strict 8->256
            assert v[1] < v[0] * 1.05, (kernel_name, LATS[i], v)
            assert v[2] < v[1] * 1.20, (kernel_name, LATS[i], v)

    def test_vector_vl256_faster_than_scalar_everywhere(self,
                                                        latency_results,
                                                        kernel_name):
        r = latency_results[kernel_name]
        for i in range(len(LATS)):
            assert r.series("vl256")[i] < r.series("scalar")[i]

    def test_spmv_slowdowns_monotone_across_all_vls(self, latency_results):
        """SpMV (the paper's worked example) gets the strict property."""
        table = figure4_table(latency_results["spmv"])
        order = ["scalar", "vl8", "vl64", "vl256"]
        at_1024 = [table[i][-1] for i in order]
        assert all(a > b for a, b in zip(at_1024, at_1024[1:])), at_1024


class TestSection41Headline:
    """SpMV: +32 -> scalar 1.22x vs vl256 1.05x; +1024 -> 8.78x vs 3.39x.

    Absolute matches are not expected (different substrate); the reproduced
    numbers must preserve the contrast and rough magnitude.
    """

    @pytest.fixture(scope="class")
    def numbers(self):
        spec = KERNELS["spmv"]
        wl = spec.prepare(SCALE, 7)
        return headline_numbers(
            latency_sweep(spec, wl, latencies=(0, 32, 1024), vls=(256,))
        )

    def test_contrast_at_32(self, numbers):
        assert numbers.vl256_at_32 < numbers.scalar_at_32

    def test_vl256_nearly_unaffected_at_32(self, numbers):
        assert numbers.vl256_at_32 < 1.10  # paper: 1.05

    def test_scalar_visibly_affected_at_32(self, numbers):
        assert 1.10 < numbers.scalar_at_32 < 1.60  # paper: 1.22

    def test_magnitudes_at_1024(self, numbers):
        assert 5.0 < numbers.scalar_at_1024 < 16.0      # paper: 8.78
        assert 1.5 < numbers.vl256_at_1024 < 6.0        # paper: 3.39

    def test_factor_between_scalar_and_vl256(self, numbers):
        ratio = numbers.scalar_at_1024 / numbers.vl256_at_1024
        paper_ratio = 8.78 / 3.39
        assert ratio > 1.5  # the win direction and rough size
        assert ratio == pytest.approx(paper_ratio, rel=1.0)


class TestSection42Bandwidth:
    """'scalar versions do not take advantage of bandwidths higher than 1-2
    B/cycle ... larger VL benefit more from higher bandwidth'."""

    def test_normalized_time_nonincreasing(self, bandwidth_results,
                                           kernel_name):
        series = figure5_series(bandwidth_results[kernel_name])
        for impl, s in series.items():
            assert all(a >= b - 1e-9 for a, b in zip(s, s[1:])), (impl, s)

    def test_scalar_plateaus_early(self, bandwidth_results, kernel_name):
        p = plateau_bandwidth(bandwidth_results[kernel_name], "scalar")
        assert p <= 4, (kernel_name, p)  # paper: 1-2 B/cycle

    def test_vl256_plateaus_at_or_after_scalar(self, bandwidth_results,
                                               kernel_name):
        r = bandwidth_results[kernel_name]
        assert (plateau_bandwidth(r, "vl256")
                >= plateau_bandwidth(r, "scalar")), kernel_name

    def test_spmv_vl256_uses_high_bandwidth(self, bandwidth_results):
        """The memory-bound kernel shows the full effect: VL=256 keeps
        benefiting up to 32-64 B/cycle."""
        assert plateau_bandwidth(bandwidth_results["spmv"], "vl256") >= 16

    def test_vl256_gains_more_than_scalar(self, bandwidth_results,
                                          kernel_name):
        series = figure5_series(bandwidth_results[kernel_name])
        # final normalized time: lower = benefited more from bandwidth
        assert series["vl256"][-1] <= series["scalar"][-1] + 1e-9
