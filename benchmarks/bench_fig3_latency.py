"""Figure 3 — execution time vs. added memory latency, all four kernels.

Regenerates the four plots of Figure 3 as tables (rows = extra latency,
columns = scalar + VLs, cells = kilocycles) and checks the figure's visual
claims: every series grows with latency, and the scalar/low-VL series grow
steepest. The timed operation is one batch-engine retiming of the
classified trace at the worst-case knob setting (one ``FpgaSdv.time`` call).
"""

import pytest

from conftest import write_result
from repro.core.report import render_figure3
from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_fig3(kernel, latency_sweeps, workloads, benchmark):
    result = latency_sweeps[kernel]
    write_result(f"fig3_{kernel}", render_figure3(result))

    # -- shape assertions (what the plot shows) --------------------------
    for impl in result.impls:
        series = result.series(impl)
        assert all(a < b for a, b in zip(series, series[1:])), \
            f"{kernel}/{impl} must slow down with added latency"
    # slope comparison: absolute increase over the sweep
    slope = {impl: result.series(impl)[-1] - result.series(impl)[0]
             for impl in result.impls}
    assert slope["scalar"] > slope["vl256"], \
        "the scalar series must be the steepest vs the longest vectors"
    assert slope["vl64"] > slope["vl256"]

    # -- timed unit: one retiming pass -----------------------------------
    sdv, trace = run_implementation(KERNELS[kernel], workloads[kernel],
                                    256, verify=False)
    sdv.configure(extra_latency=1024)
    sdv.classify(trace)  # warm the classification cache
    benchmark(lambda: sdv.time(trace))
