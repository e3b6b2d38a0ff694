"""The study harness — the paper's experimental methodology as a library.

This package is the "primary contribution" layer: given the simulated
FPGA-SDV and the four kernels, it runs the paper's three sweeps and renders
the paper's figures/tables:

* :mod:`sweeps` — latency sweep (Section 4.1), bandwidth sweep (Section
  4.2), both at once (``figure_sweeps``), and VL sweep; one trace per
  implementation, batch-engine re-timing of all sweep points at once,
  optional on-disk trace cache;
* :mod:`parallel` — process-pool fan-out of trace generation (``jobs=N``);
* :mod:`measurements` — result containers, CSV export;
* :mod:`figures` — Figure 3 (time vs latency), Figure 4 (normalized
  slowdown heat tables), Figure 5 (normalized time vs bandwidth), plus the
  headline numbers quoted in the text;
* :mod:`report` — plain-text rendering of everything above;
* :mod:`plots` — terminal line plots with the paper's color convention;
* :mod:`analysis` — roofline placement and traffic breakdown per run.
"""

from repro.core.measurements import Measurement, SweepResult
from repro.core.parallel import (
    default_jobs,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    DEFAULT_SWEEP_ENGINE,
    DEFAULT_VLS,
    FigureSweeps,
    bandwidth_sweep,
    figure_sweeps,
    latency_sweep,
    run_implementation,
    vl_sweep,
    workload_fingerprint,
)
from repro.core.figures import (
    figure3_series,
    figure4_table,
    figure5_series,
    headline_numbers,
    plateau_bandwidth,
)
from repro.core.report import render_figure3, render_figure4, render_figure5
from repro.core.plots import ascii_plot, plot_figure3, plot_figure5
from repro.core.analysis import (
    Characterization,
    characterize,
    roofline_bound,
    traffic_breakdown,
)
from repro.core.compare import (
    ConfigComparison,
    WhatIf,
    compare_configs,
    compare_sweeps,
)

__all__ = [
    "Measurement",
    "SweepResult",
    "DEFAULT_BANDWIDTHS",
    "DEFAULT_LATENCIES",
    "DEFAULT_SWEEP_ENGINE",
    "DEFAULT_VLS",
    "FigureSweeps",
    "bandwidth_sweep",
    "default_jobs",
    "figure_sweeps",
    "latency_sweep",
    "resolve_jobs",
    "run_implementation",
    "run_tasks",
    "shutdown_pool",
    "vl_sweep",
    "workload_fingerprint",
    "figure3_series",
    "figure4_table",
    "figure5_series",
    "headline_numbers",
    "plateau_bandwidth",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "ascii_plot",
    "plot_figure3",
    "plot_figure5",
    "Characterization",
    "characterize",
    "roofline_bound",
    "traffic_breakdown",
    "ConfigComparison",
    "WhatIf",
    "compare_configs",
    "compare_sweeps",
]
