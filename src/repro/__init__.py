"""repro — a trace-driven reproduction of *Short Reasons for Long Vectors in
HPC CPUs: A Study Based on RISC-V* (Vizcaino et al., SC'23).

The package simulates the paper's FPGA-SDV — a RISC-V scalar core with a
decoupled RVV v0.7.1 vector unit (up to 256 doubles per register), a 2x2
mesh NoC, a 4-bank shared L2/home node, and DDR memory behind a runtime
Latency Controller and Bandwidth Limiter — and re-runs the paper's study:
four non-dense kernels (SpMV, BFS, PageRank, FFT) in scalar and vector form
swept over vector length, extra memory latency, and memory bandwidth.

Quickstart::

    from repro import KERNELS, get_scale, latency_sweep

    scale = get_scale("ci")
    spec = KERNELS["spmv"]
    workload = spec.prepare(scale, seed=7)
    result = latency_sweep(spec, workload, vls=(8, 64, 256))
    print(result.to_csv())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.config import (
    CoreConfig,
    L2Config,
    MemConfig,
    NocConfig,
    SdvConfig,
    VpuConfig,
    bw_fraction_for_bytes_per_cycle,
)
from repro.core import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    DEFAULT_VLS,
    FigureSweeps,
    Measurement,
    SweepResult,
    bandwidth_sweep,
    figure3_series,
    figure4_table,
    figure5_series,
    figure_sweeps,
    headline_numbers,
    latency_sweep,
    plateau_bandwidth,
    render_figure3,
    render_figure4,
    render_figure5,
    run_implementation,
    vl_sweep,
)
from repro.core.suite import SuiteResult, render_report, run_suite
from repro.engine import (
    CycleReport,
    LoweredTrace,
    lower_trace,
    simulate_batch,
    simulate_events,
    simulate_events_fast,
    simulate_fast,
)
from repro.engine.noise import MeasuredValue, NoiseModel, measure
from repro.kernels.micro import MachineProbe, characterize_machine
from repro.memory import ReuseProfile, profile_trace
from repro.errors import ReproError
from repro.kernels import KERNELS, KernelOutput, KernelSpec
from repro.soc import FpgaSdv, Session
from repro.workloads import Scale, get_scale

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "L2Config",
    "MemConfig",
    "NocConfig",
    "SdvConfig",
    "VpuConfig",
    "bw_fraction_for_bytes_per_cycle",
    "DEFAULT_BANDWIDTHS",
    "DEFAULT_LATENCIES",
    "DEFAULT_VLS",
    "Measurement",
    "SweepResult",
    "bandwidth_sweep",
    "latency_sweep",
    "figure_sweeps",
    "FigureSweeps",
    "vl_sweep",
    "run_implementation",
    "figure3_series",
    "figure4_table",
    "figure5_series",
    "headline_numbers",
    "plateau_bandwidth",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "CycleReport",
    "LoweredTrace",
    "lower_trace",
    "simulate_batch",
    "simulate_events",
    "simulate_events_fast",
    "simulate_fast",
    "SuiteResult",
    "render_report",
    "run_suite",
    "MeasuredValue",
    "NoiseModel",
    "measure",
    "MachineProbe",
    "characterize_machine",
    "ReuseProfile",
    "profile_trace",
    "ReproError",
    "KERNELS",
    "KernelOutput",
    "KernelSpec",
    "FpgaSdv",
    "Session",
    "Scale",
    "get_scale",
    "__version__",
]
