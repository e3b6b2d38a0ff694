"""Whole-study report generation.

``run_suite`` executes the paper's complete experimental matrix (latency
and bandwidth sweeps for all four kernels, the headline numbers, the
machine probes, and roofline characterization) and renders one
self-contained Markdown report — the artifact a co-design meeting would
read. Used by ``repro-sdv report`` and ``make figures``.

Every artifact comes from one pass over the traces: per kernel, one
two-grid :func:`repro.core.sweeps.figure_sweeps` call generates,
classifies and lowers each implementation's trace once, times Figure 3's
and Figure 5's points together, and characterizes the longest VL for the
roofline table. ``render_report`` only renders; it re-runs nothing but
the machine probes.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

from repro.config import SdvConfig
from repro.core.analysis import Characterization, roofline_bound
from repro.core.figures import headline_numbers, plateau_bandwidth
from repro.core.measurements import SweepResult
from repro.core.report import (
    render_figure3,
    render_figure4,
    render_figure5,
    render_headline,
)
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    DEFAULT_SWEEP_ENGINE,
    DEFAULT_VLS,
    bandwidth_sweep,
    figure_sweeps,
    latency_sweep,
    run_implementation,
)
from repro.kernels import KERNELS
from repro.kernels.micro import characterize_machine
from repro.obs.record import get_recorder
from repro.soc import FpgaSdv
from repro.util.tables import TextTable
from repro.workloads import get_scale

#: the study surface. This module calls none of ``bandwidth_sweep``,
#: ``latency_sweep`` and ``run_implementation``: they are imported only
#: because the benchmark's span patch list (perfbench/spans.py) wraps
#: them by name on this module
__all__ = [
    "SuiteResult",
    "bandwidth_sweep",
    "figure_sweeps",
    "latency_sweep",
    "render_report",
    "run_implementation",
    "run_suite",
]


@dataclass
class SuiteResult:
    """Everything ``run_suite`` produced, for programmatic use."""

    scale: str
    latency: dict[str, SweepResult] = field(default_factory=dict)
    bandwidth: dict[str, SweepResult] = field(default_factory=dict)
    #: kernel -> roofline placement of its longest-VL trace at the
    #: default knobs
    roofline: dict[str, Characterization] = field(default_factory=dict)
    elapsed_s: float = 0.0


def run_suite(*, scale_name: str = "ci", seed: int = 7,
              vls: tuple[int, ...] = DEFAULT_VLS,
              kernels: list[str] | None = None,
              verify: bool = True,
              engine: str = DEFAULT_SWEEP_ENGINE,
              jobs: int = 1,
              trace_cache: str | None = None) -> SuiteResult:
    """Run the full experimental matrix; returns all sweep results.

    One :func:`figure_sweeps` call per kernel times both grids and
    characterizes the longest VL in ``vls`` for the roofline table.
    ``engine``/``jobs``/``trace_cache`` are forwarded to it: batch
    re-timing by default, ``jobs=N`` fans the implementations across
    worker processes, and a cache directory makes repeated runs skip
    functional execution entirely.
    """
    t0 = time.time()
    scale = get_scale(scale_name)
    names = kernels if kernels is not None else list(KERNELS)
    out = SuiteResult(scale=scale_name)
    for name in names:
        # figure boundary: no dangling span carried over from a previous
        # kernel's sweeps
        get_recorder().reset()
        spec = KERNELS[name]
        workload = spec.prepare(scale, seed)
        sweeps = figure_sweeps(
            spec, workload, latencies=DEFAULT_LATENCIES,
            bandwidths=DEFAULT_BANDWIDTHS, vls=vls, verify=verify,
            engine=engine, jobs=jobs, trace_cache=trace_cache)
        out.latency[name] = sweeps.latency
        out.bandwidth[name] = sweeps.bandwidth
        out.roofline[name] = sweeps.roofline
    out.elapsed_s = time.time() - t0
    return out


def _longest_vl(impls: list[str]) -> str:
    """Label of the longest-VL implementation (``vl256`` on the paper
    grid)."""
    return max((i for i in impls if i != "scalar"), key=lambda i: int(i[2:]))


def render_report(suite: SuiteResult, *, seed: int | None = None) -> str:
    """Render the suite as one self-contained Markdown document.

    Pure rendering: every table comes from ``suite``. ``seed`` is ignored
    — the roofline placement is the suite's own, measured on the traces
    its sweeps ran. It is still accepted because perfbench/bench_workloads.py
    passes it; it can go when that benchmark next changes.
    """
    buf = io.StringIO()
    w = buf.write
    cfg = SdvConfig().validate()

    w("# FPGA-SDV study report\n\n")
    w(f"Workload scale: `{suite.scale}`; knobs swept: extra latency "
      f"{list(DEFAULT_LATENCIES)}, bandwidth {list(DEFAULT_BANDWIDTHS)} "
      f"B/cycle, VLs {list(suite.latency[next(iter(suite.latency))].impls)}."
      f" Suite wall time: {suite.elapsed_s:.1f}s.\n\n")

    w("## Machine\n\n```\n")
    w(f"VPU   : {cfg.vpu.lanes} lanes, max VL {cfg.vpu.max_vl} doubles "
      f"({cfg.vpu.register_bits} bits)\n")
    w(f"L2    : {cfg.l2.banks} banks x {cfg.l2.bank_bytes // 1024} KiB\n")
    w(f"DRAM  : {cfg.dram_latency:.0f} cycles min latency, "
      f"{cfg.mem.bytes_per_cycle_limit:.0f} B/cycle peak\n")
    probe = characterize_machine(FpgaSdv())
    w(probe.render())
    w("\n```\n\n")

    spmv = suite.latency.get("spmv")
    if spmv is not None and 32 in spmv.points and "vl256" in spmv.impls:
        w("## Headline numbers (Section 4.1)\n\n```\n")
        w(render_headline(headline_numbers(spmv)))
        w("\n```\n\n")

    w("## Figure 3 — execution time vs extra latency\n\n")
    for name, result in suite.latency.items():
        w(f"```\n{render_figure3(result)}\n```\n\n")

    w("## Figure 4 — normalized slowdown\n\n")
    for name, result in suite.latency.items():
        w(f"```\n{render_figure4(result)}\n```\n\n")

    w("## Figure 5 — normalized time vs bandwidth limit\n\n")
    for name, result in suite.bandwidth.items():
        w(f"```\n{render_figure5(result)}\n```\n\n")

    w("## Plateau summary\n\n")
    t = TextTable(["kernel"] + list(next(iter(
        suite.bandwidth.values())).impls))
    for name, result in suite.bandwidth.items():
        t.add_row([name] + [plateau_bandwidth(result, impl)
                            for impl in result.impls])
    w(f"Bandwidth (B/cycle) beyond which each implementation improves "
      f"by less than 5%:\n\n```\n{t.render()}\n```\n\n")

    w("## Roofline placement (vector implementations, default knobs)\n\n")
    t = TextTable(["kernel", "AI (flop/B)", "flops/cycle", "roof",
                   "% of roof"])
    for name, c in suite.roofline.items():
        roof = roofline_bound(cfg, c.arithmetic_intensity, vector=True)
        pct = 100.0 * c.flops_per_cycle / roof if roof else 0.0
        t.add_row([name, f"{c.arithmetic_intensity:.3f}",
                   f"{c.flops_per_cycle:.3f}", f"{roof:.2f}",
                   f"{pct:.0f}%"])
    w(f"```\n{t.render()}\n```\n\n")

    w("## Conclusions checked\n\n")
    if spmv is not None:
        from repro.core.figures import figure4_table
        top = _longest_vl(spmv.impls)
        table = figure4_table(spmv)
        w(f"* SpMV slowdown at +1024: scalar {table['scalar'][-1]:.2f}x "
          f"vs {top} {table[top][-1]:.2f}x — long vectors tolerate "
          "latency.\n")
    if "spmv" in suite.bandwidth:
        top = _longest_vl(suite.bandwidth["spmv"].impls)
        p_s = plateau_bandwidth(suite.bandwidth["spmv"], "scalar")
        p_v = plateau_bandwidth(suite.bandwidth["spmv"], top)
        w(f"* SpMV bandwidth plateaus: scalar at {p_s} B/cycle vs {top} at "
          f"{p_v} B/cycle — one long-vector core uses the memory system.\n")
    return buf.getvalue()
