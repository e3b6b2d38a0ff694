"""Benchmark fixtures.

Scale selection: ``REPRO_BENCH_SCALE=paper`` runs the exact Section 3.1
sizes (cage10-scale SpMV, 2^15-node graph, 2048-point FFT) — a few minutes
of wall clock; the default ``ci`` scale keeps the full benchmark suite
under a minute while preserving every qualitative shape.

Each figure benchmark regenerates its table/series, writes the rendered
text to ``benchmarks/results/`` and asserts the paper's qualitative claims;
the ``benchmark()`` timing target is the retiming step (one batch-engine
walk over a classified trace at one knob setting).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.sweeps import figure_sweeps
from repro.kernels import KERNELS
from repro.workloads import get_scale

RESULTS_DIR = Path(__file__).parent / "results"

VLS = (8, 16, 32, 64, 128, 256)
LATENCIES = (0, 32, 64, 128, 256, 512, 1024)
BANDWIDTHS = (1, 2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "ci"))


@pytest.fixture(scope="session")
def workloads(scale):
    """One prepared workload per kernel (expensive; share across benches)."""
    return {name: spec.prepare(scale, seed=7)
            for name, spec in KERNELS.items()}


@pytest.fixture(scope="session")
def study_sweeps(workloads):
    """Figure 3/4 and Figure 5 data for every kernel: one two-grid sweep
    per kernel, each trace generated and timed once for both figures."""
    return {
        name: figure_sweeps(KERNELS[name], workloads[name],
                            latencies=LATENCIES, bandwidths=BANDWIDTHS,
                            vls=VLS)
        for name in KERNELS
    }


@pytest.fixture(scope="session")
def latency_sweeps(study_sweeps):
    """Figure 3/4 data: full latency sweep for every kernel."""
    return {name: s.latency for name, s in study_sweeps.items()}


@pytest.fixture(scope="session")
def bandwidth_sweeps(study_sweeps):
    """Figure 5 data: full bandwidth sweep for every kernel."""
    return {name: s.bandwidth for name, s in study_sweeps.items()}


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


LEDGER_PATH = RESULTS_DIR / "ledger.jsonl"


def record_ledger(bench: str, metric: str, value: float, *,
                  unit: str = "ratio", scale: str | None = None,
                  attrs: dict | None = None):
    """Judge ``value`` against the committed ledger history, then append
    it as a new record.

    Returns the detector :class:`repro.obs.ledger.Verdict` — the verdict
    is computed against the history *before* this run's record lands, so
    a bench cannot pass by comparing against itself. Callers that get an
    ``insufficient`` verdict (fresh clone, new series) fall back to their
    legacy fixed-constant baseline so there is always a perf bar.
    """
    from repro.obs.ledger import (
        append_record,
        build_record,
        check_series,
        load_ledger,
    )

    scale = scale or os.environ.get("REPRO_BENCH_SCALE", "ci")
    history = load_ledger(LEDGER_PATH)
    verdict = check_series(history, bench, metric, scale, value)
    append_record(LEDGER_PATH, build_record(
        bench=bench, metric=metric, value=value, unit=unit, scale=scale,
        attrs=attrs))
    print(f"[ledger] {bench}:{metric} [{scale}] = {value:.3g} "
          f"-> {verdict.status}: {verdict.reason}")
    return verdict
