"""Trace-generation throughput: templated emission vs the loops.

Batch re-timing made generation the sweep's wall-clock bottleneck, so the
strip-mined kernels grew templated emitters (record one iteration,
replicate it vectorized) beside the loops, the per-iteration code written
against the ISA contexts that runs with templating off. The two are
bit-identical — ``tests/kernels/test_trace_equality.py`` pins that — so
the only question left is speed.

This bench times one vector-trace generation per kernel on each path.
At ``paper`` scale (the default here — fixed per-run costs amortize and
it is the scale whose wall clock motivated templating) it holds the
headline claim: the default (templated) path generates at least 10x the
loops' throughput on at least two kernels. At every scale it also guards
against regressions: each kernel's ``{kernel}_loop_speedup`` ledger series
is judged by the ledger detector, and until a series has enough history,
a speedup below 0.8x of the committed same-scale fallback ratio fails.
Both paths run on the same interpreter, so their *ratio* is stable where
absolute times are not.
"""

import os
import time

from conftest import record_ledger, write_result

from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS
from repro.trace import modes
from repro.workloads import get_scale

_VL = 64
_SEED = 7

#: fallback min-of-3 speedup ratios (loops / templated) per scale, each
#: at most the lowest ratio measured over ten ci runs and two paper runs
#: on a 2-vCPU host; while a series has too little history, a run below
#: 0.8x of these fails
_BASELINE_SPEEDUP = {
    "ci": {"bfs": 8.5, "fft": 1.5, "pagerank": 6.0, "spmv": 4.5},
    "paper": {"bfs": 13.0, "fft": 3.5, "pagerank": 13.0, "spmv": 11.5},
}


def _gen_seconds(spec, workload, *, templated, repeats=3):
    best = float("inf")
    n_records = 0
    for _ in range(repeats):
        with modes.templating(templated):
            t0 = time.perf_counter()
            _, trace = run_implementation(spec, workload, _VL,
                                          verify=False)
            best = min(best, time.perf_counter() - t0)
        n_records = len(trace)
    return best, n_records


def test_bench_trace_generation():
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "paper")
    scale = get_scale(scale_name)
    workloads = {name: spec.prepare(scale, _SEED)
                 for name, spec in KERNELS.items()}

    # warm-up: imports, allocator, interpreter caches
    _gen_seconds(KERNELS["fft"], workloads["fft"], templated=True,
                 repeats=1)

    lines = [
        f"trace-generation throughput — vl={_VL} vector trace per kernel, "
        f"scale={scale_name} (min of 3)",
        f"{'kernel':<10} {'records':>9} {'loops':>10} {'templated':>10} "
        f"{'speedup':>8}",
    ]
    speedups = {}
    for name in sorted(KERNELS):
        spec, wl = KERNELS[name], workloads[name]
        t_loop, n = _gen_seconds(spec, wl, templated=False)
        t_tpl, _ = _gen_seconds(spec, wl, templated=True)
        speedups[name] = t_loop / t_tpl
        lines.append(
            f"{name:<10} {n:>9} {t_loop * 1e3:>8.1f}ms "
            f"{t_tpl * 1e3:>8.1f}ms {speedups[name]:>7.1f}x"
        )
    lines.append("speedup = loops time / templated (default) path time, "
                 "same bit-identical trace")
    write_result("trace_gen_throughput", "\n".join(lines))

    # primary bar per kernel: the ledger detector over committed history;
    # the hand-set 0.8x-of-constant table only guards series that do not
    # have enough samples yet (fresh clone, new kernel)
    baseline = _BASELINE_SPEEDUP.get(scale_name, {})
    regressed = {}
    for name, s in speedups.items():
        verdict = record_ledger("bench_trace_gen", f"{name}_loop_speedup",
                                s, scale=scale_name)
        if verdict.is_regression:
            regressed[name] = f"{s:.1f}x ({verdict.reason})"
        elif (verdict.status == "insufficient" and name in baseline
              and s < 0.8 * baseline[name]):
            regressed[name] = (f"{s:.1f}x (<0.8x of the fallback "
                               f"baseline {baseline[name]}x)")
    assert not regressed, (
        f"trace-generation speedup regressed at scale={scale_name}: "
        f"{regressed}"
    )

    if scale_name == "paper":
        fast_enough = [n for n, s in speedups.items() if s >= 10.0]
        assert len(fast_enough) >= 2, (
            f"templated generation is >=10x on only {fast_enough} "
            f"(speedups: { {k: round(v, 1) for k, v in speedups.items()} })"
        )
