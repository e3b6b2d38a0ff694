"""The repository's benchmark: one command, every workload, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload study-ci --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
several times (median), then timed iterations back to back for
``--seconds``, then the output checks outside the timed section.
``--trace 1`` is the separate traced run: untraced and traced iterations
alternate, then the set-up and the checks run once traced. A span around
every layer's entry point gives the per-layer metrics and the stage
table.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (every check,
wall-time samples, the stage table, the spans, rendered artifacts) goes to
``.perfbench_out/`` in the repository root. Metric definitions, layers and
predictions are in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import sys

# the checkout stays as committed: no __pycache__ next to the sources
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import atexit  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# NumPy asks for transparent huge pages on large arrays by default; whether
# the kernel can grant them depends on how fragmented the host's memory is
# at that moment, which swung identical paper-scale batch walks by up to
# 40%. Without the advice the walks repeat within a few percent. Set
# before anything imports NumPy; pool workers inherit it.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

from bench_workloads import WORKLOADS, import_repro  # noqa: E402
from spans import (  # noqa: E402
    END,
    LAYERS,
    START,
    Tracer,
    layer_counts,
    layer_self_times,
    traced,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-ups per ``--trace 0`` run; ``setup_s`` reports their median
SETUP_REPS = 3
#: fewest timed iterations per ``--trace 0`` run, whatever ``--seconds``
MIN_ITERS = 3
#: fewest untraced/traced rounds per ``--trace 1`` run
MIN_ROUNDS = 2

SPEC = json.loads((HERE / "metrics.json").read_text())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def child_pids() -> list[int]:
    """The pids of this process's live children."""
    pids = []
    tasks = Path("/proc/self/task")
    for task in tasks.iterdir() if tasks.is_dir() else ():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def stop_helper_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The shared-memory plane's first segment starts CPython's resource
    tracker, a helper process that would otherwise outlive this one until
    it notices the closed pipe. Registered with :mod:`atexit` before the
    ``repro`` package is imported, so it runs after the package's own exit
    hooks (pool shutdown, segment unlink), none of which restart it.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def peak_rss_mb() -> float:
    """Summed peak resident set (VmHWM) of this process and its live
    children, the pool workers included, in MiB."""

    def hwm_kib(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    total = hwm_kib("self") + sum(hwm_kib(pid) for pid in child_pids())
    return total / 1024.0


def timed_loop(wl, state, seconds: float, min_iters: int,
               jobs: int | None = None):
    """Iterations back to back until the next one would overrun
    ``seconds``; returns (walls, process CPU times, digests, last
    result)."""
    walls, cpu, digests = [], [], []
    result = None
    start = time.perf_counter()
    while True:
        result = None
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = wl.iterate(state, jobs)
        walls.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        digests.append(wl.digest(result))
        elapsed = time.perf_counter() - start
        if (len(walls) >= min_iters
                and elapsed + statistics.median(walls) > seconds):
            return walls, cpu, digests, result


def wall_summary(walls: list[float]) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (None when there are too few samples)."""
    n = len(walls)
    ranked = sorted(walls)
    best = None
    for p in (50, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = (p, ranked[min(n - 1, int(n * p / 100))])
    return {"median_s": statistics.median(walls), "n": n,
            "samples_s": walls,
            "p_high": None if best is None else
            {"percentile": best[0], "value_s": best[1]}}


def determinism_checks(digests: list[str]) -> list:
    return [(f"iteration {i} cycles_digest equals iteration 0", d == digests[0])
            for i, d in enumerate(digests[1:], start=1)]


def measure(wl, seed: int, seconds: float, import_s: float) -> dict:
    """The ``--trace 0`` run: end-to-end metrics with tracing off."""
    setups = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - t0)
    walls, cpu, digests, result = timed_loop(wl, state, seconds, MIN_ITERS)
    checks, values = wl.checks(state, result)
    checks = determinism_checks(digests) + checks
    wall = wall_summary(walls)
    metrics = {
        "wall_s": wall["median_s"],
        "setup_s": import_s + statistics.median(setups),
        "sim_minstr_per_s": values["instret_points"] / wall["median_s"]
        / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "headline_err": values["headline_err"],
        "model_divergence": values["model_divergence"],
    }
    wall["cpu_samples_s"] = cpu
    return {"metrics": metrics, "checks": checks, "wall": wall,
            "setup": {"import_s": import_s, "samples_s": setups},
            "cycles_digest": digests[-1],
            "artifacts": values["artifacts"]}


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` run: per-layer metrics and the stage table.

    Untraced and traced iterations alternate for ``seconds`` (at least
    ``MIN_ROUNDS`` rounds), so both medians sample the same host load; the
    traced iterations run in one process, and on a pooled workload an
    untraced single-process iteration joins each round as the traced
    one's twin. The traced set-up and checks follow once.
    """
    state = wl.setup(seed)
    tracer = Tracer()
    pooled, serial, traced_walls, digests = [], [], [], []
    checks = []

    def timed(jobs, into):
        gc.collect()
        t0 = time.perf_counter()
        result = wl.iterate(state, jobs)
        into.append(time.perf_counter() - t0)
        return wl.digest(result)

    def traced_iteration():
        gc.collect()
        tracer.phase = f"iteration{len(traced_walls)}"
        with traced(tracer):
            with tracer.span("bench", "iteration") as it:
                result = wl.iterate(state, 1)
        traced_walls.append(it[END] - it[START])
        return result

    start = time.perf_counter()
    while True:
        n = len(traced_walls)
        if n % 2:  # alternate which side of the round runs first
            result = traced_iteration()
        digests.append(timed(None, pooled))
        if wl.jobs > 1:
            checks.append((f"round {n} single-process rows equal pooled "
                           "rows", timed(1, serial) == digests[0]))
        if not n % 2:
            result = traced_iteration()
        checks.append((f"round {n} traced rows equal untraced rows",
                       wl.digest(result) == digests[0]))
        elapsed = time.perf_counter() - start
        if (len(traced_walls) >= MIN_ROUNDS
                and elapsed * (1 + 1 / len(traced_walls)) > seconds):
            break
    checks = determinism_checks(digests) + checks
    state = None
    gc.collect()
    with traced(tracer):
        tracer.phase = "setup"
        with tracer.span("bench", "setup"):
            state = wl.setup(seed, traced=True)
        tracer.phase = "checks"
        with tracer.span("bench", "checks"):
            more, values = wl.checks(state, result)
    checks += more
    spans = tracer.spans

    # per layer: the median traced iteration, plus set-up and checks
    rounds = [layer_self_times(spans, {f"iteration{i}"})
              for i in range(len(traced_walls))]
    stage = {layer: statistics.median(r.get(layer, 0.0) for r in rounds)
             for layer in {k for r in rounds for k in r}}
    bench_self = stage.pop("bench", 0.0)
    rest = layer_self_times(spans, {"setup", "checks"})
    t = {layer: stage.get(layer, 0.0) + rest.get(layer, 0.0)
         for layer in {*stage, *rest}}
    c_all = layer_counts(spans, {"setup", "iteration0", "checks"})
    # work-count ratios: set-up and one iteration, where traces are built
    c = layer_counts(spans, {"setup", "iteration0"})
    impls = c["distinct_impls"]
    stage_sum = sum(stage.values())
    untraced = serial or pooled
    # each round's traced iteration against its own untraced twin, so a
    # drift in host speed between rounds cancels
    paired_sum = statistics.median(
        sum(v for k, v in r.items() if k != "bench") / u
        for r, u in zip(rounds, untraced))
    paired_wall = statistics.median(
        tw / u for tw, u in zip(traced_walls, untraced))

    def g(d, k):
        return d.get(k, 0)

    metrics = {
        "workloads.prepare_s": g(t, "workloads"),
        "trace.gen_s": g(t, "trace"),
        "trace.records": g(c_all, "seal_records"),
        "trace.records_per_s": _ratio(g(c_all, "seal_records"),
                                      g(t, "trace")),
        "trace.gen_calls_per_impl": _ratio(g(c, "gen_calls"), impls),
        "kernels.verify_s": g(t, "kernels"),
        "memory.classify_s": g(t, "memory"),
        "memory.classify_records_per_s": _ratio(
            g(c_all, "classify_records"), g(t, "memory")),
        "memory.classify_calls_per_trace": _ratio(g(c, "classify_calls"),
                                                  impls),
        "engine.lower_s": g(t, "engine.lower"),
        "engine.lower_calls_per_trace": _ratio(g(c, "lower_calls"), impls),
        "engine.walk_s": g(t, "engine.batch_sim"),
        "engine.walks": g(c, "walks"),
        "engine.walk_k_mean": _ratio(g(c, "walk_k"), g(c, "walks")),
        "engine.walk_ns_per_record_point": _ratio(
            g(t, "engine.batch_sim") * 1e9, g(c_all, "walk_record_points")),
        "engine.event_s": g(t, "engine.event_fast"),
        "engine.event_ns_per_record_point": _ratio(
            g(t, "engine.event_fast") * 1e9,
            g(c_all, "event_record_points")),
        "core.render_s": g(t, "core.report"),
        "core.orchestration_s": g(t, "core.sweeps"),
        "core.parallel_speedup": _ratio(stage_sum,
                                        statistics.median(pooled)),
        "bench.tracing_overhead_frac": paired_wall - 1.0,
    }
    bound = SPEC["stage_table_bound"]
    table = {
        "layers_s": stage,
        "bench_self_s": bench_self,
        "layer_sum_s": stage_sum,
        "traced_wall_s": statistics.median(traced_walls),
        "untraced_wall_s": statistics.median(untraced),
        "rounds": len(traced_walls),
        "coverage": paired_sum,
        "tracing_overhead_frac": paired_wall - 1.0,
        "bound": bound,
        "within_bound": abs(paired_sum - 1.0) <= bound,
    }
    wall = wall_summary(pooled)
    wall["traced_samples_s"] = traced_walls
    wall["single_process_samples_s"] = serial
    return {"metrics": metrics, "checks": checks, "wall": wall,
            "stage_table": table, "cycles_digest": digests[-1],
            "spans": spans, "artifacts": values["artifacts"]}


def print_stage_table(table: dict) -> None:
    wall = table["untraced_wall_s"]
    print(f"stage table: self time per layer, median of {table['rounds']} "
          f"traced iterations, against the median untraced single-process "
          f"wall of {wall:.4f} s (traced: {table['traced_wall_s']:.4f} s)")
    for layer in (*LAYERS, "bench"):
        s = (table["bench_self_s"] if layer == "bench"
             else table["layers_s"].get(layer, 0.0))
        print(f"  {layer:<20} {s:10.4f} s  {100 * _ratio(s, wall):6.1f}%")
    print(f"  {'sum of layers':<20} {table['layer_sum_s']:10.4f} s  "
          f"{100 * _ratio(table['layer_sum_s'], wall):6.1f}%")
    print(f"  layers / untraced wall, median over rounds: "
          f"{100 * table['coverage']:.1f}% (bound: within "
          f"{100 * table['bound']:.0f}%: "
          f"{'met' if table['within_bound'] else 'NOT met'}); "
          f"bench.tracing_overhead_frac {table['tracing_overhead_frac']:+.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    atexit.register(stop_helper_processes)

    t0 = time.perf_counter()
    import_repro()
    import_s = time.perf_counter() - t0

    from repro.core.parallel import shutdown_pool

    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            out = measure_traced(wl, args.seed, args.seconds)
            kind = "per_layer"
        else:
            out = measure(wl, args.seed, args.seconds, import_s)
            kind = "end_to_end"
    finally:
        shutdown_pool()  # waits for every worker to exit

    checks = out["checks"]
    failed = sum(1 for _, ok in checks if not ok)
    units = {name: d["unit"] for name, d in SPEC[kind].items()}
    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": SPEC["held_out_seed"], "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed / len(checks),
        "cycles_digest": out["cycles_digest"],
        "checks": [{"name": n, "ok": ok} for n, ok in checks],
        **{k: v for k, v in out.items() if k != "checks"},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"cycles_digest {out['cycles_digest']}  "
          f"checks {len(checks) - failed}/{len(checks)} passed  "
          f"failed_frac {record['failed_frac']}")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED: {name}")
    wall = out["wall"]
    p = wall["p_high"]
    print(f"wall samples n={wall['n']}; highest percentile with >=10 "
          f"samples beyond it: "
          + ("none (too few samples)" if p is None
             else f"p{p['percentile']} = {p['value_s']:.4f} s"))
    for name, value in out["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    if "stage_table" in out:
        print_stage_table(out["stage_table"])
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
