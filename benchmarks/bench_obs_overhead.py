"""Observability overhead: instrumentation must not tax the sweep path.

The telemetry layer promises that when nobody asked for a trace, the sweep
fast path pays (almost) nothing: the process-wide tracer starts disabled,
metrics are a handful of counter increments per *implementation* (not per
sweep point), and attribution is strictly opt-in. This bench pins that
promise: a full latency sweep with tracing + metrics live must stay within
5% of the uninstrumented wall time. The opt-in attribution cost does
real extra work (ladder walks), so it gets its own, looser bar: the
fused ``attribute_many`` batch walks must keep it within 30% of the
plain sweep.
"""

import time

from conftest import LATENCIES, VLS, record_ledger, write_result

from repro.core.sweeps import latency_sweep, run_implementation
from repro.engine import simulate_events_fast
from repro.kernels import KERNELS
from repro.obs.engine_stats import get_engine_stats, set_introspection
from repro.obs.spans import set_tracing


def _sweep_seconds(workload, *, repeats=3, attributions=False):
    spec = KERNELS["fft"]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        latency_sweep(spec, workload, latencies=LATENCIES, vls=VLS,
                      verify=False, attributions=attributions)
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_instrumentation_overhead(workloads):
    wl = workloads["fft"]
    _sweep_seconds(wl, repeats=1)  # warm-up (imports, allocator)

    set_tracing(False)
    baseline = _sweep_seconds(wl)
    tracer = set_tracing(True)
    try:
        instrumented = _sweep_seconds(wl)
    finally:
        set_tracing(False)
    attributed = _sweep_seconds(wl, attributions=True)

    overhead_pct = (instrumented / baseline - 1.0) * 100.0
    attribution_pct = (attributed / baseline - 1.0) * 100.0
    assert tracer.spans, "instrumented run recorded no spans"

    write_result("obs_overhead", "\n".join([
        "observability overhead — fft latency sweep "
        f"({len(LATENCIES)} points x {len(VLS) + 1} impls, min of 3)",
        f"baseline (tracing off)   : {baseline * 1e3:8.1f} ms",
        f"instrumented (spans on)  : {instrumented * 1e3:8.1f} ms "
        f"({overhead_pct:+.1f}%)",
        f"with attribution buckets : {attributed * 1e3:8.1f} ms "
        f"({attribution_pct:+.1f}%, opt-in extra work)",
    ]))
    record_ledger("bench_obs_overhead", "spans_overhead_pct",
                  overhead_pct, unit="pct", attrs={"direction": "lower"})
    record_ledger("bench_obs_overhead", "attribution_overhead_pct",
                  attribution_pct, unit="pct",
                  attrs={"direction": "lower"})

    # the acceptance bars: instrumentation costs at most 5% of sweep wall
    # time; opt-in per-point attribution at most 30% on top of the sweep
    assert overhead_pct <= 5.0, (
        f"instrumentation overhead {overhead_pct:.1f}% exceeds 5%"
    )
    assert attribution_pct <= 30.0, (
        f"attribution overhead {attribution_pct:.1f}% exceeds 30%"
    )


def _des_once(ct) -> float:
    t0 = time.perf_counter()
    simulate_events_fast(ct)
    return time.perf_counter() - t0


def test_bench_engine_counter_overhead(workloads):
    """Engine introspection cost on the DES hot loop: <=5% with counters
    on, unmeasurable (<=1%) with them off.

    The counters-off bar cannot compare against "the code without the
    guard" (that code no longer exists), so it is measured as two
    disabled timings bracketing the enabled one *within every round* —
    interleaving cancels slow machine drift out of the off/off
    comparison. With the guard checked once per active timestamp the two
    disabled mins must agree to within timer noise; a drift beyond 1%
    would mean the disabled path acquired real per-token work.
    """
    spec = KERNELS["fft"]
    sdv, trace = run_implementation(spec, workloads["fft"], 64,
                                    verify=False)
    ct = sdv.classify(trace)
    simulate_events_fast(ct)  # warm-up: plan cache, allocator

    reps = 7
    off_a = on = off_b = float("inf")
    runs_counted = 0
    try:
        for _ in range(reps):
            set_introspection(False)
            off_a = min(off_a, _des_once(ct))
            set_introspection(True)  # clears the collector each round
            on = min(on, _des_once(ct))
            runs_counted += get_engine_stats().counters.get("event.runs", 0)
            set_introspection(False)
            off_b = min(off_b, _des_once(ct))
        assert runs_counted >= reps, (
            "counters-on runs recorded no engine stats")
    finally:
        set_introspection(False)

    off_best = min(off_a, off_b)
    on_pct = (on / off_best - 1.0) * 100.0
    off_drift_pct = abs(off_b / off_a - 1.0) * 100.0

    write_result("obs_engine_counter_overhead", "\n".join([
        "engine-counter overhead — fft vl64 DES run "
        f"(min of {reps}, off/on/off interleaved)",
        f"counters off (a)        : {off_a * 1e3:8.1f} ms",
        f"counters on             : {on * 1e3:8.1f} ms ({on_pct:+.1f}%)",
        f"counters off (b)        : {off_b * 1e3:8.1f} ms "
        f"(drift {off_drift_pct:.2f}%)",
    ]))
    record_ledger("bench_obs_overhead", "counters_on_overhead_pct",
                  on_pct, unit="pct", attrs={"direction": "lower"})
    record_ledger("bench_obs_overhead", "counters_off_drift_pct",
                  off_drift_pct, unit="pct", attrs={"direction": "lower"})

    assert on_pct <= 5.0, (
        f"engine-counter overhead {on_pct:.1f}% exceeds 5% with "
        f"introspection on")
    assert off_drift_pct <= 1.0, (
        f"disabled-introspection timings drift {off_drift_pct:.2f}% "
        f"(>1%): the counters-off path is paying measurable work")
