"""Observability overhead: instrumentation must not tax the sweep path.

The telemetry layer promises that when nobody asked for a trace, the sweep
fast path pays (almost) nothing: the process-wide recorder starts switched
off, a recording sweep adds a handful of records per *implementation*
(not per sweep point), and attribution is strictly opt-in. This bench pins
that promise: a full latency sweep with recording on must stay within
5% of the unrecorded wall time. The opt-in attribution cost does
real extra work (ladder walks), so it gets its own, looser bar: the
fused ``attribute_many`` batch walks must keep it within 30% of the
plain sweep.
"""

import dataclasses
import time

from conftest import LATENCIES, VLS, record_ledger, write_result

from repro.core.sweeps import latency_sweep, run_implementation
from repro.engine import simulate_events_fast
from repro.kernels import KERNELS
from repro.obs.record import fold, set_recording, spans


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

    set_recording(False)
    baseline = _sweep_seconds(wl)
    rec = set_recording(True)
    try:
        instrumented = _sweep_seconds(wl)
    finally:
        set_recording(False)
    attributed = _sweep_seconds(wl, attributions=True)

    overhead_pct = (instrumented / baseline - 1.0) * 100.0
    attribution_pct = (attributed / baseline - 1.0) * 100.0
    assert spans(rec.records), "instrumented run recorded no spans"

    write_result("obs_overhead", "\n".join([
        "observability overhead — fft latency sweep "
        f"({len(LATENCIES)} points x {len(VLS) + 1} impls, min of 3)",
        f"baseline (recording off) : {baseline * 1e3:8.1f} ms",
        f"instrumented (recording) : {instrumented * 1e3:8.1f} ms "
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


def _des_grid(cts) -> float:
    t0 = time.perf_counter()
    for ct in cts:
        simulate_events_fast(ct)
    return time.perf_counter() - t0


def test_bench_engine_counter_overhead(workloads):
    """Engine introspection cost on the DES: <=5% with recording on,
    unmeasurable (<=1%) with it off.

    One timed sample is the whole FFT latency grid (every implementation
    at every latency point) on the compiled DES: a single run takes about
    a millisecond, too short to time the recorder against timer noise.

    The counters-off bar cannot compare against "the code without the
    guard" (that code no longer exists), so it is measured as two
    disabled timings bracketing the enabled one *within every round* —
    interleaving cancels slow machine drift out of the off/off
    comparison. With the counters recorded once per run the two disabled
    mins must agree to within timer noise; a drift beyond 1% would mean
    the disabled path acquired real per-run work.
    """
    spec = KERNELS["fft"]
    cts = []
    for vl in (None, *VLS):
        sdv, trace = run_implementation(spec, workloads["fft"], vl,
                                        verify=False)
        ct = sdv.classify(trace)
        cts += [dataclasses.replace(
                    ct, config=sdv.config.with_extra_latency(lat))
                for lat in LATENCIES]
    _des_grid(cts)  # warm-up: plan cache, allocator

    reps = 7
    off_a = on = off_b = float("inf")
    runs_counted = 0
    try:
        for _ in range(reps):
            set_recording(False)
            off_a = min(off_a, _des_grid(cts))
            rec = set_recording(True)  # a fresh recorder each round
            on = min(on, _des_grid(cts))
            runs_counted += fold(rec.records)["counters"].get(
                "event.runs", 0)
            set_recording(False)
            off_b = min(off_b, _des_grid(cts))
        assert runs_counted >= reps * len(cts), (
            "counters-on runs recorded no engine stats")
    finally:
        set_recording(False)

    off_best = min(off_a, off_b)
    on_pct = (on / off_best - 1.0) * 100.0
    off_drift_pct = abs(off_b / off_a - 1.0) * 100.0

    write_result("obs_engine_counter_overhead", "\n".join([
        f"engine-counter overhead — fft latency grid, {len(cts)} DES runs "
        f"per sample (min of {reps}, off/on/off interleaved)",
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
