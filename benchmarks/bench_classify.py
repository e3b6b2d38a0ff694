"""Classification-engine bench: the vectorized stack-distance kernel.

One ledger series, ``classify_throughput``: the engine-alone ratio of
the sequential reference walker (:func:`repro.memory.classify.
classify_trace`) against the vectorized stack-distance engine
(:func:`repro.memory.classify_fast.classify_trace_fast`) on the
record-heaviest kernel trace, identical output bit-for-bit. The per-set
LRU state update is irreducibly sequential per set, so this ratio
plateaus around 2-2.5x — real, but modest, and the series records that
number honestly (``docs/memory-model.md`` quotes it).

Run at paper scale (``REPRO_BENCH_SCALE=paper``) for the quoted
numbers; the default ci scale keeps CI under a minute.
"""

import os
import time

import numpy as np
from conftest import record_ledger, write_result

from repro.config import SdvConfig
from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS
from repro.memory.classify import classify_trace
from repro.memory.classify_fast import classify_trace_fast

KERNEL = "spmv"
#: the shortest-vector build has the most records by far, making it both
#: the dominant classification cost of a sweep and the steadiest timing
VL = 8

#: fresh-clone floors (ledger median+MAD is the bar once history exists).
#: The engine ratio grows with trace size — fixed per-run setup (round
#: scheduling, state load) amortizes — so the paper-scale floor is
#: higher than the small ci-scale one.
_ENGINE_FLOOR = {"paper": 1.5}  # default 1.1 below
_ENGINE_FLOOR_DEFAULT = 1.1


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _assert_identical(a, b):
    assert np.array_equal(a.rows, b.rows)
    for x, y in zip(a.levels, b.levels):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)
    assert a.totals == b.totals


def test_bench_classify_throughput(workloads):
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "ci")
    cfg = SdvConfig().validate()
    spec = KERNELS[KERNEL]
    _sdv, trace = run_implementation(spec, workloads[KERNEL], VL,
                                     verify=False)

    walk_ct = classify_trace(trace, cfg)
    stack_ct = classify_trace_fast(trace, cfg)
    _assert_identical(walk_ct, stack_ct)

    t_walk = _median_time(lambda: classify_trace(trace, cfg))
    t_stack = _median_time(lambda: classify_trace_fast(trace, cfg))
    engine_ratio = t_walk / t_stack

    lines = [
        f"classification engines — {KERNEL} vl{VL} ({scale_name} scale, "
        f"{len(trace)} records)",
        f"  walker (reference)   : {t_walk * 1e3:8.1f} ms",
        f"  stack-distance engine: {t_stack * 1e3:8.1f} ms",
        f"  engine-alone speedup : {engine_ratio:.2f}x",
    ]
    write_result("classify_throughput", "\n".join(lines))

    v_engine = record_ledger(
        "bench_classify", "classify_throughput", engine_ratio,
        attrs={"kernel": KERNEL, "vl": VL, "records": len(trace)})
    floor = _ENGINE_FLOOR.get(scale_name, _ENGINE_FLOOR_DEFAULT)
    if v_engine.status == "insufficient":
        assert engine_ratio >= floor, (
            f"stack engine only {engine_ratio:.2f}x over the walker "
            f"(floor {floor}x; ledger: {v_engine.reason})")
    else:
        assert not v_engine.is_regression, (
            f"classify throughput regressed: {v_engine.reason}")
