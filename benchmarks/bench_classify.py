"""Classification bench: the compiled cache walk against its Python spec.

One ledger series, ``classify_compiled_speedup``: the time
:func:`repro.memory.classify.classify_trace` takes on its specifications
(forced by making the kernel loader report no library: the NumPy line
requests and the Python dict walk) over the time it takes on the
compiled kernels (``classify.c``: the line requests and the cache walk),
on the record-heaviest kernel trace, with identical output bit-for-bit.
Both times include the NumPy work the two sides share (the trace checks
and the per-record rule and mode bytes), so the ratio is what a sweep
gains, not what the loops alone gain.

Run at paper scale (``REPRO_BENCH_SCALE=paper``) for the quoted
numbers; the default ci scale keeps CI under a minute.
"""

import os
import time
from unittest import mock

import numpy as np
import pytest
from conftest import record_ledger, write_result

from repro import native
from repro.config import SdvConfig
from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS
from repro.memory.classify import classify_trace

KERNEL = "spmv"
#: the shortest-vector build has the most records by far, making it both
#: the dominant classification cost of a sweep and the steadiest timing
VL = 8

#: fresh-clone floors (ledger median+MAD is the bar once history exists).
#: The shared NumPy work caps the ratio, and its share falls as traces
#: grow.
_FLOOR = {"paper": 3.0}
_FLOOR_DEFAULT = 2.0


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _assert_identical(a, b):
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.req_off, b.req_off)
    assert np.array_equal(a.lines, b.lines)
    assert np.array_equal(a.levels, b.levels)
    assert a.totals == b.totals


def test_bench_classify_compiled_speedup(workloads):
    if native.library() is None:
        pytest.skip("no C compiler could build the compiled kernels")
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "ci")
    cfg = SdvConfig().validate()
    spec = KERNELS[KERNEL]
    _sdv, trace = run_implementation(spec, workloads[KERNEL], VL,
                                     verify=False)

    def python_walk():
        with mock.patch.object(native, "library", lambda: None):
            return classify_trace(trace, cfg)

    _assert_identical(classify_trace(trace, cfg), python_walk())
    t_python = _median_time(python_walk)
    t_compiled = _median_time(lambda: classify_trace(trace, cfg))
    ratio = t_python / t_compiled

    lines = [
        f"classification walks — {KERNEL} vl{VL} ({scale_name} scale, "
        f"{len(trace)} records)",
        f"  NumPy line requests + dict walk (specs): {t_python * 1e3:8.1f} ms",
        f"  compiled line requests + cache walk    : "
        f"{t_compiled * 1e3:8.1f} ms",
        f"  speedup                                : {ratio:.2f}x",
    ]
    write_result("classify_compiled_speedup", "\n".join(lines))

    verdict = record_ledger(
        "bench_classify", "classify_compiled_speedup", ratio,
        attrs={"kernel": KERNEL, "vl": VL, "records": len(trace)})
    floor = _FLOOR.get(scale_name, _FLOOR_DEFAULT)
    if verdict.status == "insufficient":
        assert ratio >= floor, (
            f"compiled walk only {ratio:.2f}x over the Python walk "
            f"(floor {floor}x; ledger: {verdict.reason})")
    else:
        assert not verdict.is_regression, (
            f"classification speedup regressed: {verdict.reason}")
