"""Equality grid: the three trace-generation paths are bit-identical.

The columnar buffer and the strip-mine templates exist purely for speed;
correctness is defined by the validated object path. For every kernel ×
VL this grid regenerates the trace under all three modes (templated —
the default, columnar without templating, and full object emission) and
checks the sealed column sets match bit for bit, both engines and both
their specifications report identical cycles, and the attribution buckets
agree exactly.
"""

import numpy as np
import pytest

from repro.core.sweeps import run_implementation
from repro.engine import ENGINES, simulate_events, simulate_fast
from repro.kernels import KERNELS
from repro.memory.classify import classify_trace
from repro.obs import attribute
from repro.trace import modes
from repro.workloads import get_scale

# opcode_id/label_id are compared decoded: the templated emitters intern
# their opcodes up front (closure setup), so table *order* may differ
# between paths while every record still carries the same string
_COLS = ("kind", "n_alu", "mlp", "mem_bytes", "vl", "active", "opclass",
         "pattern", "is_write", "masked", "dep", "scalar_dest",
         "addr_off", "addrs", "writes")


def _generate(spec, workload, vl, *, object_path, templated):
    with modes.object_emission(object_path), modes.templating(templated):
        return run_implementation(spec, workload, vl, verify=False)


@pytest.mark.parametrize("vl", [None, 8, 64],
                         ids=["scalar", "vl8", "vl64"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_generation_paths_bit_identical(name, vl):
    spec = KERNELS[name]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, templated = _generate(spec, workload, vl,
                               object_path=False, templated=True)
    _, columnar = _generate(spec, workload, vl,
                            object_path=False, templated=False)
    _, objects = _generate(spec, workload, vl,
                           object_path=True, templated=False)

    for label, other in (("columnar", columnar), ("object", objects)):
        ct, co = templated.cols, other.cols
        for col in _COLS:
            np.testing.assert_array_equal(
                getattr(ct, col), getattr(co, col),
                err_msg=f"{label}: column {col}")
        for col in ("opcode_id", "label_id"):
            np.testing.assert_array_equal(
                np.array(ct.strings)[getattr(ct, col)],
                np.array(co.strings)[getattr(co, col)],
                err_msg=f"{label}: column {col} (decoded)")

    # identical traces must also time and attribute identically — this
    # pins the full path from the emitters through every engine and
    # every specification
    ct_t = classify_trace(templated, sdv.config)
    ct_o = classify_trace(objects, sdv.config)
    timings = sorted(ENGINES.items()) + [("fast", simulate_fast),
                                         ("event-ref", simulate_events)]
    for engine, fn in timings:
        assert fn(ct_t).cycles == fn(ct_o).cycles, engine
    at, ao = attribute(ct_t), attribute(ct_o)
    assert at.total == ao.total
    assert at.buckets == ao.buckets
