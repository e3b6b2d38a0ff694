"""Batch engine: exact agreement with its specification, plus API contract.

The batch engine's promise is *bit-identical* cycles to ``simulate_fast``,
the specification it is pinned to, at every sweep point — not "close",
identical floats — so these tests use exact equality across the full
Figure-3 (latency) and Figure-5 (bandwidth) grids on all four kernels.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import native
from repro.config import SdvConfig
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    run_implementation,
)
from repro.engine import ENGINES, batch_sim
from repro.engine.batch_sim import (
    batch_cycles,
    simulate_batch,
    simulate_batch_one,
)
from repro.engine.event_sim import simulate_events
from repro.engine.fast_sim import simulate_fast
from repro.engine.lower import knob_free_config, lower_trace
from repro.errors import EngineError
from repro.kernels import KERNELS
from repro.memory.classify import (
    classify_backend,
    classify_trace,
    line_requests,
)
from repro.soc import FpgaSdv
from repro.trace.serialize import load_trace, save_trace
from repro.workloads import get_scale

# scalar is always included; the trace-heavy kernels get a VL subset to
# bound CI runtime (agreement is VL-independent — the lowered arrays just
# get longer)
GRID_VLS = {
    "spmv": (8, 64, 256),
    "fft": (8, 64, 256),
    "bfs": (8, 256),
    "pagerank": (8, 256),
}

REPORT_FIELDS = (
    "cycles", "scalar_issue_cycles", "scalar_stall_cycles",
    "vpu_arith_cycles", "vpu_mem_cycles", "bandwidth_bound_cycles",
    "dram_reads", "dram_writes",
)


def grid_configs(base: SdvConfig) -> list[SdvConfig]:
    """Full Figure-3 latency axis + full Figure-5 bandwidth axis."""
    return ([base.with_extra_latency(l) for l in DEFAULT_LATENCIES]
            + [base.with_bandwidth(b) for b in DEFAULT_BANDWIDTHS])


# every kernel on the walk this host runs, and spmv on the NumPy walk too
@pytest.mark.parametrize(
    "kernel, batch_walk",
    [(k, "compiled") for k in sorted(KERNELS)] + [("spmv", "numpy")],
    ids=sorted(KERNELS) + ["spmv-numpy"], indirect=["batch_walk"])
def test_batch_matches_fast_exactly_on_full_grids(kernel, batch_walk):
    spec = KERNELS[kernel]
    workload = spec.prepare(get_scale("ci"), 7)
    for vl in (None,) + GRID_VLS[kernel]:
        sdv, trace = run_implementation(spec, workload, vl, verify=False)
        configs = grid_configs(sdv.config)
        batch = sdv.time_many(trace, configs, engine="batch", reports=False)
        ct = sdv.classify(trace)
        fast = [simulate_fast(dataclasses.replace(ct, config=cfg)).cycles
                for cfg in configs]
        assert np.array_equal(batch, fast), (kernel, vl)


def test_batch_reports_match_fast_reports_field_for_field():
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 64, verify=False)
    configs = grid_configs(sdv.config)
    reports = simulate_batch(sdv.lower(trace), configs)
    for cfg, b in zip(configs, reports):
        f = simulate_fast(dataclasses.replace(sdv.classify(trace),
                                              config=cfg))
        for fld in REPORT_FIELDS:
            assert getattr(b, fld) == getattr(f, fld), fld
        assert b.engine == "batch"


def test_batch_cycles_equals_report_cycles():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    configs = grid_configs(sdv.config)
    lowered = sdv.lower(trace)
    compact = batch_cycles(lowered, configs)
    full = [r.cycles for r in simulate_batch(lowered, configs)]
    assert compact.tolist() == full


def test_serialized_trace_retimes_identically(tmp_path):
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 64, verify=False)
    path = tmp_path / "spmv-vl64.npz"
    save_trace(trace, path)
    reloaded = load_trace(path)
    configs = grid_configs(sdv.config)
    original = sdv.time_many(trace, configs, engine="batch", reports=False)
    roundtrip = sdv.time_many(reloaded, configs, engine="batch",
                              reports=False)
    assert np.array_equal(original, roundtrip)


def test_engine_registry_has_batch_and_sdv_accepts_it():
    assert ENGINES["batch"] is simulate_batch_one
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv = FpgaSdv().configure(max_vl=8)
    _, rb = sdv.run(spec.vector, workload)  # batch is the default
    session = sdv.session()
    spec.vector(session, workload)
    rf = simulate_fast(sdv.classify(session.seal()))
    assert rb.cycles == rf.cycles
    assert rb.engine == "batch"
    # hardware counters absorbed the run like any other engine
    assert sdv.counters.snapshot() == rb.cycles


def test_simulate_batch_one_matches_fast():
    spec = KERNELS["pagerank"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    ct = sdv.classify(trace)
    assert simulate_batch_one(ct).cycles == simulate_fast(ct).cycles


def test_empty_config_list_rejected():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    with pytest.raises(EngineError):
        simulate_batch(sdv.lower(trace), [])


def test_non_knob_config_change_rejected():
    """A batch may only vary the latency/bandwidth knobs."""
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    lowered = sdv.lower(trace)
    other = sdv.config.with_max_vl(16)
    assert knob_free_config(other) != lowered.base_key
    with pytest.raises(EngineError):
        simulate_batch(lowered, [other])


def test_lowered_trace_is_cached_on_the_trace_object():
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    first = sdv.lower(trace)
    sdv.configure(extra_latency=512)  # knob changes must not re-lower
    assert sdv.lower(trace) is first


def test_lower_trace_validates_dependency_targets():
    spec = KERNELS["spmv"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    ct = sdv.classify(trace)
    lowered = lower_trace(ct)
    assert lowered.n == len(ct.rows)
    assert lowered.total_dram_reads == int(
        ct.rows["dram_reads"].sum() + ct.rows["pf_dram_reads"].sum())


def test_missing_compiler_falls_back_to_numpy_walk_once(monkeypatch):
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    if native.library() is None:
        pytest.skip("no C compiler could build the compiled kernels")
    lowered = sdv.lower(trace)
    configs = grid_configs(sdv.config)
    compiled = batch_cycles(lowered, configs)
    compiled_ct = classify_trace(trace, sdv.config)
    compiled_lines = line_requests(trace.cols, True)
    reference = simulate_events(compiled_ct)

    # a fresh process whose compiler is missing
    builds = []

    def missing_compiler():
        builds.append(1)
        return ["/nonexistent/cc"]

    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_compiler", missing_compiler)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = batch_cycles(lowered, configs)
        ct = classify_trace(trace, sdv.config)
        second = batch_cycles(lowered, configs)
        event = ENGINES["event"](ct)
        lines = line_requests(trace.cols, True)
    # one warning, naming every fallback, from one place; no kernel
    # retried the build
    assert [w.category for w in caught] == [RuntimeWarning]
    message = str(caught[0].message)
    for fallback in ("NumPy batch walk", "NumPy line requests",
                     "Python classification walk", "coroutine DES"):
        assert fallback in message
    assert caught[0].filename == native.__file__
    assert len(builds) == 1
    # the event engine ran its specification, labelled as itself
    assert event == dataclasses.replace(reference, engine="event")
    assert batch_sim.walk_backend() == "numpy"
    assert classify_backend() == "python"
    assert first.tolist() == compiled.tolist()
    assert second.tolist() == compiled.tolist()
    assert np.array_equal(ct.rows, compiled_ct.rows)
    assert ct.totals == compiled_ct.totals
    assert np.array_equal(ct.req_off, compiled_ct.req_off)
    assert np.array_equal(ct.levels, compiled_ct.levels)
    for got, want in zip(lines, compiled_lines):
        assert np.array_equal(got, want)


def test_compiled_walk_rejects_out_of_bounds_slots():
    # the C kernel does not bounds-check; the wrapper must
    if native.library() is None:
        pytest.skip("no C compiler could build the compiled kernels")
    spec = KERNELS["fft"]
    workload = spec.prepare(get_scale("smoke"), 7)
    sdv, trace = run_implementation(spec, workload, 8, verify=False)
    lowered = sdv.lower(trace)
    broken = dataclasses.replace(lowered, slot=lowered.slot + lowered.n)
    with pytest.raises(EngineError):
        batch_cycles(broken, [sdv.config])
