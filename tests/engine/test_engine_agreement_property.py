"""Property-based cross-validation: random programs through both engines.

Hypothesis generates small random vector programs (strips of loads, stores,
gathers, arithmetic, reductions with random VLs); for every generated
program, the fast and event engines must stay within the agreement envelope
and produce identical DRAM accounting — a much broader net than the
hand-written agreement cases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SdvConfig
from repro.engine.batch_sim import batch_cycles
from repro.engine.event_sim import simulate_events
from repro.engine.fast_sim import simulate_fast
from repro.engine.lower import lower_trace
from repro.isa import ScalarContext, VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.trace.events import TraceBuffer

N_DATA = 1 << 12


@st.composite
def programs(draw):
    """A list of (op, params) steps for the interpreter below."""
    n_steps = draw(st.integers(2, 14))
    steps = []
    for _ in range(n_steps):
        op = draw(st.sampled_from(
            ["load", "store", "gather", "arith_chain", "reduce", "scalar",
             "barrier"]))
        params = {
            "off": draw(st.integers(0, N_DATA - 512)),
            "avl": draw(st.sampled_from([5, 8, 17, 64, 200, 256])),
            "chain": draw(st.integers(1, 4)),
        }
        steps.append((op, params))
    return steps


def build_trace(steps, seed):
    rng = np.random.default_rng(seed)
    mem = MemoryImage(1 << 22)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=256)
    scl = ScalarContext(mem, trace)
    data = mem.alloc("data", rng.random(N_DATA))
    out = mem.alloc("out", N_DATA, np.float64)
    idx = mem.alloc("idx", rng.integers(0, N_DATA, N_DATA))

    last = None
    for op, p in steps:
        vl = vec.vsetvl(p["avl"])
        if op == "load":
            last = vec.vle(data, p["off"])
        elif op == "store":
            v = last if last is not None and last.vl == vl else vec.vfmv(1.0)
            vec.vse(v, out, p["off"])
        elif op == "gather":
            iv = vec.vle(idx, p["off"])
            last = vec.vlxe(data, iv)
        elif op == "arith_chain":
            v = last if last is not None and last.vl == vl else vec.vfmv(2.0)
            for _ in range(p["chain"]):
                v = vec.vfadd(v, 1.0)
            last = v
        elif op == "reduce":
            v = last if last is not None and last.vl == vl else vec.vfmv(3.0)
            vec.vfredsum(v)
        elif op == "scalar":
            addr_idx = rng.integers(0, N_DATA, 64)
            scl.emit_block(data.addr(addr_idx), False, 128)
        elif op == "barrier":
            scl.barrier()
        if last is not None and last.vl != vec.vl:
            last = None
    scl.flush()
    return trace.seal()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 31),
       st.sampled_from([(0, 64), (512, 64), (0, 4), (1024, 1)]))
def test_property_engines_agree_on_random_programs(steps, seed, knobs):
    extra_latency, bpc = knobs
    trace = build_trace(steps, seed)
    config = (SdvConfig().with_extra_latency(extra_latency)
              .with_bandwidth(bpc))
    ct = classify_trace(trace, config)
    fast = simulate_fast(ct)
    event = simulate_events(ct)
    assert fast.dram_reads == event.dram_reads
    assert fast.dram_writes == event.dram_writes
    assert fast.cycles == pytest.approx(event.cycles, rel=0.6), (
        fast.cycles, event.cycles)
    assert fast.cycles > 0 and event.cycles > 0


# every VPU build the walks branch on
VPU_BUILDS = {
    "default": {},
    "no-chaining": {"chaining": False},
    "in-order-mem": {"ooo_mem_issue": False},
    "queue-1": {"mem_queue_depth": 1},
}


# the batch_walk fixture patches the walk loader once for all examples
@pytest.mark.parametrize("vpu", VPU_BUILDS.values(), ids=VPU_BUILDS.keys())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(steps=programs(), seed=st.integers(0, 2 ** 31))
def test_property_batch_matches_fast_exactly(steps, seed, vpu, batch_walk):
    """One lowering + one vectorized walk == N fast walks, to the bit."""
    trace = build_trace(steps, seed)
    default = SdvConfig()
    base = dataclasses.replace(
        default, vpu=dataclasses.replace(default.vpu, **vpu)).validate()
    configs = ([base.with_extra_latency(l) for l in (0, 32, 256, 1024)]
               + [base.with_bandwidth(b) for b in (1, 4, 64)])
    ct = classify_trace(trace, base)
    batch = batch_cycles(lower_trace(ct), configs)
    for k, cfg in enumerate(configs):
        fast = simulate_fast(dataclasses.replace(ct, config=cfg))
        assert batch[k] == fast.cycles, (k, batch[k], fast.cycles)
