"""Property-based attribution invariants over random vector programs.

Same spirit as the engine-agreement property suite: hypothesis generates
small random programs; every one of them must attribute with bit-exact
closure on the batch engine and on the ladder re-timed with its
specification, ``simulate_fast``, with fast/batch bucket equality, under
random knob settings.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SdvConfig
from repro.engine.fast_sim import simulate_fast
from repro.engine.lower import lower_trace
from repro.isa import ScalarContext, VectorContext
from repro.memory.address_space import MemoryImage
from repro.memory.classify import classify_trace
from repro.obs.attribution import (
    BUCKET_ORDER,
    _ladder_attribution,
    attribute,
    attribute_many,
)
from repro.trace.events import TraceBuffer

N_DATA = 1 << 11


@st.composite
def programs(draw):
    n_steps = draw(st.integers(2, 10))
    steps = []
    for _ in range(n_steps):
        op = draw(st.sampled_from(
            ["load", "store", "gather", "arith", "scalar", "barrier"]))
        steps.append((op, draw(st.integers(0, N_DATA - 512)),
                      draw(st.sampled_from([5, 8, 64, 256]))))
    return steps


def build_trace(steps, seed):
    rng = np.random.default_rng(seed)
    mem = MemoryImage(1 << 21)
    trace = TraceBuffer()
    vec = VectorContext(mem, trace, max_vl=256)
    scl = ScalarContext(mem, trace)
    data = mem.alloc("data", rng.random(N_DATA))
    out = mem.alloc("out", N_DATA, np.float64)
    idx = mem.alloc("idx", rng.integers(0, N_DATA, N_DATA))
    for op, off, avl in steps:
        vec.vsetvl(avl)
        if op == "load":
            vec.vle(data, off)
        elif op == "store":
            vec.vse(vec.vfmv(1.0), out, off)
        elif op == "gather":
            vec.vlxe(data, vec.vle(idx, off))
        elif op == "arith":
            vec.vfadd(vec.vfmv(2.0), 1.0)
        elif op == "scalar":
            scl.emit_block(data.addr(rng.integers(0, N_DATA, 32)), False, 64)
        elif op == "barrier":
            scl.barrier()
    scl.flush()
    return trace.seal()


def assert_exact(att):
    att.check()
    total = 0.0
    for b in BUCKET_ORDER:
        total += att.buckets[b]
    assert total == att.total


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 31),
       st.sampled_from([(0, 64), (512, 64), (0, 4), (1024, 1)]))
def test_property_attribution_closes_bit_exactly(steps, seed, knobs):
    extra_latency, bpc = knobs
    trace = build_trace(steps, seed)
    config = (SdvConfig().with_extra_latency(extra_latency)
              .with_bandwidth(bpc))
    ct = classify_trace(trace, config)
    fast = _ladder_attribution(ct, simulate_fast)
    batch = attribute(ct, engine="batch")
    assert_exact(fast)
    assert_exact(batch)
    assert fast.buckets == batch.buckets
    assert fast.total == batch.total
    assert fast.total == pytest.approx(
        sum(fast.buckets.values()), rel=1e-12)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 31))
def test_property_attribute_many_matches_singles(steps, seed):
    trace = build_trace(steps, seed)
    base = SdvConfig().validate()
    configs = ([base.with_extra_latency(l) for l in (0, 256, 1024)]
               + [base.with_bandwidth(b) for b in (1, 64)])
    ct = classify_trace(trace, base)
    lowered = lower_trace(ct)
    many = attribute_many(ct, configs, lowered=lowered)
    for cfg, att in zip(configs, many):
        assert_exact(att)
        single = _ladder_attribution(classify_trace(trace, cfg),
                                     simulate_fast)
        assert att.buckets == single.buckets
