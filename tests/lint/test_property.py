"""Property suite: the hazard analyzer as a detector.

Two statistical guarantees the mutation tests cannot give:

* **zero false negatives** — for randomly drawn strip loops with one
  planted in-window hazard and no covering Dep, the analyzer must
  report an ERROR every single time;
* **bounded false positives** — randomly drawn *clean* loops (disjoint
  streams, or hazards properly covered by deps/barriers) must never
  produce an ERROR, and the real kernel x VL grid stays ERROR-free with
  only a small, bounded number of warnings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KERNELS
from repro.lint.findings import Severity
from repro.lint.runner import LintOptions, run_lint
from repro.lint.trace_rules import MAX_DIST, analyze_snapshot
from repro.trace.template import Dep
from tests.lint.util import STRIDE, mem, replicate

#: regions this far apart can never alias within the drawn loop sizes.
REGION = 1 << 20

_HAZARD_KINDS = [
    ("RAW", True, False, "T001"),
    ("WAR", False, True, "T002"),
    ("WAW", True, True, "T003"),
]


@st.composite
def loops(draw):
    return {
        "n_iters": draw(st.integers(MAX_DIST + 2, 12)),
        "k": draw(st.integers(1, MAX_DIST)),
        "kind": draw(st.sampled_from(_HAZARD_KINDS)),
        "n_extra": draw(st.integers(0, 3)),
        "extra_writes": draw(st.lists(st.booleans(), min_size=3,
                                      max_size=3)),
        "stride_mult": draw(st.integers(1, 3)),
    }


def _build_loop(shape, *, cover: str | None):
    """One strip loop with a planted hazard at distance ``k``.

    ``cover`` is None (undeclared), 'barrier', or 'prev' (only legal
    for k == 1: one Dep.prev edge steps exactly one iteration).
    """
    _, first_writes, second_writes, _ = shape["kind"]
    stride = STRIDE * shape["stride_mult"]

    def build(tpl, n):
        for j in range(shape["n_extra"]):
            mem(tpl, (j + 2) * REGION, n,
                write=shape["extra_writes"][j], stride=stride)
        first = mem(tpl, REGION, n, write=first_writes, stride=stride)
        if cover == "barrier":
            tpl.barrier("fence")
        dep = Dep.prev(first) if cover == "prev" else None
        mem(tpl, REGION - shape["k"] * stride, n,
            write=second_writes, dep=dep, stride=stride)
    return build


def _errors(snap):
    return [f for f in analyze_snapshot(snap)
            if f.severity is Severity.ERROR]


@given(loops())
@settings(max_examples=60, deadline=None)
def test_planted_hazards_are_always_caught(shape):
    snap, _ = replicate(_build_loop(shape, cover=None),
                        shape["n_iters"])
    errs = _errors(snap)
    assert errs, "false negative: planted hazard not reported"
    rule = shape["kind"][3]
    assert any(f.rule == rule for f in errs)


@given(loops())
@settings(max_examples=60, deadline=None)
def test_barrier_covered_loops_are_clean(shape):
    snap, _ = replicate(_build_loop(shape, cover="barrier"),
                        shape["n_iters"])
    assert _errors(snap) == []


@given(loops())
@settings(max_examples=40, deadline=None)
def test_prev_dep_covers_distance_one(shape):
    shape = dict(shape, k=1)
    snap, _ = replicate(_build_loop(shape, cover="prev"),
                        shape["n_iters"])
    assert _errors(snap) == []


@given(st.integers(2, 12), st.integers(1, 5),
       st.lists(st.booleans(), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_disjoint_loops_never_error(n_iters, n_slots, writes):
    def build(tpl, n):
        for j in range(n_slots):
            mem(tpl, (j + 1) * REGION, n, write=writes[j])
    snap, _ = replicate(build, n_iters)
    found = analyze_snapshot(snap)
    assert found == [], f"false positive on disjoint streams: {found}"


# ------------------------------------------------ the real kernel x VL grid

@pytest.mark.parametrize("vl", (8, 64))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_clean_kernel_grid_is_error_free(kernel, vl):
    report = run_lint(LintOptions(
        families=("template",), kernels=(kernel,), vls=(vl,),
        scale="smoke", include_scalar=False))
    assert report.errors == [], report.render_text()
    # false positives stay bounded: at most a handful of warnings per
    # (kernel, VL) cell, never a flood that would train users to ignore
    assert len(report.by_severity(Severity.WARNING)) <= 4
