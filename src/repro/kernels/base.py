"""Kernel protocol shared by the study harness.

A :class:`KernelSpec` bundles everything the sweeps need to treat a kernel
uniformly:

* ``prepare(scale, seed)`` — build the workload object (matrix, graph,
  signal) at a given :class:`repro.workloads.Scale`;
* ``scalar(session, workload)`` / ``vector(session, workload)`` — execute
  the implementation against a :class:`repro.soc.Session` (functional result
  + trace) and return a :class:`KernelOutput`;
* ``reference(workload)`` — the ground-truth result, in NumPy (tests
  check the SpMV, BFS and PageRank references against scipy and networkx);
* ``check(output, reference)`` — correctness predicate used by tests and by
  the harness's ``--verify`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.soc.sdv import Session
from repro.workloads.scales import Scale


@dataclass
class KernelOutput:
    """Functional result of one kernel execution."""

    value: Any
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelSpec:
    """Everything the harness needs to run one of the paper's kernels."""

    name: str
    prepare: Callable[[Scale, int], Any]
    scalar: Callable[[Session, Any], KernelOutput]
    vector: Callable[[Session, Any], KernelOutput]
    reference: Callable[[Any], Any]
    check: Callable[[KernelOutput, Any], bool]
    description: str = ""

    def build(self, variant: str) -> Callable[[Session, Any], KernelOutput]:
        """The builder for 'scalar' or 'vector'."""
        if variant == "scalar":
            return self.scalar
        if variant == "vector":
            return self.vector
        raise ValueError(f"unknown variant '{variant}'")
