"""Workload scale presets.

The FPGA in the paper runs at 50 MHz; we run a Python interpreter, so the
benchmark harness supports two parameter sets:

* ``paper`` — the sizes from Section 3.1: cage10-scale SpMV (11397 rows,
  ~150k nnz), a 2^15-node graph for BFS/PageRank, a 2048-point FFT;
* ``ci`` — reduced sizes with the same structure, used by the test suite
  and the quick benchmark mode.

PageRank's *timed* iteration count is a harness parameter (the paper does
not state one); time scales linearly in it, so normalized results
(Figures 4 and 5 are all normalized) are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Scale:
    """One workload parameter set."""

    name: str
    spmv_n: int | None        # None = exact cage10-like stats
    graph_nodes: int
    graph_edge_factor: int
    fft_n: int
    pagerank_iters: int


_SCALES = {
    "paper": Scale(name="paper", spmv_n=None, graph_nodes=2 ** 15,
                   graph_edge_factor=8, fft_n=2048, pagerank_iters=2),
    "ci": Scale(name="ci", spmv_n=1536, graph_nodes=2 ** 11,
                graph_edge_factor=8, fft_n=512, pagerank_iters=2),
    "smoke": Scale(name="smoke", spmv_n=384, graph_nodes=2 ** 8,
                   graph_edge_factor=4, fft_n=128, pagerank_iters=1),
}

#: the preset names, in the order above
SCALE_NAMES = tuple(_SCALES)


def get_scale(name: str) -> Scale:
    """Look up a scale preset by name ('paper', 'ci', 'smoke')."""
    try:
        return _SCALES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scale '{name}' (choose from {sorted(_SCALES)})"
        ) from None
