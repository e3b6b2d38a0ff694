"""Workload generators and loaders for the four evaluated kernels.

* :mod:`cage` — synthetic sparse matrices matched to the cage10 statistics
  used for SpMV in the paper (plus a MatrixMarket loader for the real file);
* :mod:`csr` — :class:`CsrMatrix`, the SpMV input type that :mod:`cage`
  and :mod:`mm_io` build;
* :mod:`graphs` — R-MAT/Kronecker graphs in CSR form for BFS and PageRank
  (the paper uses a 2^15-node graph);
* :mod:`signals` — input signals for the 2048-point FFT;
* :mod:`mm_io` — MatrixMarket reading/writing (offline-friendly).

Each generator takes an explicit seed; the ``scale`` helpers give the
paper-scale and CI-scale parameter sets used by benches and tests.
"""

from repro.workloads.cage import cage10_like, cage_like, CAGE10_STATS
from repro.workloads.csr import CsrMatrix
from repro.workloads.graphs import CsrGraph, grid_graph, rmat_graph
from repro.workloads.signals import make_signal
from repro.workloads.mm_io import read_matrix_market, write_matrix_market
from repro.workloads.scales import Scale, get_scale

__all__ = [
    "cage10_like",
    "cage_like",
    "CAGE10_STATS",
    "CsrMatrix",
    "CsrGraph",
    "grid_graph",
    "rmat_graph",
    "make_signal",
    "read_matrix_market",
    "write_matrix_market",
    "Scale",
    "get_scale",
]
