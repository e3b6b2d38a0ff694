"""Graph workloads for BFS and PageRank.

The paper evaluates both graph kernels on a 2^15-node graph (Section 3.1);
the underlying thesis uses synthetic scale-free inputs. :func:`rmat_graph`
generates the standard R-MAT/Kronecker distribution (Graph500 parameters by
default), deduplicated, with a :class:`CsrGraph` container holding both the
out-adjacency and the in-adjacency (PageRank pulls over incoming edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.util.mathx import is_pow2, log2_int
from repro.util.prng import make_rng


@dataclass(frozen=True)
class CsrGraph:
    """Directed graph in CSR form (out-adjacency) with its transpose."""

    n: int
    indptr: np.ndarray       # int64[n+1]
    indices: np.ndarray      # int64[m], sorted within each row
    t_indptr: np.ndarray     # transpose (in-adjacency)
    t_indices: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.n + 1,):
            raise WorkloadError("indptr shape mismatch")
        if self.t_indptr.shape != (self.n + 1,):
            raise WorkloadError("t_indptr shape mismatch")
        if self.indptr[-1] != self.indices.shape[0]:
            raise WorkloadError("indptr does not terminate at nnz")
        if self.t_indptr[-1] != self.t_indices.shape[0]:
            raise WorkloadError("t_indptr does not terminate at nnz")

    @property
    def m(self) -> int:
        """Directed edge count."""
        return int(self.indices.shape[0])

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.t_indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]: self.indptr[u + 1]]


def _edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    # dedupe parallel edges
    keep = np.ones(src.shape[0], dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)


def rmat_graph(n: int, *, edge_factor: int = 8, seed: int = 11,
               a: float = 0.57, b: float = 0.19, c: float = 0.19,
               symmetric: bool = True) -> CsrGraph:
    """R-MAT graph with ``n`` nodes (power of two) and ``n*edge_factor`` edges.

    Default (a,b,c,d) are the Graph500 parameters. ``symmetric=True`` adds
    each edge in both directions (BFS reaches the bulk of the graph, as a
    benchmark input should). Self-loops are dropped; parallel edges
    deduplicated, so the final edge count is slightly below the target.
    """
    if not is_pow2(n):
        raise WorkloadError(f"R-MAT size must be a power of two, got {n}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) <= 0:
        raise WorkloadError(f"invalid R-MAT probabilities a={a} b={b} c={c}")
    rng = make_rng(seed, "rmat", n, edge_factor)
    scale = log2_int(n)
    m = n * edge_factor

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        # one quadrant choice per edge per recursion level:
        #   [a b]   a: (0,0)  b: (0,1)
        #   [c d]   c: (1,0)  d: (1,1)
        r = rng.random(m)
        src_bit = (r >= a + b).astype(np.int64)          # quadrants c, d
        dst_bit = np.where(
            src_bit.astype(bool),
            (r >= a + b + c).astype(np.int64),           # d quadrant
            ((r >= a) & (r < a + b)).astype(np.int64),   # b quadrant
        )
        src |= src_bit << level
        dst |= dst_bit << level

    # permute node ids so degree does not correlate with index
    perm = rng.permutation(n)
    src, dst = perm[src], perm[dst]
    loops = src == dst
    src, dst = src[~loops], dst[~loops]
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])

    indptr, indices = _edges_to_csr(n, src, dst)
    t_indptr, t_indices = _edges_to_csr(
        n, indices, np.repeat(np.arange(n), np.diff(indptr))
    )
    return CsrGraph(n=n, indptr=indptr, indices=indices,
                    t_indptr=t_indptr, t_indices=t_indices)


def grid_graph(side: int) -> CsrGraph:
    """4-neighbour 2-D grid of ``side x side`` nodes (symmetric).

    The antithesis of R-MAT: huge diameter (~2*side levels), tiny uniform
    degree — it stresses the per-level costs of level-synchronous BFS
    instead of the edge throughput.
    """
    if side < 2:
        raise WorkloadError(f"grid side must be >= 2, got {side}")
    n = side * side
    idx = np.arange(n).reshape(side, side)
    src_parts = []
    dst_parts = []
    # horizontal and vertical edges, both directions
    src_parts.append(idx[:, :-1].ravel()); dst_parts.append(idx[:, 1:].ravel())
    src_parts.append(idx[:, 1:].ravel()); dst_parts.append(idx[:, :-1].ravel())
    src_parts.append(idx[:-1, :].ravel()); dst_parts.append(idx[1:, :].ravel())
    src_parts.append(idx[1:, :].ravel()); dst_parts.append(idx[:-1, :].ravel())
    src = np.concatenate(src_parts).astype(np.int64)
    dst = np.concatenate(dst_parts).astype(np.int64)
    indptr, indices = _edges_to_csr(n, src, dst)
    t_indptr, t_indices = _edges_to_csr(
        n, indices, np.repeat(np.arange(n), np.diff(indptr))
    )
    return CsrGraph(n=n, indptr=indptr, indices=indices,
                    t_indptr=t_indptr, t_indices=t_indices)

