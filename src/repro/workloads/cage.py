"""Synthetic cage10-like sparse matrices.

The paper's SpMV input is `vanHeukelum/cage10` from the SuiteSparse
collection (DNA electrophoresis): 11397x11397, 150645 nonzeros, ~13.2
nonzeros/row with row degrees between 5 and 33, a strong near-diagonal
band plus medium-range couplings, and a full diagonal. We cannot download
it offline, so :func:`cage10_like` synthesizes a matrix matched to those
statistics; SpMV behaviour (the paper's concern) is governed by the
row-length distribution and the column locality, both of which are
reproduced. When the real ``cage10.mtx`` is available, load it with
:func:`repro.workloads.mm_io.read_matrix_market` instead — every kernel
accepts any CSR matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.util.prng import make_rng
from repro.workloads.csr import CsrMatrix


@dataclass(frozen=True)
class CageStats:
    """Published statistics of a cage-family matrix."""

    n: int
    nnz: int
    min_row: int
    max_row: int

    @property
    def avg_row(self) -> float:
        return self.nnz / self.n


#: vanHeukelum/cage10, from the SuiteSparse collection page.
CAGE10_STATS = CageStats(n=11397, nnz=150645, min_row=5, max_row=33)


def cage_like(stats: CageStats, *, seed: int = 7,
              band_fraction: float = 0.7,
              bandwidth_rows: int = 600) -> CsrMatrix:
    """Synthesize a CSR matrix matched to ``stats``.

    Structure: every row has its diagonal entry; the remaining degree is
    drawn from a clipped normal matched to the row-degree range; a
    ``band_fraction`` of off-diagonals fall within ``bandwidth_rows`` of the
    diagonal (cage matrices couple neighbouring DNA-polymer states), the
    rest are uniform long-range entries. Values are nonsymmetric random
    weights roughly row-normalized, like a transition matrix.
    """
    if stats.n < 4 or stats.nnz < stats.n:
        raise WorkloadError(f"degenerate cage stats: {stats}")
    if not 0.0 <= band_fraction <= 1.0:
        raise WorkloadError(f"band_fraction must be in [0, 1], got "
                            f"{band_fraction}")
    rng = make_rng(seed, "cage", stats.n, stats.nnz)
    n = stats.n

    target_offdiag = stats.nnz - n  # diagonal is full
    mean_deg = target_offdiag / n
    sigma = (stats.max_row - stats.min_row) / 6.0
    deg = rng.normal(mean_deg, sigma, size=n)
    deg = np.clip(np.rint(deg), stats.min_row - 1, stats.max_row - 1)
    deg = deg.astype(np.int64)
    # adjust total to hit nnz exactly
    diff = int(target_offdiag - deg.sum())
    while diff != 0:
        idx = rng.integers(0, n, size=abs(diff))
        if diff > 0:
            mask = deg[idx] < stats.max_row - 1
            deg[idx[mask]] += 1
            diff -= int(mask.sum())
        else:
            mask = deg[idx] > stats.min_row - 1
            deg[idx[mask]] -= 1
            diff += int(mask.sum())

    # every row's column draws in one call, in row order: the row's
    # n_band near-band columns, then its d - n_band uniform ones (with
    # array bounds the generator draws element by element, from the same
    # stream that one call per row and kind would use)
    band = max(2, bandwidth_rows)
    n_band = np.rint(deg * band_fraction).astype(np.int64)
    row = np.repeat(np.arange(n, dtype=np.int64), deg)
    pos = np.arange(row.shape[0]) - np.repeat(np.cumsum(deg) - deg, deg)
    near = pos < n_band[row]
    cols = rng.integers(np.where(near, np.maximum(row - band, 0), 0),
                        np.where(near, np.minimum(row + band + 1, n), n))
    # with the diagonal, each row's sorted unique columns
    keys = np.unique(np.concatenate([row * n + cols,
                                     np.arange(n, dtype=np.int64) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    vals = rng.uniform(0.01, 1.0, size=keys.shape[0])
    return CsrMatrix(shape=(n, n),
                     indptr=np.searchsorted(rows, np.arange(n + 1)),
                     indices=cols, data=vals)


def cage10_like(*, seed: int = 7) -> CsrMatrix:
    """The default SpMV input: synthetic stand-in for cage10."""
    return cage_like(CAGE10_STATS, seed=seed)


def scaled_cage_like(n: int, *, seed: int = 7) -> CsrMatrix:
    """A smaller matrix with cage10's row-degree *profile* (for CI runs)."""
    if n < 64:
        raise WorkloadError(f"scaled cage matrix needs n >= 64, got {n}")
    nnz = int(round(n * CAGE10_STATS.avg_row))
    stats = CageStats(n=n, nnz=nnz, min_row=CAGE10_STATS.min_row,
                      max_row=CAGE10_STATS.max_row)
    return cage_like(stats, seed=seed,
                     bandwidth_rows=max(8, int(600 * n / CAGE10_STATS.n)))
