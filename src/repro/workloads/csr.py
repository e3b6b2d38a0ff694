"""The SpMV input type: a compressed sparse row matrix in NumPy.

The SpMV kernels (scalar CSR, CSR-vector, SELL-C-sigma) and PageRank's
SELL pattern read only ``shape``, ``indptr``, ``indices``, ``data`` and
``nnz`` of their matrix, so any object with those attributes works,
``scipy.sparse.csr_matrix`` included. :class:`CsrMatrix` is the one the
cage generator and the MatrixMarket reader build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A CSR matrix with int64 ``indptr``/``indices`` and float64 ``data``."""

    shape: tuple[int, int]
    indptr: np.ndarray    # int64[nrows+1]
    indices: np.ndarray   # int64[nnz], sorted within each row
    data: np.ndarray      # float64[nnz]

    def __post_init__(self) -> None:
        if self.indptr.shape != (self.shape[0] + 1,):
            raise WorkloadError("indptr shape mismatch")
        if not self.indptr[-1] == self.indices.shape[0] == self.data.shape[0]:
            raise WorkloadError("indptr does not terminate at nnz")

    @property
    def nnz(self) -> int:
        """Stored entries, explicit zeros included."""
        return int(self.indices.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, each row's products summed in column order."""
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by a "
                             f"vector of shape {x.shape}")
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])
