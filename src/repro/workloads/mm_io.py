"""MatrixMarket I/O.

The paper's SpMV input (cage10) ships as a ``.mtx`` file from SuiteSparse.
scipy has ``mmread``, but the runtime needs only NumPy, and implementing
the coordinate format directly means the loader (a) has no hidden format
surprises in tests and (b) documents exactly which subset we accept:
``matrix coordinate real/integer/pattern general/symmetric``. It reads
into a :class:`~repro.workloads.csr.CsrMatrix`; duplicate entries are
summed and a symmetric file's off-diagonal entries are mirrored.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.csr import CsrMatrix


def read_matrix_market(path: str | os.PathLike) -> CsrMatrix:
    """Read a MatrixMarket coordinate file into CSR."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.strip().split()
        if len(parts) < 5 or parts[0] != "%%MatrixMarket":
            raise WorkloadError(f"not a MatrixMarket file: {header!r}")
        _, obj, fmt, field, symmetry = parts[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise WorkloadError(
                f"only 'matrix coordinate' supported, got {obj} {fmt}"
            )
        field = field.lower()
        symmetry = symmetry.lower()
        if field not in ("real", "integer", "pattern"):
            raise WorkloadError(f"unsupported field '{field}'")
        if symmetry not in ("general", "symmetric"):
            raise WorkloadError(f"unsupported symmetry '{symmetry}'")

        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            nrows, ncols, nnz = (int(x) for x in line.split())
        except ValueError as exc:
            raise WorkloadError(f"bad size line: {line!r}") from exc

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.ones(nnz, dtype=np.float64)
        for k in range(nnz):
            entry = fh.readline().split()
            if len(entry) < (2 if field == "pattern" else 3):
                raise WorkloadError(f"truncated entry at nonzero {k}")
            rows[k] = int(entry[0]) - 1
            cols[k] = int(entry[1]) - 1
            if field != "pattern":
                vals[k] = float(entry[2])

    return _build_csr(nrows, ncols, rows, cols, vals, symmetry)


def _build_csr(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
               vals: np.ndarray, symmetry: str) -> CsrMatrix:
    if symmetry == "symmetric":
        off = rows != cols
        rows2 = np.concatenate([rows, cols[off]])
        cols2 = np.concatenate([cols, rows[off]])
        vals2 = np.concatenate([vals, vals[off]])
    else:
        rows2, cols2, vals2 = rows, cols, vals
    if rows2.size and (rows2.min() < 0 or rows2.max() >= nrows
                       or cols2.min() < 0 or cols2.max() >= ncols):
        raise WorkloadError("index out of declared matrix bounds")
    # entries sorted by (row, column); a repeated entry's values summed in
    # file order
    order = np.lexsort((cols2, rows2))
    rows2, cols2, vals2 = rows2[order], cols2[order], vals2[order]
    first = np.ones(rows2.shape[0], dtype=bool)
    first[1:] = (rows2[1:] != rows2[:-1]) | (cols2[1:] != cols2[:-1])
    data = vals2[first]
    np.add.at(data, np.cumsum(first)[~first] - 1, vals2[~first])
    return CsrMatrix(shape=(nrows, ncols),
                     indptr=np.searchsorted(rows2[first],
                                            np.arange(nrows + 1)),
                     indices=cols2[first], data=data)


def write_matrix_market(path: str | os.PathLike, mat, *,
                        comment: str = "") -> None:
    """Write a CSR matrix (anything with ``shape``, ``indptr``,
    ``indices`` and ``data``) as 'matrix coordinate real general'."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{mat.shape[0]} {mat.shape[1]} {rows.shape[0]}\n")
        for r, c, v in zip(rows.tolist(), np.asarray(mat.indices).tolist(),
                           np.asarray(mat.data, dtype=np.float64).tolist()):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
