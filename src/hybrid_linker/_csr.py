"""A compressed sparse row matrix holding only the operations the package uses.

Csr keeps SciPy's layout and index dtypes (int32 indices and indptr whenever
every index fits), so its arrays are byte-identical to those of the SciPy
matrix built from the same input. Every reduction adds in the order SciPy's
compiled loops do, from a zero start, so the sums carry the same bits; only
where two NaNs of opposite sign meet may the surviving sign differ.
Stored zeros, duplicate entries and unsorted columns are kept as stored.
as_csr also reads SciPy sparse input, by its attributes, without importing
SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True, eq=False)
class Csr:
    """Row i stores data[indptr[i]:indptr[i+1]] at columns indices[same]."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_arrays(cls, data, indices, indptr, shape) -> Csr:
        """A Csr with index arrays narrowed to int32 when every index fits,
        as SciPy narrows them."""
        shape = (int(shape[0]), int(shape[1]))
        dtype = np.int32 if max(len(data), *shape) <= _INT32_MAX else np.int64
        return cls(
            data,
            np.ascontiguousarray(indices, dtype),
            np.ascontiguousarray(indptr, dtype),
            shape,
        )

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __getitem__(self, rows) -> Csr:
        """The given rows: a slice of step 1 shares the arrays, any other
        index (an int, a slice, an index array or a mask) copies the rows."""
        n_rows, n_cols = self.shape
        if isinstance(rows, slice) and rows.step in (None, 1):
            start, stop, _ = rows.indices(n_rows)
            stop = max(start, stop)
            lo, hi = self.indptr[start], self.indptr[stop]
            return Csr(
                self.data[lo:hi],
                self.indices[lo:hi],
                self.indptr[start : stop + 1] - lo,
                (stop - start, n_cols),
            )
        rows = np.atleast_1d(np.arange(n_rows)[rows])
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        take = np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)
        indptr = np.zeros(len(rows) + 1, np.int64)
        indptr[1:] = ends
        return Csr.from_arrays(
            self.data[take], self.indices[take], indptr, (len(rows), n_cols)
        )

    def toarray(self) -> np.ndarray:
        """Dense copy; duplicate entries add up from zero in stored order."""
        n_rows, n_cols = self.shape
        at = self.row_ids() * n_cols + self.indices
        return _sums(at, self.data, n_rows * n_cols).reshape(n_rows, n_cols)

    def column_sums(self) -> np.ndarray:
        """Sum of each column, every entry added from zero in stored order:
        the bits of SciPy's X.sum(axis=0)."""
        return _sums(self.indices, self.data, self.shape[1])

    def squared_column_sums(self) -> np.ndarray:
        """Column sums of the elementwise square, with the bits of SciPy's
        X.multiply(X).sum(axis=0): each cell's duplicates add up from zero in
        stored order, then the cell's square is added in row order."""
        n_cols = self.shape[1]
        cells, cell = np.unique(
            self.row_ids() * n_cols + self.indices, return_inverse=True
        )
        value = _sums(cell, self.data, len(cells))
        return _sums(cells % n_cols, value * value, n_cols)

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product; each row's products add up from zero in
        stored order, as SciPy's csr_matvec adds them."""
        return _sums(self.row_ids(), self.data * vector[self.indices], self.shape[0])


def _sums(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[at[k]] += values[k] for every k in order, from a zero array."""
    out = np.zeros(size)
    np.add.at(out, at, values)
    return out


def is_sparse(X) -> bool:
    """True for a Csr and for any SciPy sparse matrix or array."""
    return isinstance(X, Csr) or hasattr(X, "tocsr")


def as_csr(X) -> Csr:
    """X as a float64 Csr.

    A Csr passes through. Sparse input (anything with tocsr()) keeps its
    arrays. Dense input stores its nonzero values in row-major order, NaN
    included, as SciPy's csr_matrix(dense) does; a 1-D array is one row.
    """
    if isinstance(X, Csr):
        return X
    if hasattr(X, "tocsr"):
        X = X.tocsr()
        return Csr(
            np.asarray(X.data, dtype=np.float64),
            X.indices,
            X.indptr,
            (int(X.shape[0]), int(X.shape[1])),
        )
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows, cols = np.nonzero(X)
    indptr = np.zeros(X.shape[0] + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=X.shape[0]), out=indptr[1:])
    return Csr.from_arrays(X[rows, cols], cols, indptr, X.shape)
