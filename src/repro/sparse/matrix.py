"""Compressed sparse column matrices for the factorization substrate.

PSelInv consumes a supernodal LU/LDL^T factorization of a sparse matrix
``A``.  This module provides the minimal, dependency-free sparse container
the rest of :mod:`repro.sparse` builds on: a CSC matrix with sorted row
indices, plus the structural operations (symmetrization, permutation,
pattern extraction) that the ordering and symbolic-factorization stages
need.

The container intentionally mirrors the layout of
:class:`scipy.sparse.csc_matrix` (``indptr`` / ``indices`` / ``data``) so
tests can convert back and forth cheaply, but it is implemented from
scratch so the substrate does not depend on scipy internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "SparseMatrix",
    "from_coo",
    "from_dense",
    "symmetrize_pattern",
    "permute_symmetric",
]


@dataclass
class SparseMatrix:
    """A square sparse matrix in compressed sparse column (CSC) form.

    Attributes
    ----------
    n:
        Matrix dimension (the matrix is ``n``-by-``n``).
    indptr:
        ``int64`` array of length ``n + 1``; column ``j`` occupies the
        half-open slice ``indices[indptr[j]:indptr[j+1]]``.
    indices:
        ``int64`` array of row indices, sorted and unique within each
        column.
    data:
        Numeric values aligned with ``indices``.  May be real or complex.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data)
        if self.indptr.shape != (self.n + 1,):
            raise ValueError(
                f"indptr must have length n+1={self.n + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have the same length")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n
        ):
            raise ValueError("row index out of range")

    # -- basic queries ----------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(len(self.indices))

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, not copies)."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def column_rows(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view)."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi]

    def column_of(self) -> np.ndarray:
        """Column index of every stored entry (the COO ``col`` array)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        """Dense array of the diagonal entries (zeros where unstored)."""
        d = np.zeros(self.n, dtype=self.data.dtype)
        on = self.indices == self.column_of()
        d[self.indices[on]] = self.data[on]
        return d

    # -- conversions ------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``(n, n)`` array."""
        out = np.zeros((self.n, self.n), dtype=self.data.dtype)
        out[self.indices, self.column_of()] = self.data
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csc_matrix` (test convenience)."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def transpose(self) -> "SparseMatrix":
        """Return the transpose, again in sorted CSC form."""
        # Entries are stored column-major, so a stable sort on the row
        # index alone leaves each new column's rows (old columns) sorted.
        order = np.argsort(self.indices, kind="stable")
        return SparseMatrix(
            self.n,
            _ptr_from_counts(self.indices, self.n),
            self.column_of()[order],
            self.data[order],
        )

    def is_structurally_symmetric(self) -> bool:
        """True if the nonzero pattern equals the pattern of the transpose."""
        t = self.transpose()
        return bool(
            np.array_equal(self.indptr, t.indptr)
            and np.array_equal(self.indices, t.indices)
        )

    def lower_pattern(self) -> "SparseMatrix":
        """Pattern (data = 1.0) of the lower triangle, diagonal included."""
        cols = self.column_of()
        keep = self.indices >= cols
        ind = self.indices[keep]
        return SparseMatrix(
            self.n, _ptr_from_counts(cols[keep], self.n), ind, np.ones(len(ind))
        )


def _ptr_from_counts(cols: np.ndarray, n: int) -> np.ndarray:
    """CSC ``indptr`` of entries whose column indices are ``cols``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=ptr[1:])
    return ptr


def from_coo(
    n: int,
    rows: Iterable[int],
    cols: Iterable[int],
    vals: Iterable[float] | None = None,
    *,
    sum_duplicates: bool = True,
) -> SparseMatrix:
    """Build a :class:`SparseMatrix` from triplet (COO) input.

    Duplicate ``(row, col)`` pairs are summed when ``sum_duplicates`` is
    true (the usual finite-element assembly convention), otherwise they
    raise :class:`ValueError`.
    """
    r = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows)
    c = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols)
    if vals is None:
        v = np.ones(len(r))
    else:
        v = np.asarray(list(vals) if not isinstance(vals, np.ndarray) else vals)
    if not (len(r) == len(c) == len(v)):
        raise ValueError("rows, cols, vals must have equal length")
    if len(r) and (r.min() < 0 or r.max() >= n or c.min() < 0 or c.max() >= n):
        raise ValueError("index out of range")
    # Sort by (col, row) to obtain CSC with sorted row indices.
    order = np.lexsort((r, c))
    r, c, v = r[order], c[order], v[order]
    if len(r):
        dup = (np.diff(c) == 0) & (np.diff(r) == 0)
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate entries in COO input")
            # Collapse runs of duplicates by segment-summing values.
            starts = np.flatnonzero(np.r_[True, ~dup])
            v = np.add.reduceat(v, starts)
            r = r[starts]
            c = c[starts]
    return SparseMatrix(n, _ptr_from_counts(c, n), r.astype(np.int64), v)


def from_dense(a: np.ndarray, *, tol: float = 0.0) -> SparseMatrix:
    """Build a :class:`SparseMatrix` from a dense array.

    Entries with ``abs(value) <= tol`` are dropped.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square 2-D array")
    rows, cols = np.nonzero(np.abs(a) > tol)
    return from_coo(a.shape[0], rows, cols, a[rows, cols])


def symmetrize_pattern(a: SparseMatrix) -> SparseMatrix:
    """Return ``A`` expanded to the pattern of ``A + A^T``.

    Values of entries present only in the transpose are stored as explicit
    zeros.  Factorization without pivoting requires a structurally
    symmetric input; this is the standard preprocessing step (SuperLU_DIST
    does the same for unsymmetric matrices).
    """
    n = a.n
    cols = a.column_of()
    # A's triples, then the transpose's with zero values; lexsort is
    # stable, so where both hold an entry A's own value comes first and
    # is the one kept.
    rows = np.concatenate([a.indices, cols])
    cols = np.concatenate([cols, a.indices])
    vals = np.concatenate([a.data, np.zeros(a.nnz, dtype=a.data.dtype)])
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    cols = cols[first]
    return SparseMatrix(n, _ptr_from_counts(cols, n), rows[first], vals[first])


def permute_symmetric(a: SparseMatrix, perm: np.ndarray) -> SparseMatrix:
    """Apply a symmetric permutation: returns ``P A P^T``.

    ``perm`` maps *new* index -> *old* index (i.e. ``perm[k]`` is the
    original row/column that becomes row/column ``k``), the convention used
    by the fill-reducing orderings in :mod:`repro.sparse.ordering`.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = a.n
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a permutation of range(n)")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    rows = inv[a.indices]
    cols = inv[a.column_of()]
    order = np.lexsort((rows, cols))
    return SparseMatrix(
        n, _ptr_from_counts(cols, n), rows[order], a.data[order]
    )
