"""Supernode partitioning and supernodal symbolic structure.

A *supernode* is a maximal range of contiguous columns of ``L`` sharing an
identical below-diagonal row structure.  Supernodes turn the sparse
factorization (and selected inversion) into dense BLAS3 block operations,
and they are the unit of distribution in PSelInv's 2D block-cyclic layout:
every communication event in the paper is "per supernode, per block row".

This module provides:

* :func:`fundamental_partition` -- detect structure-identical supernodes
  from the elimination tree and column counts.
* :func:`relax_partition` -- CHOLMOD-style relaxed amalgamation that merges
  small child supernodes into their parents, trading a bounded number of
  explicit zeros for larger dense blocks (real codes, including the
  SuperLU_DIST pipeline the paper builds on, always do this).
* :class:`SupernodalStructure` -- the supernodal row structures, block
  rows, supernodal elimination tree and invariant checks.  This object is
  the *interface contract* between the sparse substrate and the parallel
  layers: both the numeric factorization and the communication-volume
  models read only this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .etree import elimination_tree, is_postordered
from .matrix import SparseMatrix
from .symbolic import column_counts

__all__ = [
    "fundamental_partition",
    "relax_partition",
    "split_partition",
    "SupernodalStructure",
    "supernodal_structure",
]


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first entry of every run of equal values in ``x``
    (on sorted ``x``: of every distinct value)."""
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


def fundamental_partition(parent: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Partition columns into maximal structure-identical supernodes.

    Column ``j+1`` joins the supernode of ``j`` iff ``parent[j] == j+1``
    and ``counts[j] == counts[j+1] + 1`` (the classic criterion: the
    structure of column ``j`` minus its diagonal is always contained in
    that of its parent, and the counts matching forces equality).

    Returns ``sn_ptr`` of length ``nsup + 1``: supernode ``K`` spans
    columns ``[sn_ptr[K], sn_ptr[K+1])``.
    """
    n = len(parent)
    j = np.arange(n - 1)
    joins = (parent[:-1] == j + 1) & (counts[:-1] == counts[1:] + 1)
    return np.concatenate(([0], np.flatnonzero(~joins) + 1, [n])).astype(np.int64)


def relax_partition(
    parent: np.ndarray,
    counts: np.ndarray,
    sn_ptr: np.ndarray,
    *,
    max_size: int = 64,
    small: int = 8,
    zero_fraction: float = 0.15,
) -> np.ndarray:
    """Relaxed amalgamation of a fundamental partition.

    Walks supernodes bottom-up and merges a child supernode into its
    parent when (a) the child's parent supernode starts exactly where the
    child's columns end *in the elimination tree* (i.e. the parent of the
    child's last column is the parent supernode's first column), and (b)
    either both are tiny (``<= small`` columns) or the estimated fraction
    of explicit zeros introduced stays below ``zero_fraction``, and (c)
    the merged supernode does not exceed ``max_size`` columns.

    The returned partition is coarser than the input; structures must be
    recomputed with :func:`supernodal_structure` afterwards.
    """
    nsup = len(sn_ptr) - 1
    parent = np.asarray(parent).tolist()
    counts = np.asarray(counts).tolist()
    first = sn_ptr[:-1].tolist()
    last = (sn_ptr[1:] - 1).tolist()
    # We only ever merge K into K+1 when the column ranges are adjacent,
    # so the partition stays contiguous.
    merged_into_next = [False] * nsup
    # Effective width/zero estimates as we merge.
    eff_width = np.diff(sn_ptr).tolist()
    eff_rows = [counts[f] - 1 for f in first]  # below-diagonal rows of the 1st col
    eff_zeros = [0] * nsup

    for k in range(nsup - 1):
        if parent[last[k]] != first[k + 1]:
            continue  # parent supernode is not the adjacent one
        w = eff_width[k] + eff_width[k + 1]
        if w > max_size:
            continue
        # Zeros introduced: child columns get padded up to the parent's
        # structure.  Estimate per merged child column: parent's rows + its
        # own extra width vs its true count.
        padded = eff_rows[k + 1] + eff_width[k + 1]
        true = counts[first[k]] - 1
        extra = max(0, (padded - true)) * eff_width[k]
        total = (eff_rows[k + 1] + w) * w
        ok_small = eff_width[k] <= small and eff_width[k + 1] <= small
        if not ok_small and total > 0 and (eff_zeros[k] + extra) / total > zero_fraction:
            continue
        merged_into_next[k] = True
        eff_width[k + 1] = w
        eff_zeros[k + 1] = eff_zeros[k] + extra
        first[k + 1] = first[k]
    # Rebuild pointer array from surviving starts.
    keep = [0] + [last[k] + 1 for k in range(nsup) if not merged_into_next[k]]
    out = np.asarray(keep, dtype=np.int64)
    assert out[0] == 0 and out[-1] == len(parent)
    return out


def split_partition(sn_ptr: np.ndarray, max_size: int) -> np.ndarray:
    """Split supernodes wider than ``max_size`` into chunks.

    Dense trailing blocks (top-level nested-dissection separators) form a
    single huge fundamental supernode; production solvers cap panel width
    both for BLAS efficiency and -- crucially for PSelInv -- to expose
    block-level parallelism across the processor grid.  Splitting a
    structure-identical supernode is always valid: each chunk's structure
    is the tail columns of the original plus the original's below-diagonal
    rows.
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    bounds = sn_ptr.tolist()
    starts = [
        c
        for fc, end in zip(bounds[:-1], bounds[1:])
        for c in range(fc, end, max_size)
    ]
    starts.append(bounds[-1])
    return np.asarray(starts, dtype=np.int64)


@dataclass
class SupernodalStructure:
    """Supernodal symbolic structure of a factorization.

    Attributes
    ----------
    n:
        Matrix dimension.
    sn_ptr:
        ``nsup + 1`` column pointers; supernode ``K`` spans columns
        ``[sn_ptr[K], sn_ptr[K+1])``.
    snode_of:
        Length-``n`` map column -> supernode index.
    rows_below:
        For each supernode, the sorted row indices strictly below its last
        column that appear in its (possibly padded) structure.
    block_rows:
        For each supernode ``K``, the sorted array of *supernode indices*
        ``I > K`` such that some row of supernode ``I`` appears in
        ``rows_below[K]``.  These are the ``L_{I,K}`` blocks of the paper;
        together with ``K`` itself they form the index set ``C`` of
        Algorithm 1.
    sparent:
        Supernodal elimination tree: ``sparent[K]`` is the supernode of
        ``min(rows_below[K])`` (or ``-1`` for roots).
    """

    n: int
    sn_ptr: np.ndarray
    snode_of: np.ndarray
    rows_below: list[np.ndarray]
    block_rows: list[np.ndarray] = field(default_factory=list)
    sparent: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    # -- derived quantities ------------------------------------------------

    @property
    def nsup(self) -> int:
        return len(self.sn_ptr) - 1

    def first_col(self, k: int) -> int:
        return int(self.sn_ptr[k])

    def last_col(self, k: int) -> int:
        return int(self.sn_ptr[k + 1]) - 1

    def width(self, k: int) -> int:
        return int(self.sn_ptr[k + 1] - self.sn_ptr[k])

    def widths(self) -> np.ndarray:
        return (self.sn_ptr[1:] - self.sn_ptr[:-1]).astype(np.int64)

    def block_row_count(self, k: int, i: int) -> int:
        """Number of rows of supernode ``I`` present in ``rows_below[K]``."""
        lo, hi = self.rows_below[k].searchsorted(self.sn_ptr[i : i + 2])
        return int(hi - lo)

    def block_row_indices(self, k: int, i: int) -> np.ndarray:
        """Row indices of block ``L_{I,K}`` (subset of supernode I's cols)."""
        rows = self.rows_below[k]
        lo, hi = rows.searchsorted(self.sn_ptr[i : i + 2])
        return rows[lo:hi]

    def factor_nnz(self) -> int:
        """Stored entries of L (dense diagonal blocks + panels)."""
        total = 0
        for k in range(self.nsup):
            s = self.width(k)
            total += s * (s + 1) // 2 + len(self.rows_below[k]) * s
        return total

    def factor_nnz_lu(self) -> int:
        """Stored entries of L + U (both triangles, diagonal once)."""
        return 2 * self.factor_nnz() - self.n

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants the parallel layers rely on.

        Raises ``AssertionError`` on violation.  The critical one is the
        *chain closure* property: for any supernode ``K`` and any column
        ``c`` in its structure with ``J = snode(c)``, every structure row
        ``r >= first(J)`` of ``K`` lies in ``cols(J) U rows_below(J)``.
        This is exactly what makes (a) the right-looking scatter in the
        numeric factorization and (b) the ``Ainv(C, C)`` gather in
        selected inversion well defined.
        """
        assert self.sn_ptr[0] == 0 and self.sn_ptr[-1] == self.n
        assert np.all(np.diff(self.sn_ptr) > 0)
        for k in range(self.nsup):
            rows = self.rows_below[k]
            assert np.all(np.diff(rows) > 0), "rows must be sorted unique"
            if len(rows):
                assert rows[0] > self.last_col(k)
            if self.sparent.size:
                sp = self.sparent[k]
                if len(rows) == 0:
                    assert sp == -1
                else:
                    assert sp == self.snode_of[rows[0]]
        # Chain closure.
        for k in range(self.nsup):
            rows = self.rows_below[k]
            for c in rows:
                j = int(self.snode_of[c])
                target = set(range(self.first_col(j), self.last_col(j) + 1))
                target.update(int(r) for r in self.rows_below[j])
                tail = rows[rows >= self.first_col(j)]
                for r in tail:
                    assert int(r) in target, (
                        f"closure violated: supernode {k} row {int(r)} not in "
                        f"structure of ancestor supernode {j}"
                    )


def supernodal_structure(
    a: SparseMatrix,
    *,
    parent: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    relax: bool = True,
    max_size: int = 64,
    small: int = 8,
    zero_fraction: float = 0.15,
) -> SupernodalStructure:
    """Compute the full supernodal symbolic structure of ``A``.

    ``A`` must be structurally symmetric and topologically ordered.  The
    supernodal row structures are built by the union recursion over the
    supernodal elimination tree::

        rows(K) = ( U_{j in K} A_lower(j)  U  U_{child C} rows(C) ) \\ cols(<= last(K))

    which reproduces the per-column symbolic factorization exactly for the
    fundamental partition and yields a consistent padded superset for a
    relaxed partition.
    """
    if parent is None:
        parent = elimination_tree(a)
    if not is_postordered(parent):
        raise ValueError("matrix must be topologically ordered")
    if counts is None:
        counts = column_counts(a, parent)
    sn_ptr = fundamental_partition(parent, counts)
    if relax:
        sn_ptr = relax_partition(
            parent,
            counts,
            sn_ptr,
            max_size=max_size,
            small=small,
            zero_fraction=zero_fraction,
        )
    sn_ptr = split_partition(sn_ptr, max_size)
    nsup = len(sn_ptr) - 1
    snode_of = np.repeat(np.arange(nsup, dtype=np.int64), np.diff(sn_ptr))

    # One slice of A per supernode: its columns' rows below its last column.
    bounds = sn_ptr.tolist()
    indptr = a.indptr[sn_ptr].tolist()
    indices = a.indices
    rows_below: list[np.ndarray] = [np.empty(0, np.int64)] * nsup
    block_rows: list[np.ndarray] = [np.empty(0, np.int64)] * nsup
    sparent = np.full(nsup, -1, dtype=np.int64)
    pending: dict[int, list[np.ndarray]] = {}
    for k in range(nsup):
        lc = bounds[k + 1] - 1
        arows = indices[indptr[k] : indptr[k + 1]]
        parts = pending.pop(k, [])
        parts.append(arows[arows > lc])
        rows = np.sort(np.concatenate(parts))
        rows = rows[_run_starts(rows)]
        rows_below[k] = rows
        if len(rows):
            snodes = snode_of[rows]
            block_rows[k] = snodes[_run_starts(snodes)]
            p = int(snodes[0])
            sparent[k] = p
            tail = rows[rows >= bounds[p + 1]]
            if len(tail):
                pending.setdefault(p, []).append(tail)

    return SupernodalStructure(
        n=a.n,
        sn_ptr=sn_ptr,
        snode_of=snode_of,
        rows_below=rows_below,
        block_rows=block_rows,
        sparent=sparent,
    )
