"""Column-level symbolic factorization.

Computes, for a structurally symmetric pattern in topological (postorder
compatible) order, the per-column fill-in structure of the factor ``L``:

* :func:`column_counts` -- ``count[j] = |struct(L[:, j])|`` including the
  diagonal, with the row/column-count method of Gilbert, Ng and Peyton
  ("An efficient algorithm to compute row and column counts for sparse
  Cholesky factorization", SIAM J. Matrix Anal. Appl. 15(4), 1994): no
  structure is formed, only the elimination tree and one sort of the
  pattern.
* :func:`column_structures` -- the full per-column row structures (used by
  tests and by small problems only; quadratic memory in the worst case).

Row ``i`` of ``L`` is the *row subtree* of ``i``: the union of the tree
paths from every ``k < i`` with ``A[i, k] != 0`` up to ``i``, so the
count of column ``j`` is one plus the number of row subtrees holding
``j`` below their top.  Gilbert, Ng and Peyton write the counts as
subtree sums of per-node weights.  Each leaf of a row subtree adds
``+1`` at itself and each pair of consecutive leaves ``-1`` at their
lowest common ancestor, so row ``i`` adds exactly ``1`` to the subtree
sum of every node of its row subtree and of every ancestor of ``i``.
The tree's own weights, ``+1`` at each leaf and ``-1`` at each
non-root node's parent, sum to ``1 + leaves - nodes`` over a subtree;
as exactly the non-leaf nodes have non-empty rows, they cancel that
share of the rows at and above each node and leave the diagonal's
``1``.  :func:`column_structures` takes the textbook recursion
(Gilbert/Liu):

    struct(j) = ( A_lower(j) U union over children c of struct(c) ) \\ {<= j}

Both are exact for the no-pivoting LU/LDL^T factorizations used here.
"""

from __future__ import annotations

import numpy as np

from .etree import children_lists, elimination_tree, is_postordered
from .matrix import SparseMatrix

__all__ = ["column_counts", "column_structures", "fill_statistics"]


def _check_input(a: SparseMatrix, parent: np.ndarray) -> None:
    if len(parent) != a.n:
        raise ValueError("parent length must equal matrix dimension")
    if not is_postordered(parent):
        raise ValueError(
            "matrix must be in topological order (parent[j] > j); "
            "relabel with a postorder of the elimination tree first"
        )


def _ancestor_table(parent: np.ndarray) -> list[np.ndarray]:
    """Binary-lifting table: ``up[l][v]`` is the ``2**l``-th ancestor of
    ``v``, a root standing for its own ancestors.  Levels stop once one
    more jump moves no node (at most ``ceil(log2 n) + 1`` of them)."""
    n = len(parent)
    up = [np.where(parent >= 0, parent, np.arange(n))]
    while True:
        nxt = up[-1][up[-1]]
        if np.array_equal(nxt, up[-1]):
            return up
        up.append(nxt)


def _first_descendants(parent: np.ndarray) -> np.ndarray:
    """Smallest node of every subtree of a postordered tree (so the
    subtree of ``j`` is the index range ``[first[j], j]``): the leaf
    reached by following smallest children down, by pointer jumping."""
    n = len(parent)
    first = np.arange(n)
    kids = np.flatnonzero(parent >= 0)
    np.minimum.at(first, parent[kids], kids)
    while True:
        nxt = first[first]
        if np.array_equal(nxt, first):
            return first
        first = nxt


def column_counts(a: SparseMatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """Nonzero count of each column of L (diagonal included).

    Gilbert-Ng-Peyton, whole-array: ``O(nnz log n)`` time and
    ``O(n log n + nnz)`` memory, whatever the fill.
    """
    if parent is None:
        parent = elimination_tree(a)
    _check_input(a, parent)
    n = a.n
    parent = np.asarray(parent, dtype=np.int64)
    first = _first_descendants(parent)
    # Tree weights: +1 at every leaf (its diagonal) and -1 at every
    # non-root node's parent.
    nonroot = parent[parent >= 0]
    nkids = np.bincount(nonroot, minlength=n)
    delta = (nkids == 0).astype(np.int64)
    delta -= nkids
    # The strictly-lower pairs (i, k), by row i then column k.
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    lower = a.indices > cols
    rows = a.indices[lower]
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    ks = cols[lower][order]
    # k is a leaf of row i's subtree iff no earlier k' of the row lies in
    # its subtree [first[k], k], i.e. iff first[k] exceeds the previous k.
    new_row = np.ones(len(rows), dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    prev = np.empty_like(ks)
    prev[:1] = -1
    prev[1:] = ks[:-1]
    prev[new_row] = -1
    leaf = first[ks] > prev
    rows, ks = rows[leaf], ks[leaf]
    delta += np.bincount(ks, minlength=n)
    # Consecutive leaves (b0, b1) of one row meet at their lowest common
    # ancestor: in postorder, the first ancestor of b0 numbered >= b1.
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    if len(pair):
        x, b1 = ks[pair], ks[pair + 1]
        for up in reversed(_ancestor_table(parent)):
            y = up[x]
            x = np.where(y < b1, y, x)
        delta -= np.bincount(parent[x], minlength=n)
    # Subtree sums: one prefix sum over the postorder.
    csum = np.concatenate(([0], np.cumsum(delta)))
    return csum[1:] - csum[first]


def column_structures(
    a: SparseMatrix, parent: np.ndarray | None = None
) -> list[np.ndarray]:
    """Full below-diagonal row structure of every column of L.

    Returns ``struct`` where ``struct[j]`` is the sorted array of row
    indices ``> j`` in column ``j`` of the factor.  Memory is the full
    fill-in; intended for tests and small matrices.
    """
    if parent is None:
        parent = elimination_tree(a)
    _check_input(a, parent)
    n = a.n
    kids = children_lists(parent)
    struct: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for j in range(n):
        arows = a.column_rows(j)
        parts = [arows[arows > j].astype(np.int64)]
        for c in kids[j]:
            s = struct[c]
            parts.append(s[s > j])
        struct[j] = np.unique(np.concatenate(parts))
    return struct


def fill_statistics(
    a: SparseMatrix, parent: np.ndarray | None = None
) -> dict[str, float]:
    """Summary fill statistics used when reporting workload properties.

    Returns nnz of A, nnz of the L factor (lower triangle including
    diagonal), the fill ratio, and nnz of ``L + U`` (what the paper calls
    ``nnz(LU)`` in Table II -- both triangles, diagonal counted once).
    """
    counts = column_counts(a, parent)
    nnz_l = int(counts.sum())
    return {
        "n": a.n,
        "nnz_a": a.nnz,
        "nnz_l": nnz_l,
        "nnz_lu": 2 * nnz_l - a.n,
        "fill_ratio": (2 * nnz_l - a.n) / max(a.nnz, 1),
    }
