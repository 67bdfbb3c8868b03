"""Elimination trees (Liu 1990).

The elimination tree is the central structural object of sparse
factorization: ``parent[j]`` is the row index of the first subdiagonal
nonzero of column ``j`` of the Cholesky/LU factor.  PSelInv's concurrency
(section II-B of the paper) is exactly the tree's branch structure -- two
supernodes can be processed simultaneously when they lie in disjoint
subtrees -- so everything downstream (symbolic factorization, supernodes,
the task pipeline) consumes the tree built here.
"""

from __future__ import annotations

import numpy as np

from .matrix import SparseMatrix

__all__ = [
    "elimination_tree",
    "postorder",
    "subtree_sizes",
    "tree_levels",
    "is_postordered",
    "children_lists",
    "relabel_tree",
]


def elimination_tree(a: SparseMatrix) -> np.ndarray:
    """Elimination tree of a structurally symmetric matrix pattern.

    Uses Liu's algorithm with path compression (virtual ancestors) --
    ``O(nnz * alpha(n))``.  Only the lower-triangular pattern is inspected.
    Returns ``parent`` with ``parent[root] = -1`` (a forest if the graph is
    disconnected).
    """
    n = a.n
    indptr = a.indptr.tolist()
    indices = a.indices.tolist()
    parent = [-1] * n
    ancestor = [-1] * n
    for j in range(n):
        for i in indices[indptr[j] : indptr[j + 1]]:
            if i >= j:
                continue  # only strictly-upper entries i < j drive the tree
            # Follow the path from i to the root of its current virtual
            # tree, compressing as we go, and hang it under j.
            while True:
                anc = ancestor[i]
                ancestor[i] = j
                if anc == -1:
                    if parent[i] == -1:
                        parent[i] = j
                    break
                if anc == j:
                    break
                i = anc
    return np.asarray(parent, dtype=np.int64)


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Children of each node (and of the virtual root via ``parent==-1``)."""
    kids: list[list[int]] = [[] for _ in range(len(parent))]
    for v, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            kids[p].append(v)
    return kids


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postordering of the (forest-shaped) elimination tree.

    Returns ``post`` with ``post[k] = old`` -- i.e. the node visited at
    postorder position ``k``.  Children are visited in increasing node
    order, which makes the postorder stable and deterministic.
    """
    n = len(parent)
    kids = children_lists(parent)
    post: list[int] = []
    for root in np.flatnonzero(np.asarray(parent) == -1).tolist():
        # Iterative DFS; push children reversed so they pop in order.
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                post.append(node)
            else:
                stack.append((node, True))
                for c in reversed(kids[node]):
                    stack.append((c, False))
    if len(post) != n:
        raise AssertionError("postorder did not visit every node")
    return np.asarray(post, dtype=np.int64)


def relabel_tree(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """The tree ``parent`` with its nodes renumbered by ``post``
    (``post[new] = old``), roots kept at ``-1``.

    A postorder of the elimination tree is an equivalent reordering, so
    relabelling the tree of ``A`` through it gives exactly the
    elimination tree of the permuted matrix, without a second pass over
    its pattern.
    """
    parent = np.asarray(parent)
    inv = np.empty(len(post), dtype=np.int64)
    inv[post] = np.arange(len(post), dtype=np.int64)
    old = parent[post]
    return np.where(old >= 0, inv[old], -1)


def is_postordered(parent: np.ndarray) -> bool:
    """True if every node's index is smaller than its parent's.

    A matrix whose elimination tree satisfies this is said to be in
    topological (postorder-compatible) order; supernode detection assumes
    it.
    """
    parent = np.asarray(parent)
    has = parent >= 0
    return not np.any(parent[has] <= np.flatnonzero(has))


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Number of nodes in the subtree rooted at each node (inclusive).

    Requires a topologically ordered tree (``parent[v] > v``).
    """
    if not is_postordered(parent):
        raise ValueError("tree is not topologically ordered")
    size = [1] * len(parent)
    for v, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            size[p] += size[v]
    return np.asarray(size, dtype=np.int64)


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of each node (roots at level 0).

    Requires a topologically ordered tree; computed root-down in one pass.
    """
    par = np.asarray(parent).tolist()
    level = [0] * len(par)
    for v in range(len(par) - 1, -1, -1):
        p = par[v]
        if p >= 0:
            level[v] = level[p] + 1
    return np.asarray(level, dtype=np.int64)
