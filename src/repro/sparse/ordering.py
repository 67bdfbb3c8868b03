"""Fill-reducing orderings.

A good symmetric permutation is what makes sparse factorization (and hence
selected inversion) tractable: it bounds fill-in and shapes the elimination
tree whose structure drives all of PSelInv's communication.  Three
orderings are provided:

* :func:`minimum_degree` -- classic external-degree minimum degree.  Best
  fill for small/medium problems; quadratic-ish in Python, so meant for
  matrices up to a few thousand columns (our numeric correctness scale).
* :func:`nested_dissection` -- recursive BFS-based graph bisection with a
  vertex separator.  Near-linear, produces balanced elimination trees with
  large top-level supernodes: this mirrors what (Par)METIS provides to
  SuperLU_DIST in the paper's pipeline and is the default for the
  communication-volume studies.
* :func:`reverse_cuthill_mckee` -- bandwidth-reducing ordering, kept as a
  cheap baseline and for tests.

All functions take the *pattern* of a structurally-symmetric
:class:`~repro.sparse.matrix.SparseMatrix` and return a permutation array
``perm`` with the convention ``perm[new] = old`` (pass it straight to
:func:`~repro.sparse.matrix.permute_symmetric`).

All three work on the same CSR adjacency, built by :func:`adjacency` in
whole-array numpy; nested dissection takes each piece's subgraph out of
it through one global-to-local index array.  The graph searches are
level-synchronous: a BFS level is the neighbour lists of the whole
frontier, gathered in frontier order with each vertex kept at its first
occurrence.  That is exactly the discovery order of a one-vertex-at-a-
time queue BFS, so the orderings are the textbook ones vertex for vertex.
"""

from __future__ import annotations

import heapq

import numpy as np

from .matrix import SparseMatrix, _ptr_from_counts

__all__ = [
    "adjacency",
    "minimum_degree",
    "nested_dissection",
    "reverse_cuthill_mckee",
    "natural_order",
]


def adjacency(a: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of the graph of ``A + A^T``.

    The diagonal is left out; vertex ``v``'s neighbours are
    ``indices[indptr[v]:indptr[v+1]]``, sorted ascending.
    """
    n = a.n
    cols = a.column_of()
    off = a.indices != cols
    rows, cols = a.indices[off], cols[off]
    # Both directions of every edge, keyed vertex-major and deduplicated.
    key = np.unique(np.concatenate([cols * n + rows, rows * n + cols]))
    return _ptr_from_counts(key // n, n), key % n


def natural_order(a: SparseMatrix) -> np.ndarray:
    """The identity permutation (no reordering)."""
    return np.arange(a.n, dtype=np.int64)


def _neighbours(
    ptr: np.ndarray, ind: np.ndarray, verts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour lists of ``verts`` concatenated in order, and for
    each entry the position in ``verts`` of the vertex it came from."""
    lo = ptr[verts]
    lens = ptr[verts + 1] - lo
    ends = np.cumsum(lens)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + lens, lens)
    return ind[idx], np.repeat(np.arange(len(verts)), lens)


def _bfs_levels(
    ptr: np.ndarray, ind: np.ndarray, root: int, seen: np.ndarray
) -> list[np.ndarray]:
    """Level sets of a breadth-first search from ``root``.

    Each level lists its vertices in the order a queue BFS discovers
    them: the frontier's neighbour lists are gathered in frontier order
    and every new vertex is kept at its first occurrence.  Every reached
    vertex is marked in ``seen``; vertices marked on entry are skipped.
    """
    seen[root] = True
    front = np.array([root], dtype=np.int64)
    levels = [front]
    while True:
        nb = _neighbours(ptr, ind, front)[0]
        nb = nb[~seen[nb]]
        if not len(nb):
            return levels
        _, first = np.unique(nb, return_index=True)
        front = nb[np.sort(first)]
        seen[front] = True
        levels.append(front)


def _pseudo_peripheral(
    ptr: np.ndarray, ind: np.ndarray, start: int, seen: np.ndarray
) -> tuple[int, list[np.ndarray]]:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu).

    Each sweep moves to the far vertex: the first vertex of least degree
    in the last BFS level.  Returns the vertex and the BFS levels from
    it.  ``seen`` must be all-false; it is all-false again on return.
    """
    deg = np.diff(ptr)
    v = start
    last_ecc = -1
    for moves in range(9):  # at most 8 moves; it converges in a handful
        levels = _bfs_levels(ptr, ind, v, seen)
        seen[np.concatenate(levels)] = False
        ecc = len(levels) - 1
        if ecc <= last_ecc or moves == 8:
            return v, levels
        last_ecc = ecc
        last = levels[-1]
        v = int(last[np.argmin(deg[last])])


# ---------------------------------------------------------------------------
# Minimum degree
# ---------------------------------------------------------------------------


def _min_degree(adj: list[set[int]]) -> list[int]:
    """Eliminate the graph ``adj`` (consumed) in minimum-degree order.

    The eliminated graph is kept explicitly, with a lazy heap of
    (degree, vertex) candidates; ties go to the smaller vertex.
    """
    n = len(adj)
    eliminated = [False] * n
    heap: list[tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    for _ in range(n):
        # Pop until we find a live entry whose recorded degree is current.
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == len(adj[v]):
                break
        order.append(v)
        eliminated[v] = True
        nbrs = adj[v]
        # Form the clique of v's neighbours (fill edges).
        for u in nbrs:
            au = adj[u]
            au.discard(v)
            au |= nbrs - au - {u}
        for u in nbrs:
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return order


def _adjacency_sets(ptr: np.ndarray, ind: np.ndarray) -> list[set[int]]:
    p = ptr.tolist()
    nb = ind.tolist()
    return [set(nb[p[v] : p[v + 1]]) for v in range(len(p) - 1)]


def minimum_degree(a: SparseMatrix) -> np.ndarray:
    """External-degree minimum-degree ordering.

    Maintains the eliminated graph explicitly with Python sets and a lazy
    heap of (degree, vertex) candidates.  Suitable for ``n`` up to a few
    thousand; for larger problems use :func:`nested_dissection`.
    """
    return np.asarray(_min_degree(_adjacency_sets(*adjacency(a))), dtype=np.int64)


# ---------------------------------------------------------------------------
# Reverse Cuthill-McKee
# ---------------------------------------------------------------------------


def reverse_cuthill_mckee(a: SparseMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering (handles disconnected graphs)."""
    n = a.n
    ptr, ind = adjacency(a)
    deg = np.diff(ptr)
    # Every neighbour list in the order Cuthill-McKee enqueues it:
    # by degree, ties by index.
    by_degree = ind[np.lexsort((ind, deg[ind], np.repeat(np.arange(n), deg)))]
    seen = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    order: list[np.ndarray] = []
    for seed in range(n):
        if visited[seed]:
            continue
        root, _ = _pseudo_peripheral(ptr, ind, seed, seen)
        order.extend(_bfs_levels(ptr, by_degree, root, visited))
    return np.concatenate(order)[::-1] if order else np.empty(0, np.int64)


# ---------------------------------------------------------------------------
# Nested dissection
# ---------------------------------------------------------------------------


def nested_dissection(
    a: SparseMatrix, *, leaf_size: int = 32
) -> np.ndarray:
    """Recursive bisection nested-dissection ordering.

    At each level the vertex set is split into two halves by the BFS
    order from a pseudo-peripheral vertex (unreached vertices of other
    components go to the second half); the vertex separator (vertices of
    half A adjacent to half B) is ordered *last*, so separators climb to
    the top of the elimination tree.  Pieces smaller than ``leaf_size``
    are ordered by local minimum degree, which keeps leaf fill low.
    """
    n = a.n
    ptr, ind = adjacency(a)
    local = np.full(n, -1, dtype=np.int64)  # global -> local vertex index
    out: list[int] = []

    def subgraph(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Local CSR of the subgraph induced by ``verts``; local ids are
        # positions in ``verts``, neighbour lists keep the global order.
        local[verts] = np.arange(len(verts))
        nb, owner = _neighbours(ptr, ind, verts)
        nb = local[nb]
        keep = nb >= 0
        local[verts] = -1
        return _ptr_from_counts(owner[keep], len(verts)), nb[keep]

    def order_leaf(verts: np.ndarray, lptr: np.ndarray, lind: np.ndarray) -> None:
        out.extend(verts[_min_degree(_adjacency_sets(lptr, lind))].tolist())

    def recurse(verts: np.ndarray) -> None:
        m = len(verts)
        lptr, lind = subgraph(verts)
        if m <= leaf_size:
            order_leaf(verts, lptr, lind)
            return
        _, levels = _pseudo_peripheral(lptr, lind, 0, np.zeros(m, dtype=bool))
        first = np.concatenate(levels)[: m // 2]
        in_a = np.zeros(m, dtype=bool)
        in_a[first] = True
        second = np.flatnonzero(~in_a)
        if len(first) == 0 or len(second) == 0:
            order_leaf(verts, lptr, lind)
            return
        nb, owner = _neighbours(lptr, lind, first)
        on_sep = np.bincount(owner[~in_a[nb]], minlength=len(first)) > 0
        sep = verts[first[on_sep]]
        inner_a = verts[first[~on_sep]]
        if len(inner_a) == 0 or len(sep) == 0:
            # Degenerate split (e.g. complete graph): stop recursing.
            order_leaf(verts, lptr, lind)
            return
        recurse(inner_a)
        recurse(verts[second])
        out.extend(sep.tolist())

    recurse(np.arange(n, dtype=np.int64))
    perm = np.asarray(out, dtype=np.int64)
    if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
        raise AssertionError("nested dissection produced a non-permutation")
    return perm
