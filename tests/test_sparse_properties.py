"""Property tests of the whole-array structural operations.

The matrix operations are checked against ``scipy.sparse`` (through
``SparseMatrix.to_scipy``) on random patterns with empty columns,
explicit zeros and complex values.  The level-synchronous BFS of the
orderings is checked against a plain queue BFS kept here as the oracle:
same discovery order, same levels, and the same pseudo-peripheral
vertex, on graphs that may be disconnected or a single vertex.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import from_coo, permute_symmetric, symmetrize_pattern
from repro.sparse.ordering import _bfs_levels, _pseudo_peripheral, adjacency


@st.composite
def patterns(draw, max_n: int = 24):
    """A random square matrix: any subset of positions (so empty columns
    and rows), some stored values exactly zero, real or complex."""
    n = draw(st.integers(1, max_n))
    cells = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    rows = np.array([i for i, _ in sorted(cells)], dtype=np.int64)
    cols = np.array([j for _, j in sorted(cells)], dtype=np.int64)
    values = st.sampled_from([0.0, 1.0, -2.5, 0.125])
    vals = np.array(
        draw(st.lists(values, min_size=len(cells), max_size=len(cells))),
        dtype=np.float64,
    )
    if draw(st.booleans()):
        vals = vals + 1j * vals[::-1]
    return from_coo(n, rows, cols, vals)


def _canonical(m) -> sp.csc_matrix:
    m = sp.csc_matrix(m)
    m.sort_indices()
    return m


def _assert_same(ours, ref: sp.csc_matrix, dtype) -> None:
    np.testing.assert_array_equal(ours.indptr, ref.indptr)
    np.testing.assert_array_equal(ours.indices, ref.indices)
    assert ours.data.dtype == dtype
    np.testing.assert_array_equal(ours.data, ref.data)


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_transpose_matches_scipy(a):
    _assert_same(a.transpose(), _canonical(a.to_scipy().T), a.data.dtype)


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_symmetrize_pattern_matches_scipy(a):
    ones = sp.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=(a.n, a.n))
    pattern = _canonical(ones + ones.T)  # entries >= 1: nothing cancels
    # A's own value wherever A stores one (explicit zeros included),
    # an explicit zero where only the transpose does.
    cols = np.repeat(np.arange(a.n), np.diff(pattern.indptr))
    vals = a.to_dense()[pattern.indices, cols]
    ref = sp.csc_matrix((vals, pattern.indices, pattern.indptr), shape=(a.n, a.n))
    _assert_same(symmetrize_pattern(a), ref, a.data.dtype)


@settings(max_examples=150, deadline=None)
@given(patterns(), st.randoms(use_true_random=False))
def test_permute_symmetric_matches_scipy(a, rnd):
    perm = np.arange(a.n)
    rnd.shuffle(perm)
    ref = _canonical(a.to_scipy()[perm, :][:, perm])
    _assert_same(permute_symmetric(a, perm), ref, a.data.dtype)


# ---------------------------------------------------------------------------
# Breadth-first search against a queue BFS
# ---------------------------------------------------------------------------


def _queue_bfs(adj: list[list[int]], root: int) -> tuple[list[int], dict[int, int]]:
    dist = {root: 0}
    order = [root]
    q = deque([root])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
                q.append(w)
    return order, dist


def _queue_pseudo_peripheral(adj: list[list[int]], start: int) -> int:
    """George-Liu with the far vertex taken as the search finds it: the
    farthest, ties to strictly smaller degree in discovery order."""
    v, last_ecc = start, -1
    for _ in range(8):
        order, dist = _queue_bfs(adj, v)
        far = v
        for w in order:
            if dist[w] > dist[far] or (
                dist[w] == dist[far] and len(adj[w]) < len(adj[far])
            ):
                far = w
        if dist[far] <= last_ecc:
            return v
        last_ecc, v = dist[far], far
    return v


@st.composite
def graphs(draw, max_n: int = 30):
    """CSR adjacency of a random graph (self loops dropped, components
    joined only by chance, so often disconnected) and a start vertex."""
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    )
    rows = [i for i, _ in edges] + list(range(n))
    cols = [j for _, j in edges] + list(range(n))
    ptr, ind = adjacency(from_coo(n, rows, cols))
    return ptr, ind, draw(st.integers(0, n - 1))


def _lists(ptr, ind) -> list[list[int]]:
    return [ind[ptr[v] : ptr[v + 1]].tolist() for v in range(len(ptr) - 1)]


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_level_bfs_matches_queue_bfs(graph):
    ptr, ind, root = graph
    seen = np.zeros(len(ptr) - 1, dtype=bool)
    levels = _bfs_levels(ptr, ind, root, seen)
    order, dist = _queue_bfs(_lists(ptr, ind), root)
    assert np.concatenate(levels).tolist() == order
    assert [dist[v] for v in np.concatenate(levels).tolist()] == [
        d for d, lv in enumerate(levels) for _ in lv
    ]
    assert np.flatnonzero(seen).tolist() == sorted(order)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_pseudo_peripheral_matches_queue_search(graph):
    ptr, ind, start = graph
    seen = np.zeros(len(ptr) - 1, dtype=bool)
    v, levels = _pseudo_peripheral(ptr, ind, start, seen)
    adj = _lists(ptr, ind)
    assert v == _queue_pseudo_peripheral(adj, start)
    assert np.concatenate(levels).tolist() == _queue_bfs(adj, v)[0]
    assert not seen.any()


def test_bfs_of_a_single_vertex():
    ptr, ind = adjacency(from_coo(1, [0], [0]))
    seen = np.zeros(1, dtype=bool)
    v, levels = _pseudo_peripheral(ptr, ind, 0, seen)
    assert v == 0 and [lv.tolist() for lv in levels] == [[0]]


@settings(max_examples=100, deadline=None)
@given(patterns())
def test_adjacency_is_the_offdiagonal_pattern_of_a_plus_at(a):
    ptr, ind = adjacency(a)
    stored = np.zeros((a.n, a.n), dtype=bool)
    stored[a.indices, np.repeat(np.arange(a.n), np.diff(a.indptr))] = True
    want = (stored | stored.T) & ~np.eye(a.n, dtype=bool)
    for v in range(a.n):
        assert ind[ptr[v] : ptr[v + 1]].tolist() == np.flatnonzero(want[:, v]).tolist()
