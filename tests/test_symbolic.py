"""Tests for symbolic factorization: column counts and structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    column_counts,
    column_structures,
    elimination_tree,
    fill_statistics,
    from_dense,
    permute_symmetric,
    postorder,
    symmetrize_pattern,
)
from tests.conftest import random_symmetric_dense


def dense_symbolic_cholesky(a: np.ndarray) -> np.ndarray:
    """Reference: boolean fill pattern of L via dense elimination."""
    n = a.shape[0]
    pattern = (a != 0).copy()
    for k in range(n):
        rows = np.flatnonzero(pattern[k + 1 :, k]) + k + 1
        for i in rows:
            pattern[i, rows] = True
    return np.tril(pattern)


def topologically_ordered(a):
    m = symmetrize_pattern(a)
    parent = elimination_tree(m)
    post = postorder(parent)
    return permute_symmetric(m, post)


class TestColumnCounts:
    def test_tridiagonal_no_fill(self):
        n = 7
        a = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
        counts = column_counts(from_dense(a))
        assert np.array_equal(counts, [2] * (n - 1) + [1])

    def test_dense_matrix(self):
        n = 5
        counts = column_counts(from_dense(np.ones((n, n))))
        assert np.array_equal(counts, [5, 4, 3, 2, 1])

    def test_against_dense_reference(self, rng):
        for _ in range(8):
            a = random_symmetric_dense(24, 2.0, rng)
            m = topologically_ordered(from_dense(a))
            counts = column_counts(m)
            ref = dense_symbolic_cholesky(m.to_dense())
            want = ref.sum(axis=0)
            assert np.array_equal(counts, want)

    def test_rejects_unordered_matrix(self):
        # A matrix whose etree is not topologically ordered must be
        # rejected loudly rather than silently miscounted.
        bad = np.array([[4.0, 1, 0], [1, 4.0, 0], [0, 0, 4.0]])
        # Reverse the order so a parent precedes its child.
        m = permute_symmetric(from_dense(bad), np.array([1, 0, 2]))
        parent = elimination_tree(m)
        if parent[0] > 0:  # pragma: no cover - permutation-dependent
            pytest.skip("pattern happened to stay ordered")
        with pytest.raises(ValueError, match="topological"):
            column_counts(m, np.array([-1, 0, -1]))


class TestColumnStructures:
    def test_structures_match_counts(self, rng):
        a = random_symmetric_dense(30, 3.0, rng)
        m = topologically_ordered(from_dense(a))
        counts = column_counts(m)
        structs = column_structures(m)
        for j, s in enumerate(structs):
            assert len(s) + 1 == counts[j]
            assert np.all(s > j)
            assert np.all(np.diff(s) > 0)

    def test_structures_against_dense_reference(self, rng):
        a = random_symmetric_dense(20, 2.0, rng)
        m = topologically_ordered(from_dense(a))
        structs = column_structures(m)
        ref = dense_symbolic_cholesky(m.to_dense())
        for j in range(m.n):
            want = np.flatnonzero(ref[:, j])
            want = want[want > j]
            assert np.array_equal(structs[j], want)

    def test_supersets_of_matrix_pattern(self, rng):
        a = random_symmetric_dense(30, 3.0, rng)
        m = topologically_ordered(from_dense(a))
        structs = column_structures(m)
        for j in range(m.n):
            arows = m.column_rows(j)
            below = arows[arows > j]
            assert np.all(np.isin(below, structs[j]))


class TestFillStatistics:
    def test_keys_and_consistency(self, rng):
        a = random_symmetric_dense(30, 3.0, rng)
        m = topologically_ordered(from_dense(a))
        st_ = fill_statistics(m)
        assert st_["n"] == m.n
        assert st_["nnz_a"] == m.nnz
        assert st_["nnz_lu"] == 2 * st_["nnz_l"] - m.n
        assert st_["fill_ratio"] >= 0.99  # filled pattern includes A


def _pattern(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random symmetric test matrix of one of four shapes."""
    if kind == "diagonal":
        return np.eye(n)
    if kind == "dense":
        return np.ones((n, n))
    if kind == "random":
        return random_symmetric_dense(n, 2.0, rng)
    # "forest": disconnected components, interleaved by a relabelling.
    a = np.eye(n)
    cuts = np.unique(rng.integers(0, n + 1, size=3))
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        a[lo:hi, lo:hi] += rng.random((hi - lo, hi - lo)) < 0.3
    a += a.T
    p = rng.permutation(n)
    return a[np.ix_(p, p)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "diagonal", "dense", "forest"]),
    st.integers(min_value=1, max_value=28),
    st.integers(0, 2**31 - 1),
)
def test_counts_equal_structure_sizes_property(kind, n, seed):
    rng = np.random.default_rng(seed)
    m = topologically_ordered(from_dense(_pattern(kind, n, rng)))
    counts = column_counts(m)
    structs = column_structures(m)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [len(s) + 1 for s in structs])
    assert np.array_equal(counts, dense_symbolic_cholesky(m.to_dense()).sum(axis=0))
