"""Tests for the supernodal numeric LU factorization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sparse import ZeroPivotError, analyze, from_coo, from_dense
from repro.sparse.factor import (
    _dense_lu_nopivot,
    factorization_flops,
    factorize,
    selinv_flops,
)
from tests.conftest import random_symmetric_dense, random_unsymmetric_dense


class TestDenseLU:
    def test_small_known(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        d = a.copy()
        _dense_lu_nopivot(d, tol=0.0)
        L = np.tril(d, -1) + np.eye(2)
        U = np.triu(d)
        np.testing.assert_allclose(L @ U, a)

    def test_zero_pivot_raises(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroPivotError):
            _dense_lu_nopivot(d, tol=0.0)

    def test_trailing_zero_pivot_raises(self):
        d = np.array([[1.0, 1.0], [1.0, 1.0]])  # schur = 0
        with pytest.raises(ZeroPivotError):
            _dense_lu_nopivot(d, tol=1e-14)

    def test_random_lu(self, rng):
        for n in (1, 3, 7):
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            d = a.copy()
            _dense_lu_nopivot(d, tol=0.0)
            L = np.tril(d, -1) + np.eye(n)
            U = np.triu(d)
            np.testing.assert_allclose(L @ U, a, atol=1e-10)


class TestFactorize:
    @pytest.mark.parametrize("ordering", ["amd", "nd", "natural"])
    def test_lu_product_symmetric(self, ordering, rng):
        a = random_symmetric_dense(40, 3.0, rng)
        prob = analyze(from_dense(a), ordering=ordering)
        fac = factorize(prob.matrix, prob.struct)
        L, U = fac.unpack_dense()
        np.testing.assert_allclose(
            L @ U, prob.matrix.to_dense(), atol=1e-9
        )

    def test_lu_product_unsymmetric(self, rng):
        a = random_unsymmetric_dense(45, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        fac = factorize(prob.matrix, prob.struct)
        L, U = fac.unpack_dense()
        np.testing.assert_allclose(L @ U, prob.matrix.to_dense(), atol=1e-9)

    def test_symmetric_factor_satisfies_u_equals_dlt(self, rng):
        # For symmetric A, U = D L^T where D = diag(U).
        a = random_symmetric_dense(30, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        fac = factorize(prob.matrix, prob.struct)
        L, U = fac.unpack_dense()
        D = np.diag(np.diag(U))
        np.testing.assert_allclose(U, D @ L.T, atol=1e-9)

    def test_views_are_consistent(self, rng):
        a = random_symmetric_dense(30, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        fac = factorize(prob.matrix, prob.struct)
        for k in range(fac.nsup):
            s = prob.struct.width(k)
            m = len(prob.struct.rows_below[k])
            assert fac.diag_block(k).shape == (s, s)
            assert fac.l_panel(k).shape == (m, s)
            assert fac.u_panel(k).shape == (s, m)

    def test_singular_matrix_raises(self):
        a = np.ones((4, 4))  # rank 1: zero pivot at step 2
        prob = analyze(from_dense(a), ordering="natural")
        with pytest.raises(ZeroPivotError):
            factorize(prob.matrix, prob.struct, pivot_tol=1e-12)

    @pytest.mark.parametrize(
        "arrow, extra",
        [
            (False, (5, 0)),  # lower, past the end of rows_full[0]
            (True, (3, 0)),  # lower, in a gap of rows_full[0]
            (False, (0, 5)),  # upper, past the end of rows_below[0]
            (True, (0, 3)),  # upper, in a gap of rows_below[0]
        ],
        ids=["lower-past-end", "lower-in-gap", "upper-past-end", "upper-in-gap"],
    )
    def test_entry_outside_structure_raises(self, arrow, extra):
        """Supernodes of one column on a tridiagonal (rows_below[0] is
        [1]) or a tridiagonal plus A[5, 0] and A[0, 5] (rows_below[0] is
        [1, 5]); one more entry of column or row 0 lies outside."""
        a = 4.0 * np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
        if arrow:
            a[5, 0] = a[0, 5] = 1.0
        prob = analyze(from_dense(a), ordering="natural", max_supernode=1)
        assert prob.struct.rows_below[0].tolist() == ([1, 5] if arrow else [1])
        m = prob.matrix
        bad = from_coo(
            m.n,
            np.append(m.indices, extra[0]),
            np.append(m.column_of(), extra[1]),
            np.append(m.data, 1.0),
        )
        with pytest.raises(ValueError, match="outside the symbolic structure"):
            factorize(bad, prob.struct)

    def test_1x1_matrix(self):
        prob = analyze(from_dense(np.array([[3.0]])), ordering="natural")
        fac = factorize(prob.matrix, prob.struct)
        assert fac.diag_block(0)[0, 0] == 3.0


class TestFlopModels:
    def test_positive_and_monotone(self, rng):
        a = random_symmetric_dense(40, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        f = factorization_flops(prob.struct)
        s = selinv_flops(prob.struct)
        assert f > 0 and s > 0
        # A denser matrix of the same size needs more flops.
        b = random_symmetric_dense(40, 8.0, rng)
        prob2 = analyze(from_dense(b), ordering="amd")
        assert factorization_flops(prob2.struct) > f


def _draw_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "unsymmetric":
        return random_unsymmetric_dense(n, 2.5, rng)
    a = random_symmetric_dense(n, 2.5, rng)
    if kind == "complex":
        # Complex symmetric, as PEXSI's H - zS: a shifted diagonal and
        # imaginary parts on the pattern of A.
        im = rng.normal(size=(n, n))
        a = a + 0.3j * np.where(a != 0, im + im.T, 0.0) + 0.5j * np.eye(n)
    return a


KINDS = ["symmetric", "unsymmetric", "complex"]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(0, 2**31 - 1),
    st.sampled_from(KINDS),
)
def test_factorization_property(n, seed, kind):
    """A = L U holds for random diagonally dominant inputs -- real
    symmetric, unsymmetric and complex symmetric -- under the default
    pipeline."""
    rng = np.random.default_rng(seed)
    a = _draw_matrix(kind, n, rng)
    prob = analyze(from_dense(a), ordering="amd")
    fac = factorize(prob.matrix, prob.struct)
    L, U = fac.unpack_dense()
    assert np.abs(L @ U - prob.matrix.to_dense()).max() < 1e-8


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=3, max_value=30),
    st.integers(0, 2**31 - 1),
    st.sampled_from(KINDS),
    st.data(),
)
def test_off_structure_entry_raises_property(n, seed, kind, data):
    """Any entry added outside struct(L + U) is a ValueError."""
    rng = np.random.default_rng(seed)
    prob = analyze(from_dense(_draw_matrix(kind, n, rng)), ordering="amd")
    struct = prob.struct
    inside = np.zeros((n, n), dtype=bool)
    for k in range(struct.nsup):
        fc, s = struct.first_col(k), struct.width(k)
        full = np.concatenate([np.arange(fc, fc + s), struct.rows_below[k]])
        inside[np.ix_(full, np.arange(fc, fc + s))] = True
        inside[np.ix_(np.arange(fc, fc + s), full)] = True
    outside = np.argwhere(~inside)
    assume(len(outside) > 0)
    r, c = outside[data.draw(st.integers(0, len(outside) - 1))]
    m = prob.matrix
    bad = from_coo(
        n,
        np.append(m.indices, r),
        np.append(m.column_of(), c),
        np.append(m.data, 1.0),
    )
    with pytest.raises(ValueError, match="outside the symbolic structure"):
        factorize(bad, struct)
