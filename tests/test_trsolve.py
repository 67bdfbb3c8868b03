"""The numeric kernels' triangular solve against scipy's, bit for bit.

``repro.sparse.factor._trsolve`` calls LAPACK ``?trtrs`` directly; the
factorization and both PSelInv drivers solve through it, while the
sequential oracle keeps ``scipy.linalg.solve_triangular``.  These tests
hold the two to the same bytes on every solve those callers make and
to the same exception (type and message) on every input scipy rejects.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.sparse.factor import _trsolve

DTYPES = [np.float64, np.complex128]


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def _triangular_system(rng, dtype, order, s=8):
    """A well-conditioned packed-LU-like ``a`` (both triangles filled)."""
    a = _random(rng, (s, s), dtype) + 4 * s * np.eye(s)
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


def _outcome(f, *args, **kwargs):
    try:
        x = f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the parity is the point
        return type(exc), str(exc)
    return x


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


def _right_hand_sides(rng, dtype, s=8):
    panel = _random(rng, (s, 13), dtype)
    return {
        "F": np.asfortranarray(_random(rng, (s, 5), dtype)),
        "C": _random(rng, (s, 5), dtype),
        # A segment of a C-ordered U panel, as the unsymmetric driver's
        # U-normalize passes it: neither C- nor F-contiguous.
        "column-slice": panel[:, 3:9],
        # L(I,K).T of a C-ordered L panel segment, as _normalize passes it.
        "panel-T": _random(rng, (11, s), dtype)[2:9].T,
        "1-D": _random(rng, (s,), dtype),
    }


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_trsolve_matches_scipy_bit_for_bit(dtype, order):
    rng = np.random.default_rng(20160523)
    a = _triangular_system(rng, dtype, order)
    bs = _right_hand_sides(rng, dtype)
    for b, lower, trans, unit in itertools.product(
        bs.values(), (True, False), ("N", "T", "C", 0, 1), (True, False)
    ):
        kw = dict(lower=lower, trans=trans, unit_diagonal=unit)
        want = solve_triangular(a, b, **kw)
        got = _trsolve(a, b, **kw)
        _assert_same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_trsolve_on_a_view_of_a_packed_factor(dtype):
    """The drivers' operands: the diagonal block is the top rows of the
    C-ordered ``LX[K]`` (a view), the identity right-hand side of
    ``_invert_diag`` and its F-ordered result fed back."""
    rng = np.random.default_rng(7)
    lx = _random(rng, (8 + 6, 8), dtype)
    lx[:8] += 32 * np.eye(8)
    lu = lx[:8, :]
    ident = np.eye(8)

    def invert(f):
        linv = f(lu, ident, lower=True, unit_diagonal=True)
        return f(lu, linv, lower=False)

    _assert_same(invert(_trsolve), invert(solve_triangular))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("where", ["a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trsolve_rejects_non_finite_like_scipy(dtype, where, bad):
    rng = np.random.default_rng(1)
    a = _triangular_system(rng, dtype, "C")
    b = _random(rng, (8, 3), dtype)
    # In the triangle the solve never reads, too: scipy checks it all.
    (a if where == "a" else b)[0, -1] = bad
    want = _outcome(solve_triangular, a, b, lower=True)
    assert want[0] is ValueError
    _assert_same(_outcome(_trsolve, a, b, lower=True), want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lower", [True, False])
def test_trsolve_singular_diagonal_like_scipy(dtype, order, lower):
    rng = np.random.default_rng(2)
    a = _triangular_system(rng, dtype, order)
    a[5, 5] = 0
    b = _random(rng, (8, 2), dtype)
    for unit in (False, True):  # a unit diagonal never reads the zero
        kw = dict(lower=lower, unit_diagonal=unit)
        want = _outcome(solve_triangular, a, b, **kw)
        if not unit:
            assert want[0] is np.linalg.LinAlgError
        _assert_same(_outcome(_trsolve, a, b, **kw), want)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((8, 7), (8, 2)), ((8,), (8, 2)), ((8, 8), (7, 2))],
    ids=["non-square", "1-D", "mismatched-rows"],
)
def test_trsolve_rejects_shapes_like_scipy(a_shape, b_shape):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape)
    want = _outcome(solve_triangular, a, b)
    assert want[0] is ValueError
    _assert_same(_outcome(_trsolve, a, b), want)


@pytest.mark.parametrize("a_dtype", DTYPES)
@pytest.mark.parametrize("b_dtype", DTYPES)
@pytest.mark.parametrize("b_shape", [(8, 0), (0,)], ids=["no-columns", "empty"])
def test_trsolve_empty_b_like_scipy(a_dtype, b_dtype, b_shape):
    a = _triangular_system(np.random.default_rng(4), a_dtype, "C")
    if b_shape == (0,):
        a = a[:0, :0]
    b = np.zeros(b_shape, dtype=b_dtype)
    want = solve_triangular(a, b)
    got = _trsolve(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape


def test_trsolve_mixed_dtypes_like_scipy():
    """A real ``a`` with a complex ``b`` (and back) takes scipy's
    LAPACK prefix, so the memo is per dtype pair."""
    rng = np.random.default_rng(5)
    for a_dt, b_dt in ((np.float64, np.complex128), (np.complex128, np.float64)):
        a = _triangular_system(rng, a_dt, "C")
        b = _random(rng, (8, 3), b_dt)
        _assert_same(_trsolve(a, b, lower=True), solve_triangular(a, b, lower=True))
