"""Supernodal sparse LU factorization (no pivoting).

Implements the right-looking supernodal factorization ``A = L U`` of a
structurally symmetric, topologically ordered sparse matrix.  The factor
plays the role SuperLU_DIST plays in the paper: PSelInv consumes its
supernodal blocks.  Symmetric matrices need no special casing -- their LU
factor simply satisfies ``U = D L^T`` -- so one code path serves both the
paper's symmetric experiments and its "future work" unsymmetric extension.

No pivoting is performed: the intended inputs (SPD or diagonally dominant
workloads, as produced by :mod:`repro.workloads`) are factorizable as-is,
which mirrors the static-pivoting mode of SuperLU_DIST used with PEXSI.
A zero (or tiny) pivot raises :class:`ZeroPivotError` rather than
silently corrupting the factor.

The panel solves (here and in the PSelInv drivers' numeric kernels) go
through :func:`_trsolve`, LAPACK ``?trtrs`` called directly with every
check of ``scipy.linalg.solve_triangular`` kept and the same bytes out;
the sequential oracle (:mod:`repro.sparse.selinv`) and
:mod:`repro.sparse.solve` keep scipy's function.

Storage per supernode ``K`` (width ``s``, ``m`` below-diagonal rows)::

    LX[K] : (s + m, s) dense -- rows = cols(K) ++ rows_below(K)
            top (s, s)  : packed LU of the diagonal block
                          (unit L strictly below, U on and above)
            bottom (m,s): the L panel  L(rows_below, K)
    UX[K] : (s, m) dense -- the U panel U(K, rows_below)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .matrix import SparseMatrix
from .supernodes import SupernodalStructure

__all__ = ["ZeroPivotError", "SupernodalFactor", "factorize"]


class ZeroPivotError(RuntimeError):
    """Raised when a diagonal pivot is exactly zero / numerically tiny."""


# LAPACK ``?trtrs`` by (a.dtype, b.dtype), looked up once per pair.
_TRTRS: dict[tuple[np.dtype, np.dtype], Any] = {}
_TRANS = {"N": 0, "T": 1, "C": 2}


def _trsolve(
    a: np.ndarray,
    b: np.ndarray,
    *,
    lower: bool = False,
    trans: int | str = 0,
    unit_diagonal: bool = False,
) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, trans, lower, unit_diagonal)``
    on ndarrays, bit for bit, straight through LAPACK ``?trtrs``.

    The same checks in the same order -- finite ``a`` and ``b``, a
    square ``a``, matching rows -- raise the same exceptions; an empty
    ``b`` gives scipy's empty result; a C-ordered ``a`` is solved as
    ``a.T`` with ``lower`` and ``trans`` flipped, as scipy does, so the
    routine sees the same operands.  What it drops is scipy's per-call
    wrapper work (array-like conversion, batch dimensions, the
    sparse/masked/object checks, the LAPACK lookup), which at the
    ≤ 8-column systems of a supernodal factor costs ten times the
    solve: ``a`` is one 2-D ndarray, ``b`` a 1-D or 2-D one.  Numeric kernels use
    it; the sequential oracle (:mod:`repro.sparse.selinv`) keeps
    scipy's function, so the dense-inverse check stays independent.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible"
        )
    if b.size == 0:
        dt = _trsolve(np.eye(2, dtype=a.dtype), np.ones(2, dtype=b.dtype))
        return np.empty_like(b, dtype=dt.dtype)
    key = (a.dtype, b.dtype)
    trtrs = _TRTRS.get(key)
    if trtrs is None:
        (trtrs,) = get_lapack_funcs(("trtrs",), (a, b))
        _TRTRS[key] = trtrs
    trans = _TRANS.get(trans, trans)
    if a.flags.f_contiguous or trans == 2:
        x, info = trtrs(
            a, b, overwrite_b=False, lower=lower, trans=trans,
            unitdiag=unit_diagonal,
        )
    else:
        x, info = trtrs(
            a.T, b, overwrite_b=False, lower=not lower, trans=not trans,
            unitdiag=unit_diagonal,
        )
    if info == 0:
        return x
    if info > 0:
        raise LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")


def _dense_lu_nopivot(d: np.ndarray, *, tol: float) -> None:
    """In-place dense LU without pivoting (packed: unit L below, U above)."""
    s = d.shape[0]
    for i in range(s - 1):
        piv = d[i, i]
        if abs(piv) <= tol:
            raise ZeroPivotError(f"zero pivot at local index {i}")
        d[i + 1 :, i] /= piv
        d[i + 1 :, i + 1 :] -= np.outer(d[i + 1 :, i], d[i, i + 1 :])
    if s and abs(d[s - 1, s - 1]) <= tol:
        raise ZeroPivotError(f"zero pivot at local index {s - 1}")


@dataclass
class SupernodalFactor:
    """The computed factor: structure plus dense per-supernode blocks.

    ``normalized`` flips to True once
    :func:`repro.sparse.selinv.normalize` overwrites the panels with
    ``Lhat``/``Uhat``; triangular solves require a raw factor, selected
    inversion a normalized one.
    """

    struct: SupernodalStructure
    LX: list[np.ndarray]
    UX: list[np.ndarray]
    rows_full: list[np.ndarray]  # cols(K) ++ rows_below(K), per supernode
    normalized: bool = False

    @property
    def nsup(self) -> int:
        return self.struct.nsup

    def diag_block(self, k: int) -> np.ndarray:
        """Packed LU of the diagonal block of supernode ``k`` (a view)."""
        s = self.struct.width(k)
        return self.LX[k][:s, :]

    def l_panel(self, k: int) -> np.ndarray:
        """``L(rows_below(k), k)`` (a view)."""
        s = self.struct.width(k)
        return self.LX[k][s:, :]

    def u_panel(self, k: int) -> np.ndarray:
        """``U(k, rows_below(k))`` (a view)."""
        return self.UX[k]

    def unpack_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize dense ``(L, U)`` with ``A = L @ U`` (tests only)."""
        n = self.struct.n
        dt = self.LX[0].dtype if self.LX else np.float64
        L = np.eye(n, dtype=dt)
        U = np.zeros((n, n), dtype=dt)
        for k in range(self.nsup):
            fc = self.struct.first_col(k)
            s = self.struct.width(k)
            rows = self.struct.rows_below[k]
            d = self.diag_block(k)
            L[fc : fc + s, fc : fc + s] += np.tril(d, -1)
            U[fc : fc + s, fc : fc + s] = np.triu(d)
            if len(rows):
                L[np.ix_(rows, range(fc, fc + s))] = self.l_panel(k)
                U[np.ix_(range(fc, fc + s), rows)] = self.u_panel(k)
        return L, U


def _assemble(
    a: SparseMatrix, struct: SupernodalStructure
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Scatter the entries of ``A`` into zero-initialized block storage."""
    nsup = struct.nsup
    dt = np.result_type(a.data.dtype, np.float64)
    LX: list[np.ndarray] = []
    UX: list[np.ndarray] = []
    rows_full: list[np.ndarray] = []
    for k in range(nsup):
        s = struct.width(k)
        rows = struct.rows_below[k]
        full = np.concatenate(
            [np.arange(struct.first_col(k), struct.first_col(k) + s), rows]
        )
        rows_full.append(full)
        LX.append(np.zeros((s + len(rows), s), dtype=dt))
        UX.append(np.zeros((s, len(rows)), dtype=dt))
    for j in range(a.n):
        k = int(struct.snode_of[j])
        fc = struct.first_col(k)
        rows, vals = a.column(j)
        # Lower + diagonal-block part -> LX[k]; strictly-upper part -> the
        # UX of the supernode owning each row.
        split = np.searchsorted(rows, fc)
        lo_rows, lo_vals = rows[split:], vals[split:]
        pos = np.searchsorted(rows_full[k], lo_rows)
        if len(pos) and not np.array_equal(rows_full[k][pos], lo_rows):
            raise ValueError("entry of A outside the symbolic structure")
        LX[k][pos, j - fc] = lo_vals
        for r, v in zip(rows[:split], vals[:split]):
            jk = int(struct.snode_of[r])
            cpos = np.searchsorted(struct.rows_below[jk], j)
            if struct.rows_below[jk][cpos] != j:
                raise ValueError("entry of A outside the symbolic structure")
            UX[jk][r - struct.first_col(jk), cpos] = v
    return LX, UX, rows_full


def factorize(
    a: SparseMatrix,
    struct: SupernodalStructure,
    *,
    pivot_tol: float = 0.0,
) -> SupernodalFactor:
    """Right-looking supernodal LU factorization of ``A``.

    ``A`` must match ``struct`` (structurally symmetric pattern contained
    in the symbolic structure, topologically ordered).  Returns the factor
    with raw (un-normalized) panels; Algorithm 1's first loop
    (normalization) lives in :mod:`repro.sparse.selinv`.
    """
    LX, UX, rows_full = _assemble(a, struct)
    nsup = struct.nsup
    for k in range(nsup):
        s = struct.width(k)
        d = LX[k][:s, :]
        _dense_lu_nopivot(d, tol=pivot_tol)
        rows = struct.rows_below[k]
        m = len(rows)
        if m == 0:
            continue
        lp = LX[k][s:, :]
        up = UX[k]
        # lp <- lp * inv(U_kk) : solve X U = B  via  U^T X^T = B^T.
        lp[:] = _trsolve(d, lp.T, lower=False, trans="T").T
        # up <- inv(L_kk) * up : unit lower triangular solve.
        up[:] = _trsolve(d, up, lower=True, unit_diagonal=True, trans="N")
        w = lp @ up  # (m, m) Schur update for rows/cols ``rows``
        # Scatter-subtract into ancestor supernodes, grouped by the
        # supernode owning each target column.
        sn = struct.snode_of[rows]
        groups, starts = np.unique(sn, return_index=True)
        starts = list(starts) + [m]
        for g, jsn in enumerate(groups):
            jsn = int(jsn)
            j0, j1 = int(starts[g]), int(starts[g + 1])
            fcj = struct.first_col(jsn)
            lcj = struct.last_col(jsn)
            cols_local = rows[j0:j1] - fcj
            # L side: target entries (r, c) with r >= first col of jsn.
            i0 = int(np.searchsorted(rows, fcj))
            posr = np.searchsorted(rows_full[jsn], rows[i0:])
            LX[jsn][np.ix_(posr, cols_local)] -= w[i0:, j0:j1]
            # U side: target entries (r, c) with c > last col of jsn.
            i2 = int(np.searchsorted(rows, lcj + 1))
            if i2 < m:
                posc = np.searchsorted(struct.rows_below[jsn], rows[i2:])
                UX[jsn][np.ix_(cols_local, posc)] -= w[j0:j1, i2:]
    return SupernodalFactor(struct=struct, LX=LX, UX=UX, rows_full=rows_full)


# ---------------------------------------------------------------------------
# Cost model (consumed by the simulator's compute-time estimates)
# ---------------------------------------------------------------------------


def factorization_flops(struct: SupernodalStructure) -> int:
    """Floating-point operations of the numeric factorization."""
    total = 0
    for k in range(struct.nsup):
        s = struct.width(k)
        m = len(struct.rows_below[k])
        total += 2 * s**3 // 3  # dense LU of the diagonal block
        total += 2 * (s**2) * m  # two triangular panel solves
        total += 2 * s * m**2  # Schur-complement GEMM
    return total


def selinv_flops(struct: SupernodalStructure) -> int:
    """Floating-point operations of sequential selected inversion."""
    total = 0
    for k in range(struct.nsup):
        s = struct.width(k)
        m = len(struct.rows_below[k])
        total += 2 * m * m * s  # Ainv(C,C) @ Lhat
        total += 2 * s * m * s  # Uhat @ Ainv(C,K)  (diagonal update)
        total += 2 * s * m * m  # Uhat @ Ainv(C,C)  (row update)
        total += s**3  # triangular inversions of the diagonal block
    return total
