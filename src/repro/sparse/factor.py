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

Every ``LX[K]`` is a C-contiguous view into one flat store for the L
side, every ``UX[K]`` one into a flat store for the U side, and every
``rows_full[K]`` one into a flat row-index array.  Assembly is
whole-array: one ``searchsorted`` over the sorted keys
``K * n + row`` of the concatenated ``rows_below`` locates every entry
of ``A`` (an entry outside the symbolic structure is a ``ValueError``
before anything is written), then two fancy assignments scatter the
lower/diagonal-block and the strictly-upper entries.  The Schur update
subtracts each supernode's ``L U`` product from its ancestors one group
of target columns at a time, in supernode order.
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
    """Scatter the entries of ``A`` into one zero-initialized flat store
    per side; returns ``LX``, ``UX`` and ``rows_full`` as per-supernode
    views.

    An entry of ``A`` outside the symbolic structure raises
    ``ValueError`` before anything is written.
    """
    n, nsup = struct.n, struct.nsup
    sn_ptr, snode_of = struct.sn_ptr, struct.snode_of
    dt = np.result_type(a.data.dtype, np.float64)
    widths = struct.widths()
    counts = np.fromiter(map(len, struct.rows_below), np.int64, nsup)
    heights = widths + counts
    l_ofs = np.concatenate(([0], np.cumsum(heights * widths)))
    u_ofs = np.concatenate(([0], np.cumsum(widths * counts)))
    f_ofs = np.concatenate(([0], np.cumsum(heights)))
    b_ofs = np.concatenate(([0], np.cumsum(counts)))
    below = np.concatenate([np.empty(0, np.int64), *struct.rows_below])
    below_sn = np.repeat(np.arange(nsup, dtype=np.int64), counts)
    # Every supernode's rows_below, keyed ``k * n + row``: sorted, so one
    # searchsorted locates any (supernode, row) pair; the sentinel past
    # the last key keeps a miss past the end in bounds.
    keys = np.append(below_sn * n + below, nsup * n)

    # rows_full[k] = cols(k) ++ rows_below(k), in one flat array.
    cols = np.arange(n, dtype=np.int64)
    full = np.empty(int(f_ofs[-1]), np.int64)
    full[f_ofs[snode_of] + cols - sn_ptr[snode_of]] = cols
    at = np.arange(len(below)) - b_ofs[below_sn]  # index in rows_below[k]
    full[f_ofs[below_sn] + widths[below_sn] + at] = below

    # Lower + diagonal-block entries go to LX[k] of their column's
    # supernode k; strictly-upper ones to UX of their row's supernode,
    # at the position of their column in its rows_below.
    col = a.column_of()
    row = a.indices
    k = snode_of[col]
    lo = row >= sn_ptr[k]
    up = ~lo
    k_lo, r_lo, c_lo = k[lo], row[lo], col[lo]
    fc_lo, s_lo = sn_ptr[k_lo], widths[k_lo]
    pos = r_lo - fc_lo  # position in rows_full[k]
    off = pos >= s_lo
    r_up, c_up = row[up], col[up]
    k_up = snode_of[r_up]
    query = np.concatenate((k_lo[off] * n + r_lo[off], k_up * n + c_up))
    hit = np.searchsorted(keys, query)
    if not np.array_equal(keys[hit], query):
        raise ValueError("entry of A outside the symbolic structure")
    n_off = int(np.count_nonzero(off))
    pos[off] = s_lo[off] + hit[:n_off] - b_ofs[k_lo[off]]
    cpos = hit[n_off:] - b_ofs[k_up]

    lbuf = np.zeros(int(l_ofs[-1]), dtype=dt)
    ubuf = np.zeros(int(u_ofs[-1]), dtype=dt)
    lbuf[l_ofs[k_lo] + pos * s_lo + c_lo - fc_lo] = a.data[lo]
    ubuf[u_ofs[k_up] + (r_up - sn_ptr[k_up]) * counts[k_up] + cpos] = a.data[up]

    LX: list[np.ndarray] = []
    UX: list[np.ndarray] = []
    rows_full: list[np.ndarray] = []
    for s, h, l0, l1, u0, u1, f0, f1 in zip(
        widths.tolist(), heights.tolist(),
        l_ofs[:-1].tolist(), l_ofs[1:].tolist(),
        u_ofs[:-1].tolist(), u_ofs[1:].tolist(),
        f_ofs[:-1].tolist(), f_ofs[1:].tolist(),
    ):
        LX.append(lbuf[l0:l1].reshape(h, s))
        UX.append(ubuf[u0:u1].reshape(s, h - s))
        rows_full.append(full[f0:f1])
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
    snode_of = struct.snode_of
    sn_ptr = struct.sn_ptr.tolist()
    for k, rows in enumerate(struct.rows_below):
        s = sn_ptr[k + 1] - sn_ptr[k]
        d = LX[k][:s, :]
        _dense_lu_nopivot(d, tol=pivot_tol)
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
        # Scatter-subtract into ancestor supernodes, one group per
        # supernode owning a run of ``rows``.  Group ``[j0, j1)`` holds
        # exactly the rows in that supernode's columns, so ``j0``/``j1``
        # are also where ``rows`` crosses its first column (the L-side
        # targets start) and its last column (the U-side targets start).
        sn = snode_of[rows]
        bounds = [0, *(np.flatnonzero(sn[1:] != sn[:-1]) + 1).tolist(), m]
        for jsn, j0, j1 in zip(sn[bounds[:-1]].tolist(), bounds, bounds[1:]):
            cols_local = rows[j0:j1] - sn_ptr[jsn]
            posr = rows_full[jsn].searchsorted(rows[j0:])
            LX[jsn][posr[:, None], cols_local] -= w[j0:, j0:j1]
            if j1 < m:
                posc = posr[j1 - j0 :] - (sn_ptr[jsn + 1] - sn_ptr[jsn])
                UX[jsn][cols_local[:, None], posc] -= w[j0:j1, j1:]
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
