"""Byte pins of :func:`repro.sparse.factor.factorize` outputs.

One sha256 per matrix over every supernode's ``LX``, ``UX`` and
``rows_full`` block (dtype, shape and bytes), so a rewrite of the
assembly or of the Schur-update bookkeeping must reproduce the factor
exactly, not only within a tolerance.  They were recorded with the
per-entry assembly and the ``np.unique`` + ``np.ix_`` Schur scatter;
never re-record them to make a refactor pass.  A BLAS that rounds its
GEMMs or triangular solves differently yields other bytes; re-record
them against the old code on such a stack.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sparse import SparseMatrix, analyze, factorize, from_dense
from repro.workloads import dg_hamiltonian, grid_laplacian_2d, make_workload
from tests.conftest import random_unsymmetric_dense


def _complex_dg() -> SparseMatrix:
    """A complex-shifted DG Hamiltonian, ``H + 0.5i I`` (PEXSI's
    complex symmetric ``H - zS`` with ``S = I``)."""
    a = dg_hamiltonian((6, 6), 6, rng=np.random.default_rng(1))
    on_diag = a.indices == a.column_of()
    return SparseMatrix(a.n, a.indptr, a.indices, a.data + 0.5j * on_diag)


# name -> (matrix, analyze() keyword arguments)
MATRICES = {
    "dg-7x7x16": (
        lambda: dg_hamiltonian((7, 7), 16, rng=np.random.default_rng(0)),
        dict(ordering="nd", max_supernode=8),
    ),
    "dg-complex": (_complex_dg, dict(ordering="nd", max_supernode=8)),
    "unsymmetric": (
        lambda: from_dense(
            random_unsymmetric_dense(60, 3.5, np.random.default_rng(1708))
        ),
        dict(ordering="amd", max_supernode=8),
    ),
    "laplacian-60x60": (
        lambda: grid_laplacian_2d(60, 60),
        dict(ordering="nd", max_supernode=8),
    ),
    "audikw_1-small": (
        lambda: make_workload("audikw_1", "small"),
        dict(ordering="nd", max_supernode=8),
    ),
}

PINS = {
    "dg-7x7x16": "fd94aa71085e6207006af244feb8253567e77fca482a8c461d4d7fc78b5bb0fe",
    "dg-complex": "74613f759d7d00ede5e5142c650ac5ec2d6730f08a94b45f35992fcae7b15ebc",
    "unsymmetric": "c87631828dcca98a39765e1623a778ade09c9f325ef757970700d672af3aaf2e",
    "laplacian-60x60": "941b9bce5fd56f4bfb451ca9f43361228ffea281e5f2585dcd8bbcbde4b27458",
    "audikw_1-small": "62950c6236582a618f685cf56f8d9ea2fb3bb083b2d8bb2071ebe9337f80bab4",
}


def factor_digest(fac) -> str:
    h = hashlib.sha256()
    for name, blocks in (("LX", fac.LX), ("UX", fac.UX), ("rows_full", fac.rows_full)):
        for k, arr in enumerate(blocks):
            h.update(f"{name}[{k}]:{arr.dtype.str}:{arr.shape}:".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_factor_bytes_pinned(name):
    make, kwargs = MATRICES[name]
    prob = analyze(make(), **kwargs)
    fac = factorize(prob.matrix, prob.struct)
    assert factor_digest(fac) == PINS[name]
    struct = prob.struct
    for k in range(struct.nsup):
        s = struct.width(k)
        m = len(struct.rows_below[k])
        for arr, shape in (
            (fac.LX[k], (s + m, s)),
            (fac.UX[k], (s, m)),
            (fac.rows_full[k], (s + m,)),
        ):
            assert arr.shape == shape and arr.flags.c_contiguous, (k, shape)


def test_pinned_matrices_cover_the_value_kinds():
    assert np.iscomplexobj(_complex_dg().data)
    make, _ = MATRICES["unsymmetric"]
    assert not np.array_equal(make().to_dense(), make().to_dense().T)
