"""Grid Laplacian workload generators.

Finite-difference/finite-element style matrices on regular 2-D and 3-D
grids.  These are the *relatively sparse* regime of the paper's test set:
``audikw_1`` (3-D structural FE, 0.009% nonzeros) and ``Flan_1565`` (3-D
hexahedral shell) are modelled by 3-D stencils, whose elimination trees
and fill patterns have the same character (deep trees, O(n^{2/3})-sized
top separators) that drives PSelInv's restricted-collective sizes.

All generators return symmetric positive-definite matrices (shifted
Laplacians) so the no-pivot factorization is safe, with an optional value
RNG to decorrelate numeric content across runs.
"""

from __future__ import annotations

import numpy as np

from ..sparse.matrix import SparseMatrix, from_coo

__all__ = ["grid_laplacian_2d", "grid_laplacian_3d", "random_spd_sparse"]


def _lattice_laplacian(
    shape: tuple[int, ...],
    offsets: list[tuple[int, ...]],
    shift: float,
    rng: np.random.Generator | None,
) -> SparseMatrix:
    """Shifted Laplacian of the stencil ``offsets`` on a row-major grid.

    Edges come in vertex order and, per vertex, in ``offsets`` order;
    their weights are drawn in that order (one ``rng.random`` value per
    edge), and each vertex's degree sums its edges in that order too.
    """
    n = int(np.prod(shape))
    coords = np.indices(shape).reshape(len(shape), n, 1)
    nbr = coords + np.array(offsets).T[:, None, :]  # (dims, n, offsets)
    inside = ((nbr >= 0) & (nbr < np.array(shape)[:, None, None])).all(axis=0)
    u = np.broadcast_to(np.arange(n)[:, None], inside.shape)[inside]
    v = np.ravel_multi_index(tuple(np.where(inside, nbr, 0)), shape)[inside]
    m = len(u)
    w = np.full(m, -1.0) if rng is None else -1.0 - 0.1 * rng.random(m)
    # Each edge contributes (u, v, w) then (v, u, w).
    rows = np.stack([u, v], axis=1).ravel()
    cols = np.stack([v, u], axis=1).ravel()
    vals = np.repeat(w, 2)
    deg = np.zeros(n)
    np.subtract.at(deg, rows, vals)
    diag = np.arange(n)
    return from_coo(
        n,
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, deg + shift]),
    )


def grid_laplacian_2d(
    nx: int,
    ny: int,
    *,
    stencil: int = 5,
    shift: float = 1.0,
    rng: np.random.Generator | None = None,
) -> SparseMatrix:
    """SPD 5-point or 9-point Laplacian on an ``nx``-by-``ny`` grid.

    Vertices are numbered row-major (``idx = ix * ny + iy``).  ``shift``
    is added to the diagonal to keep the matrix positive definite;
    ``rng`` (optional) perturbs off-diagonal weights by up to 10% to
    avoid artificially symmetric numerics.
    """
    if stencil not in (5, 9):
        raise ValueError("stencil must be 5 or 9")
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    offsets = [(1, 0), (0, 1)]
    if stencil == 9:
        offsets += [(1, 1), (1, -1)]
    return _lattice_laplacian((nx, ny), offsets, shift, rng)


def grid_laplacian_3d(
    nx: int,
    ny: int,
    nz: int,
    *,
    stencil: int = 7,
    shift: float = 1.0,
    rng: np.random.Generator | None = None,
) -> SparseMatrix:
    """SPD 7-point or 27-point Laplacian on an ``nx * ny * nz`` grid.

    Vertices are numbered row-major (``idx = (ix * ny + iy) * nz + iz``).
    The 27-point variant couples all lattice neighbours within a unit
    Chebyshev distance, emulating the denser connectivity of hexahedral
    finite elements (the ``audikw_1`` / ``Flan_1565`` regime).
    """
    if stencil not in (7, 27):
        raise ValueError("stencil must be 7 or 27")
    if min(nx, ny, nz) < 1:
        raise ValueError("grid dimensions must be positive")
    if stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [
            (dx, dy, dz)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) > (0, 0, 0)
        ]
    return _lattice_laplacian((nx, ny, nz), offsets, shift, rng)


def random_spd_sparse(
    n: int,
    nnz_per_row: float,
    *,
    rng: np.random.Generator,
) -> SparseMatrix:
    """Random symmetric diagonally dominant matrix (test fodder).

    About ``nnz_per_row`` off-diagonal entries per row, symmetric pattern,
    diagonal set to ``sum |row| + 1`` so factorization never pivots.
    """
    m = int(max(0, round(n * nnz_per_row / 2)))
    i = rng.integers(0, n, m)
    j = rng.integers(0, n, m)
    keep = i != j
    i, j = i[keep], j[keep]
    v = rng.normal(size=len(i))
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    vals = np.concatenate([v, v])
    dense_deg = np.zeros(n)
    np.add.at(dense_deg, rows, np.abs(vals))
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, dense_deg + 1.0])
    return from_coo(n, rows, cols, vals)
