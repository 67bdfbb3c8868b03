"""Tests for the synthetic workload generators."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.sparse import analyze, from_coo
from repro.workloads import (
    WORKLOADS,
    dg_hamiltonian,
    grid_laplacian_2d,
    grid_laplacian_3d,
    make_workload,
    random_spd_sparse,
    workload_names,
)


class TestLaplacians:
    def test_2d_shape_and_symmetry(self):
        m = grid_laplacian_2d(5, 7)
        assert m.n == 35
        assert m.is_structurally_symmetric()
        d = m.to_dense()
        np.testing.assert_allclose(d, d.T)

    def test_2d_5pt_degree(self):
        m = grid_laplacian_2d(4, 4, stencil=5)
        # Interior vertex has 4 neighbours + diagonal.
        counts = np.diff(m.indptr)
        assert counts.max() == 5

    def test_2d_9pt_denser(self):
        m5 = grid_laplacian_2d(6, 6, stencil=5)
        m9 = grid_laplacian_2d(6, 6, stencil=9)
        assert m9.nnz > m5.nnz

    def test_3d_7pt(self):
        m = grid_laplacian_3d(3, 4, 5)
        assert m.n == 60
        assert m.is_structurally_symmetric()

    def test_3d_27pt_denser(self):
        m7 = grid_laplacian_3d(4, 4, 4, stencil=7)
        m27 = grid_laplacian_3d(4, 4, 4, stencil=27)
        assert m27.nnz > 2 * m7.nnz

    def test_diagonal_dominance(self):
        rng = np.random.default_rng(1)
        for m in (
            grid_laplacian_2d(5, 5, rng=rng),
            grid_laplacian_3d(3, 3, 3, rng=rng),
        ):
            d = m.to_dense()
            off = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
            assert np.all(np.diag(d) >= off - 1e-12)

    def test_invalid_stencils(self):
        with pytest.raises(ValueError):
            grid_laplacian_2d(3, 3, stencil=7)
        with pytest.raises(ValueError):
            grid_laplacian_3d(3, 3, 3, stencil=9)

    def test_1x1_grid(self):
        m = grid_laplacian_2d(1, 1)
        assert m.n == 1 and m.nnz == 1

    def test_rng_perturbs_values_not_pattern(self):
        a = grid_laplacian_2d(4, 4)
        b = grid_laplacian_2d(4, 4, rng=np.random.default_rng(7))
        assert np.array_equal(a.indices, b.indices)
        assert not np.allclose(a.data, b.data)


# sha256 of (indptr, indices, data) -- dtype, shape and bytes of each --
# recorded with the per-edge loop the whole-array generators replaced:
# the edge order, one weight draw per edge in that order and each
# vertex's degree summation order are all part of the matrix bytes.
PINNED_LAPLACIAN_SHA256 = {
    "audikw_1-small": (
        "b83362ed43b0f4fb64fa7f5403d18f55f7ec33e08f36a5f25fe3b9ce0ce2ae53"
    ),
    "2d-9pt-9x7-rng5": (
        "ab40bffc3ff60b4d24bab4c142a8dfc71d54b17071b0791d8fc19cd2f37af6f5"
    ),
}


def _matrix_digest(m) -> str:
    h = hashlib.sha256()
    for arr in (m.indptr, m.indices, m.data):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_LAPLACIAN_SHA256))
def test_laplacian_bytes_pinned(case):
    if case == "audikw_1-small":
        m = make_workload("audikw_1", "small")
    else:
        m = grid_laplacian_2d(9, 7, stencil=9, rng=np.random.default_rng(5))
    assert _matrix_digest(m) == PINNED_LAPLACIAN_SHA256[case]


def _loop_laplacian(shape, stencil, rng):
    """The per-edge loop: vertices row-major, offsets in order, one
    weight draw per edge, degrees summed edge by edge."""
    if len(shape) == 2:
        offsets = [(1, 0), (0, 1)] + ([(1, 1), (1, -1)] if stencil == 9 else [])
    elif stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=3) if o > (0, 0, 0)]
    n = int(np.prod(shape))
    rows, cols, vals = [], [], []
    deg = np.zeros(n)
    for c in itertools.product(*map(range, shape)):
        u = int(np.ravel_multi_index(c, shape))
        for off in offsets:
            nb = tuple(a + b for a, b in zip(c, off))
            if all(0 <= x < d for x, d in zip(nb, shape)):
                v = int(np.ravel_multi_index(nb, shape))
                w = -1.0 if rng is None else -1.0 - 0.1 * rng.random()
                rows += [u, v]
                cols += [v, u]
                vals += [w, w]
                deg[u] -= w
                deg[v] -= w
    return from_coo(n, rows + list(range(n)), cols + list(range(n)),
                    vals + list(deg + 1.0))


@pytest.mark.parametrize("seed", [None, 11])
@pytest.mark.parametrize(
    "shape,stencil",
    [((1, 1), 5), ((1, 6), 9), ((5, 4), 5), ((6, 5), 9),
     ((1, 1, 3), 27), ((3, 4, 2), 7), ((4, 3, 5), 27)],
)
def test_laplacian_matches_per_edge_loop(shape, stencil, seed):
    rngs = [None if seed is None else np.random.default_rng(seed) for _ in "ab"]
    gen = grid_laplacian_2d if len(shape) == 2 else grid_laplacian_3d
    got = gen(*shape, stencil=stencil, rng=rngs[0])
    want = _loop_laplacian(shape, stencil, rngs[1])
    assert _matrix_digest(got) == _matrix_digest(want)
    if seed is not None:
        # Both consumed one draw per edge.
        assert rngs[0].random() == rngs[1].random()


class TestDG:
    def test_block_structure(self):
        m = dg_hamiltonian((3, 3), 6)
        assert m.n == 54
        assert m.is_structurally_symmetric()
        # The local block of an element must be fully dense.
        d = m.to_dense()
        assert np.all(d[:6, :6] != 0)

    def test_3d_elements(self):
        m = dg_hamiltonian((2, 2, 2), 4)
        assert m.n == 32
        assert m.is_structurally_symmetric()

    def test_denser_with_more_hops(self):
        m1 = dg_hamiltonian((4, 4), 5, neighbor_hops=1)
        m2 = dg_hamiltonian((4, 4), 5, neighbor_hops=2)
        assert m2.nnz > m1.nnz

    def test_values_symmetric(self):
        m = dg_hamiltonian((3, 2), 5)
        d = m.to_dense()
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_diagonally_dominant(self):
        d = dg_hamiltonian((2, 3), 7).to_dense()
        off = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
        assert np.all(np.diag(d) >= off)

    def test_dg_is_factorizable(self):
        m = dg_hamiltonian((3, 3), 5)
        prob = analyze(m, ordering="nd")
        from repro.sparse import selinv_sequential

        _, inv = selinv_sequential(prob)
        dense_inv = np.linalg.inv(prob.matrix.to_dense())
        rr, cc = inv.stored_positions()
        err = np.abs(inv.to_dense_at_structure()[rr, cc] - dense_inv[rr, cc]).max()
        assert err < 1e-8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dg_hamiltonian((2,), 4)
        with pytest.raises(ValueError):
            dg_hamiltonian((2, 2), 0)


class TestRandomSpd:
    def test_is_symmetric_and_dominant(self, rng):
        m = random_spd_sparse(50, 4.0, rng=rng)
        assert m.is_structurally_symmetric()
        d = m.to_dense()
        off = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
        assert np.all(np.diag(d) > off - 1e-12)


class TestRegistry:
    def test_all_names_present(self):
        assert set(workload_names()) == set(WORKLOADS)

    def test_paper_metadata_recorded(self):
        w = WORKLOADS["audikw_1"]
        assert w.paper_n == 943_695
        assert w.paper_nnz_a == 77_651_847
        assert w.regime == "sparse"
        assert WORKLOADS["DG_PNF14000"].regime == "dense"

    @pytest.mark.parametrize("name", workload_names())
    def test_tiny_scale_generates(self, name):
        m = make_workload(name, "tiny")
        assert m.n > 0
        assert m.is_structurally_symmetric()

    def test_density_regimes_differ(self):
        dense = make_workload("DG_PNF14000", "tiny")
        sparse = make_workload("audikw_1", "tiny")
        assert dense.nnz / dense.n**2 > 5 * sparse.nnz / sparse.n**2

    def test_seed_reproducible(self):
        a = make_workload("audikw_1", "tiny", seed=5)
        b = make_workload("audikw_1", "tiny", seed=5)
        np.testing.assert_allclose(a.data, b.data)

    def test_unknown_name_and_scale(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("nope")
        with pytest.raises(ValueError, match="unknown scale"):
            WORKLOADS["audikw_1"].make("huge")
