"""Integration: simulated parallel PSelInv vs the sequential oracle.

The strongest correctness statement in the repository: running the full
asynchronous message-driven protocol (diag-bcast, cross-send, col-bcast,
GEMM, row-reduce, col-reduce, cross-back) on any grid with any tree
scheme must reproduce the sequential Algorithm 1 blocks exactly.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.core.pselinv import gather_block
from repro.sparse import analyze, from_dense, supernodal_structure
from repro.sparse.factor import factorize
from repro.sparse.selinv import normalize, selected_inversion
from repro.workloads import dg_hamiltonian, grid_laplacian_2d, random_spd_sparse
from tests.conftest import random_symmetric_dense
from tests.test_supernodes import prepared


def make_problem(n, rng, ordering="amd"):
    a = random_symmetric_dense(n, 3.5, rng)
    prob = analyze(from_dense(a), ordering=ordering)
    fac_seq = factorize(prob.matrix, prob.struct)
    normalize(fac_seq)
    oracle = selected_inversion(fac_seq)
    fac_raw = factorize(prob.matrix, prob.struct)
    return prob, fac_raw, oracle.to_dense_at_structure()


@pytest.fixture(scope="module")
def fixed_problem():
    rng = np.random.default_rng(314159)
    return make_problem(70, rng)


SCHEMES = ["flat", "binary", "shifted", "randperm", "hybrid"]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestParallelMatchesSequential:
    def test_2x2(self, scheme, fixed_problem):
        prob, fac, want = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(2, 2), scheme, factor=fac, seed=1
        ).run()
        got = res.inverse.to_dense_at_structure()
        assert np.abs(got - want).max() < 1e-9

    def test_rectangular_grid(self, scheme, fixed_problem):
        prob, fac, want = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(4, 3), scheme, factor=fac, seed=2
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9

    def test_single_rank(self, scheme, fixed_problem):
        prob, fac, want = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(1, 1), scheme, factor=fac, seed=3
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9

    def test_tall_grid(self, scheme, fixed_problem):
        prob, fac, want = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(5, 1), scheme, factor=fac, seed=4
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9


class TestLookaheadWindow:
    @pytest.mark.parametrize("lookahead", [1, 2, 5, None])
    def test_any_window_is_exact(self, lookahead, fixed_problem):
        prob, fac, want = fixed_problem
        res = SimulatedPSelInv(
            prob.struct,
            ProcessorGrid(3, 2),
            "shifted",
            factor=fac,
            seed=7,
            lookahead=lookahead,
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9

    def test_small_window_does_not_deadlock(self, fixed_problem):
        prob, fac, _ = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(2, 3), "binary", factor=fac, lookahead=1
        ).run()
        assert res.makespan > 0

    def test_wider_window_is_not_slower(self, fixed_problem):
        # More pipelining can only help (same work, more overlap).
        prob, _, _ = fixed_problem
        grid = ProcessorGrid(3, 3)
        t_narrow = SimulatedPSelInv(
            prob.struct, grid, "shifted", lookahead=1, seed=5
        ).run().makespan
        t_wide = SimulatedPSelInv(
            prob.struct, grid, "shifted", lookahead=64, seed=5
        ).run().makespan
        assert t_wide <= t_narrow * 1.05


class TestLaplacianProblem:
    def test_2d_laplacian_parallel(self):
        prob = analyze(grid_laplacian_2d(8, 8), ordering="nd")
        fac_seq = factorize(prob.matrix, prob.struct)
        normalize(fac_seq)
        want = selected_inversion(fac_seq).to_dense_at_structure()
        fac = factorize(prob.matrix, prob.struct)
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(3, 3), "shifted", factor=fac
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9


class TestResultMetadata:
    def test_result_fields(self, fixed_problem):
        prob, fac, _ = fixed_problem
        res = SimulatedPSelInv(
            prob.struct, ProcessorGrid(2, 2), "flat", factor=fac
        ).run()
        assert res.numeric and res.scheme == "flat"
        assert res.makespan > 0 and res.events > 0
        assert res.compute_time > 0
        assert res.communication_time == pytest.approx(
            res.makespan - res.compute_time
        )

    def test_symbolic_mode_has_no_inverse(self, fixed_problem):
        prob, _, _ = fixed_problem
        res = SimulatedPSelInv(prob.struct, ProcessorGrid(2, 2), "flat").run()
        assert res.inverse is None and not res.numeric

    def test_instance_runs_once(self, fixed_problem):
        prob, _, _ = fixed_problem
        sim = SimulatedPSelInv(prob.struct, ProcessorGrid(2, 2), "flat")
        sim.run()
        with pytest.raises(RuntimeError, match="runs only once"):
            sim.run()

    def test_jitter_changes_makespan_not_results(self, fixed_problem):
        prob, fac, want = fixed_problem
        from repro.simulate import NetworkConfig

        cfg = NetworkConfig(jitter_sigma=0.4, cores_per_node=4)
        t = []
        for js in (1, 2):
            res = SimulatedPSelInv(
                prob.struct,
                ProcessorGrid(4, 4),
                "shifted",
                factor=fac,
                network=cfg,
                jitter_seed=js,
            ).run()
            t.append(res.makespan)
            assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9
        assert t[0] != t[1]


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=10, max_value=40),
    st.integers(0, 2**31 - 1),
    st.sampled_from(SCHEMES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_parallel_equals_sequential_property(n, seed, scheme, pr, pc):
    """Random matrix, random grid, any scheme: distributed == sequential."""
    rng = np.random.default_rng(seed)
    prob, fac, want = make_problem(n, rng)
    res = SimulatedPSelInv(
        prob.struct, ProcessorGrid(pr, pc), scheme, factor=fac, seed=seed & 0xFFFF
    ).run()
    assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-8


# sha256 of ``to_dense_at_structure().tobytes()`` for the run below,
# recorded with the np.searchsorted + np.ix_ gather that ``gather_block``
# replaced.  Any gather or accumulation-order change shows up here even
# when it stays within the oracle tolerance.  A BLAS that rounds its
# GEMMs differently yields other bytes; re-record the digest against the
# old gather on such a stack.
PINNED_DG_INVERSE_SHA256 = (
    "b1fe54839a9750d1d21844836176372c468ec4c016b39ce6c0bd9df889b36a2a"
)


@pytest.mark.parametrize("engine", ["legacy", "vectorized"])
def test_numeric_inverse_bytes_pinned(engine):
    a = dg_hamiltonian((5, 5), 4, rng=np.random.default_rng(0))
    prob = analyze(a, ordering="nd", max_supernode=8)
    fac = factorize(prob.matrix, prob.struct)
    res = SimulatedPSelInv(
        prob.struct, ProcessorGrid(2, 4), "shifted", factor=fac, seed=0,
        engine=engine,
    ).run()
    got = res.inverse.to_dense_at_structure().tobytes()
    assert hashlib.sha256(got).hexdigest() == PINNED_DG_INVERSE_SHA256


def _reference_rows(struct, k, i):
    """Rows of supernode ``i`` in ``rows_below[k]``, the wrapper way."""
    rows = struct.rows_below[k]
    lo = np.searchsorted(rows, struct.sn_ptr[i])
    hi = np.searchsorted(rows, struct.sn_ptr[i + 1])
    return rows[lo:hi]


def _reference_gather(struct, block, row_sn, col_sn, rows, cols):
    """The np.searchsorted + np.ix_ gather ``gather_block`` replaced."""
    if row_sn > col_sn:
        posr = np.searchsorted(_reference_rows(struct, col_sn, row_sn), rows)
        posc = cols - struct.first_col(col_sn)
    elif row_sn == col_sn:
        posr = rows - struct.first_col(row_sn)
        posc = cols - struct.first_col(row_sn)
    else:
        posr = rows - struct.first_col(row_sn)
        posc = np.searchsorted(_reference_rows(struct, row_sn, col_sn), cols)
    return block[np.ix_(posr, posc)]


def _stored_shape(struct, row_sn, col_sn):
    """Shape of the stored ``Ainv(row_sn, col_sn)`` block."""
    if row_sn > col_sn:
        return len(_reference_rows(struct, col_sn, row_sn)), struct.width(col_sn)
    if row_sn < col_sn:
        return struct.width(row_sn), len(_reference_rows(struct, row_sn, col_sn))
    return struct.width(row_sn), struct.width(row_sn)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=6, max_value=48),
    st.integers(0, 2**31 - 1),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([np.float64, np.complex128]),
    st.data(),
)
def test_gather_block_matches_ix_reference(n, seed, max_size, dtype, data):
    """Every GEMM operand ``Ainv(J,I)[rows(J in K), rows(I in K)]`` equals
    the old gather byte for byte (values, dtype, shape, C order), on the
    lower (J > I), diagonal (J == I) and upper (J < I) branch alike."""
    rng = np.random.default_rng(seed)
    struct = supernodal_structure(
        prepared(random_spd_sparse(n, 3.0, rng=rng)), max_size=max_size
    )
    ks = [k for k in range(struct.nsup) if len(struct.block_rows[k])]
    assume(ks)
    k = data.draw(st.sampled_from(ks), label="k")
    blocks = [int(x) for x in struct.block_rows[k]]
    i = data.draw(st.sampled_from(blocks), label="i")
    j = data.draw(st.sampled_from(blocks), label="j")
    for x in (i, j):
        rows = struct.block_row_indices(k, x)
        assert np.array_equal(rows, _reference_rows(struct, k, x))
        assert struct.block_row_count(k, x) == len(rows)
    for row_sn, col_sn in {(j, i), (i, j), (i, i)}:
        block = rng.standard_normal(_stored_shape(struct, row_sn, col_sn))
        block = block.astype(dtype)
        rows = _reference_rows(struct, k, row_sn)
        cols = _reference_rows(struct, k, col_sn)
        got = gather_block(struct, block, row_sn, col_sn, rows, cols)
        want = _reference_gather(struct, block, row_sn, col_sn, rows, cols)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
