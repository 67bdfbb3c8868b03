"""Tests for the unsymmetric simulated PSelInv (the paper's future work).

Exactness against the sequential unsymmetric oracle is the headline; the
rest pins the mirrored plan structure (row broadcasts, column reductions,
doubled diagonal broadcasts, no cross-backs).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.trees import TREE_SCHEMES
from repro.core import (
    ProcessorGrid,
    SimulatedPSelInvUnsym,
    iter_unsym_plans,
    run_pselinv_unsym,
    unsym_supernode_plan,
)
from repro.sparse import analyze, from_dense
from repro.sparse.factor import factorize
from repro.sparse.selinv import normalize, selected_inversion
from tests.conftest import random_symmetric_dense, random_unsymmetric_dense


def make_problem(n, rng):
    a = random_unsymmetric_dense(n, 3.5, rng)
    prob = analyze(from_dense(a), ordering="amd")
    fs = factorize(prob.matrix, prob.struct)
    normalize(fs)
    want = selected_inversion(fs).to_dense_at_structure()
    raw = factorize(prob.matrix, prob.struct)
    return prob, raw, want


@pytest.fixture(scope="module")
def unsym_problem():
    return make_problem(65, np.random.default_rng(271828))


SCHEMES = ["flat", "binary", "shifted", "randperm", "hybrid"]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestUnsymMatchesOracle:
    def test_square_grid(self, scheme, unsym_problem):
        prob, raw, want = unsym_problem
        res = SimulatedPSelInvUnsym(
            prob.struct, ProcessorGrid(3, 3), scheme, factor=raw, seed=6
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9

    def test_rectangular_grid(self, scheme, unsym_problem):
        prob, raw, want = unsym_problem
        res = SimulatedPSelInvUnsym(
            prob.struct, ProcessorGrid(2, 5), scheme, factor=raw, seed=7
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9


class TestUnsymWindowing:
    @pytest.mark.parametrize("lookahead", [1, 3, None])
    def test_windows_are_exact(self, lookahead, unsym_problem):
        prob, raw, want = unsym_problem
        res = SimulatedPSelInvUnsym(
            prob.struct, ProcessorGrid(4, 2), "shifted", factor=raw,
            lookahead=lookahead,
        ).run()
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9


class TestUnsymOnSymmetricInput:
    def test_agrees_with_symmetric_protocol(self, rng):
        """On a symmetric matrix both protocols must produce the same
        inverse (different communication, same math)."""
        from repro.core import SimulatedPSelInv

        a = random_symmetric_dense(50, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        raw = factorize(prob.matrix, prob.struct)
        grid = ProcessorGrid(3, 3)
        r_sym = SimulatedPSelInv(prob.struct, grid, "shifted", factor=raw).run()
        r_uns = SimulatedPSelInvUnsym(
            prob.struct, grid, "shifted", factor=raw
        ).run()
        np.testing.assert_allclose(
            r_sym.inverse.to_dense_at_structure(),
            r_uns.inverse.to_dense_at_structure(),
            atol=1e-10,
        )

    def test_unsym_moves_more_bytes(self, rng):
        """The U side carries real data, so total traffic roughly doubles
        vs the symmetric algorithm's transposed reuse."""
        from repro.core import SimulatedPSelInv

        a = random_symmetric_dense(50, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        grid = ProcessorGrid(3, 3)
        t_sym = SimulatedPSelInv(prob.struct, grid, "flat").run()
        t_uns = SimulatedPSelInvUnsym(prob.struct, grid, "flat").run()
        assert t_uns.stats.total_sent().sum() > t_sym.stats.total_sent().sum()


class TestUnsymPlan:
    def test_mirrored_collectives_present(self, unsym_problem):
        prob, _, _ = unsym_problem
        grid = ProcessorGrid(3, 3)
        kinds = set()
        for plan in iter_unsym_plans(prob.struct, grid):
            for spec in plan.collectives():
                kinds.add(spec.kind)
        assert {
            "diag-bcast",
            "diag-rbcast",
            "col-bcast",
            "row-bcast",
            "row-reduce",
            "col-ureduce",
            "diag-rreduce",
        } <= kinds

    def test_row_bcast_stays_in_grid_row(self, unsym_problem):
        prob, _, _ = unsym_problem
        grid = ProcessorGrid(3, 4)
        for plan in iter_unsym_plans(prob.struct, grid):
            for spec in plan.row_bcasts:
                i = spec.key[2]
                rows = {grid.coords(r)[0] for r in spec.participants}
                assert rows == {i % grid.pr}

    def test_col_ureduce_stays_in_grid_col(self, unsym_problem):
        prob, _, _ = unsym_problem
        grid = ProcessorGrid(3, 4)
        for plan in iter_unsym_plans(prob.struct, grid):
            for spec in plan.col_ureduces:
                j = spec.key[2]
                cols = {grid.coords(r)[1] for r in spec.participants}
                assert cols == {j % grid.pc}

    def test_empty_supernode(self, unsym_problem):
        prob, _, _ = unsym_problem
        grid = ProcessorGrid(2, 2)
        plan = unsym_supernode_plan(prob.struct, grid, prob.struct.nsup - 1)
        assert plan.blocks == [] and plan.diag_rreduce is None


class TestUnsymComplex:
    def test_complex_unsymmetric(self):
        rng = np.random.default_rng(5)
        n = 40
        a = np.zeros((n, n), dtype=complex)
        for _ in range(3 * n):
            i, j = rng.integers(0, n, 2)
            a[i, j] += rng.normal() + 1j * rng.normal()
        a += np.diag(
            np.abs(a).sum(axis=1) + np.abs(a).sum(axis=0) + 1.0
        )
        prob = analyze(from_dense(a), ordering="amd")
        fs = factorize(prob.matrix, prob.struct)
        normalize(fs)
        want = selected_inversion(fs).to_dense_at_structure()
        raw = factorize(prob.matrix, prob.struct)
        res = run_pselinv_unsym(
            prob.struct, ProcessorGrid(2, 3), "shifted", factor=raw
        )
        assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-9


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=12, max_value=40),
    st.integers(0, 2**31 - 1),
    st.sampled_from(TREE_SCHEMES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_unsym_parallel_equals_sequential_property(n, seed, scheme, pr, pc):
    rng = np.random.default_rng(seed)
    prob, raw, want = make_problem(n, rng)
    res = SimulatedPSelInvUnsym(
        prob.struct, ProcessorGrid(pr, pc), scheme, factor=raw,
        seed=seed & 0xFFFF,
    ).run()
    assert np.abs(res.inverse.to_dense_at_structure() - want).max() < 1e-8


# sha256 of ``to_dense_at_structure().tobytes()`` for the run below,
# recorded with the np.searchsorted + np.ix_ gather that ``gather_block``
# replaced.  A BLAS that rounds its GEMMs differently yields other
# bytes; re-record the digest against the old gather on such a stack.
PINNED_UNSYM_INVERSE_SHA256 = (
    "48777e0fa12dbef761f4caa4cd5230b8a5577e2e6cd6b968c51ef8678de5f922"
)


def test_unsym_numeric_inverse_bytes_pinned():
    a = random_unsymmetric_dense(60, 3.5, np.random.default_rng(1708))
    prob = analyze(from_dense(a), ordering="amd", max_supernode=8)
    raw = factorize(prob.matrix, prob.struct)
    res = SimulatedPSelInvUnsym(
        prob.struct, ProcessorGrid(2, 4), "shifted", factor=raw, seed=0
    ).run()
    got = res.inverse.to_dense_at_structure().tobytes()
    assert hashlib.sha256(got).hexdigest() == PINNED_UNSYM_INVERSE_SHA256


class TestUnsymVolumeParity:
    """The analytic volume model must also match the unsymmetric DES."""

    def test_volumes_match_simulation(self, unsym_problem):
        from repro.core import communication_volumes

        prob, _, _ = unsym_problem
        grid = ProcessorGrid(3, 4)
        plans = list(iter_unsym_plans(prob.struct, grid))
        for scheme in ("flat", "shifted"):
            res = SimulatedPSelInvUnsym(
                prob.struct, grid, scheme, seed=13, plans=plans
            ).run()
            rep = communication_volumes(
                prob.struct, grid, scheme, seed=13, plans=plans
            )
            for kind in (
                "col-bcast",
                "row-bcast",
                "row-reduce",
                "col-ureduce",
                "diag-bcast",
                "diag-rbcast",
                "diag-rreduce",
                "cross-l2u",
                "cross-u2l",
            ):
                np.testing.assert_array_equal(
                    res.stats.total_sent(kind),
                    rep.sent.get(kind, np.zeros(grid.size)),
                    err_msg=f"{scheme}/{kind}",
                )
