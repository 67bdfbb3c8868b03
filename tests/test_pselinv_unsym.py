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
from repro.simulate import NetworkConfig
from repro.sparse import analyze, from_dense
from repro.sparse.factor import factorize
from repro.sparse.selinv import normalize, selected_inversion
from tests.conftest import random_symmetric_dense, random_unsymmetric_dense
from tests.digests import symbolic_outcome_digest


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


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
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


# Symbolic outcome digests of the configuration below: a jittered,
# multi-node network, so every scheme's tree shape and every window
# release order reaches the timestamps (``hybrid_threshold=3`` makes the
# hybrid trees differ from both flat and shifted on a 2x4 grid).
# Symbolic runs do no BLAS, so these do not depend on the numeric stack;
# any driver refactor must leave them unchanged.
PINNED_UNSYM_SYMBOLIC_DIGESTS = {
    ("flat", 1): "447d062bada5cbaca6d7e76f4c2b941cc84f4a9eae7f4b497d8af874bbc4708d",
    ("flat", 4): "bd7bbb0f68d29e03868d776a25218d77513388f29efb8cda64d608c6adac2818",
    ("flat", None): "b76d832d8ebee64127790a80c8af87e590b8500ef827ff702ce0106791028179",
    ("binary", 1): "16bf841c40b8e1584ffc9b9e701315e682103d128fb27619da1a3616841d599c",
    ("binary", 4): "a5d8a2d73377189e6859e1a720bafc56d31d13e3174f2e38c5e34bde9bc976d6",
    ("binary", None): "601d560b47e585391d3c5a04151b2089dcace417d0b43ef55b7ddd7f08066613",
    ("shifted", 1): "402332725a144510e65adbc374099736316d0e7f8bcdec7eecb1b9cbd81cf9e7",
    ("shifted", 4): "4134f5bd54c93d458206cd8abf2579cc31e7be5bb02fd3f10064920a2afc3d00",
    ("shifted", None): "c95cebf49eb346ad58e81b4dc0f8403cae0aa195ef7c66bfdea9d9cdcf1c669d",
    ("randperm", 1): "3a6d541148cd3ae763cc4763dc820695b08be3a113561890d7585b93c8e22413",
    ("randperm", 4): "a10cfe0654df3ba89f1b42ee8e1a35b8d630bcc3258bd1c4c341c710af1e1218",
    ("randperm", None): "6aae5bde4d40e7fc5608924b9bf7d3bfb46267b652719c2696af6c3e8e895636",
    ("hybrid", 1): "6e70262e47a76a2984eee50d494518e38719b75e71f8298ba32e5e2ef1d39aa4",
    ("hybrid", 4): "846ab5711c70d64bb08501037cb168268594b01566dd5c4f6b2ea043fd28f536",
    ("hybrid", None): "e84f2e825d90a9b5e5c67347f25a1ce5bcc0ef9ef665ca2d6339c2635d149208",
    ("binomial", 1): "cfdf190e20631eb406d0cdc642ac6c9a0aba8db54c389d4b998c151f6eb24a14",
    ("binomial", 4): "56f32bca77af6450627ed923278dee88c473c682c858a82b4e4566dc13d7911c",
    ("binomial", None): "5b8c0d83378ef653402ae14a7147765e38576329fbe09268b84fb8985594b27e",
}


@pytest.mark.parametrize("lookahead", [1, 4, None])
@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_unsym_symbolic_outcome_pinned(scheme, lookahead, digest_struct):
    net = NetworkConfig(cores_per_node=2, nodes_per_group=2, jitter_sigma=0.25)
    res = SimulatedPSelInvUnsym(
        digest_struct, ProcessorGrid(2, 4), scheme, network=net, seed=3,
        placement_seed=5, jitter_seed=11, lookahead=lookahead,
        hybrid_threshold=3,
    ).run()
    got = symbolic_outcome_digest(res)
    assert got == PINNED_UNSYM_SYMBOLIC_DIGESTS[(scheme, lookahead)]
