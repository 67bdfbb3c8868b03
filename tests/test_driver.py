"""Tests for the analysis driver pipeline (repro.sparse.driver)."""

import numpy as np
import pytest

from repro.sparse import analyze, elimination_tree, from_dense, selinv_sequential
from repro.sparse.etree import is_postordered
from repro.workloads import make_workload
from tests.conftest import random_symmetric_dense, random_unsymmetric_dense


class TestAnalyze:
    def test_result_is_topologically_ordered(self, rng):
        a = random_symmetric_dense(40, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        assert is_postordered(prob.parent)

    def test_perm_maps_back_to_original(self, rng):
        a = random_symmetric_dense(35, 3.0, rng)
        prob = analyze(from_dense(a), ordering="nd")
        d = prob.matrix.to_dense()
        np.testing.assert_allclose(d, a[np.ix_(prob.perm, prob.perm)])

    def test_explicit_permutation_accepted(self, rng):
        a = random_symmetric_dense(30, 3.0, rng)
        perm = rng.permutation(30)
        prob = analyze(from_dense(a), ordering=perm)
        # The composite perm must still be a permutation of range(n).
        assert np.array_equal(np.sort(prob.perm), np.arange(30))

    @pytest.mark.parametrize("ordering", ["amd", "nd", "rcm", "natural", "random"])
    def test_parent_is_the_etree_of_the_matrix(self, rng, ordering):
        """The relabelled first tree is the permuted matrix's own tree."""
        for a in (
            from_dense(random_symmetric_dense(40, 2.0, rng)),
            from_dense(random_unsymmetric_dense(33, 2.5, rng)),
            make_workload("audikw_1", "tiny"),
        ):
            order = rng.permutation(a.n) if ordering == "random" else ordering
            prob = analyze(a, ordering=order)
            want = elimination_tree(prob.matrix)
            assert prob.parent.dtype == want.dtype
            assert np.array_equal(prob.parent, want)

    def test_unknown_ordering_rejected(self, rng):
        a = random_symmetric_dense(10, 2.0, rng)
        with pytest.raises(ValueError, match="unknown ordering"):
            analyze(from_dense(a), ordering="metis")

    def test_unsymmetric_input_symmetrized(self, rng):
        a = random_unsymmetric_dense(30, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        assert prob.matrix.is_structurally_symmetric()
        # Values of A preserved at original positions.
        inv_perm = np.empty(30, dtype=int)
        inv_perm[prob.perm] = np.arange(30)
        d = prob.matrix.to_dense()
        orig = np.nonzero(a)
        for i, j in zip(*orig):
            assert d[inv_perm[i], inv_perm[j]] == a[i, j]

    def test_max_supernode_respected(self, rng):
        a = random_symmetric_dense(60, 5.0, rng)
        prob = analyze(from_dense(a), ordering="amd", max_supernode=4)
        assert prob.struct.widths().max() <= 4

    def test_validate_flag(self, rng):
        a = random_symmetric_dense(25, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd", validate=True)
        assert prob.n == 25

    def test_stats_fields(self, small_problem):
        st = small_problem.stats()
        for key in ("n", "nnz_a", "nnz_lu", "nnz_l", "nsup", "fill_ratio"):
            assert key in st
        assert st["nnz_lu"] == 2 * st["nnz_l"] - st["n"]

    def test_norelax_gives_finer_partition(self, rng):
        a = random_symmetric_dense(50, 3.0, rng)
        m = from_dense(a)
        fine = analyze(m, ordering="amd", relax=False)
        coarse = analyze(m, ordering="amd", relax=True)
        assert fine.struct.nsup >= coarse.struct.nsup


class TestSelinvSequentialDriver:
    def test_returns_consistent_pair(self, small_problem):
        factor, inv = selinv_sequential(small_problem)
        assert factor.struct is small_problem.struct
        assert inv.struct is small_problem.struct

    def test_roundtrip_through_permutation(self, rng):
        """Selected entries, mapped back to the ORIGINAL indices, match
        the dense inverse of the original matrix."""
        a = random_symmetric_dense(30, 3.0, rng)
        prob = analyze(from_dense(a), ordering="amd")
        _, inv = selinv_sequential(prob)
        dense_inv_orig = np.linalg.inv(a)
        rr, cc = inv.stored_positions()
        vals = inv.to_dense_at_structure()[rr, cc]
        # permuted index -> original index
        orr = prob.perm[rr]
        occ = prob.perm[cc]
        err = np.abs(vals - dense_inv_orig[orr, occ]).max()
        assert err < 1e-9
