"""Tests for the 2D processor grid and the communication plan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BYTES_PER_ENTRY,
    ProcessorGrid,
    iter_plans,
    square_grids,
    supernode_plan,
)
from repro.sparse import analyze, from_dense
from tests.conftest import random_symmetric_dense


class TestProcessorGrid:
    def test_rank_coords_roundtrip(self):
        g = ProcessorGrid(4, 3)
        for r in range(g.size):
            row, col = g.coords(r)
            assert g.rank(row, col) == r

    def test_row_major_numbering(self):
        # Fig. 1(a): ranks walk along grid rows.
        g = ProcessorGrid(4, 3)
        assert g.rank(0, 0) == 0
        assert g.rank(0, 2) == 2
        assert g.rank(1, 0) == 3

    def test_block_cyclic_owner(self):
        g = ProcessorGrid(2, 3)
        assert g.owner(0, 0) == 0
        assert g.owner(2, 3) == g.owner(0, 0)
        assert g.owner(1, 4) == g.rank(1, 1)

    def test_row_and_col_groups(self):
        g = ProcessorGrid(3, 4)
        assert np.array_equal(g.row_ranks(1), [4, 5, 6, 7])
        assert np.array_equal(g.col_ranks(2), [2, 6, 10])

    @pytest.mark.parametrize(
        "method, index",
        [("col_ranks", 4), ("col_ranks", -1), ("row_ranks", 3), ("row_ranks", -1)],
    )
    def test_row_and_col_groups_range_checked(self, method, index):
        # Unchecked, col_ranks(4) on a 3x4 grid was [4, 8] (column 0
        # without rank 0), row_ranks(3) ranks 12-15 and row_ranks(-1)
        # negative ranks.
        with pytest.raises(ValueError, match="out of range"):
            getattr(ProcessorGrid(3, 4), method)(index)

    def test_heatmap_reshape(self):
        g = ProcessorGrid(2, 3)
        hm = g.volume_heatmap(np.arange(6))
        assert hm.shape == (2, 3)
        assert hm[1, 2] == 5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 3)
        g = ProcessorGrid(2, 2)
        with pytest.raises(ValueError):
            g.rank(2, 0)
        with pytest.raises(ValueError):
            g.coords(4)
        with pytest.raises(ValueError):
            g.volume_heatmap(np.zeros(3))

    def test_square_grids(self):
        grids = square_grids(150)
        assert [g.size for g in grids] == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144]


@pytest.fixture(scope="module")
def plan_problem():
    rng = np.random.default_rng(99)
    a = random_symmetric_dense(70, 4.0, rng)
    return analyze(from_dense(a), ordering="amd")


class TestSupernodePlan:
    def test_plan_covers_every_supernode(self, plan_problem):
        grid = ProcessorGrid(3, 3)
        plans = list(iter_plans(plan_problem.struct, grid))
        assert len(plans) == plan_problem.struct.nsup
        assert [p.k for p in plans] == list(range(plan_problem.struct.nsup))

    def test_block_sizes_match_structure(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(2, 3)
        for plan in iter_plans(struct, grid):
            for b in plan.blocks:
                assert b.nrows == struct.block_row_count(plan.k, b.snode)
                assert b.nrows > 0

    def test_colbcast_roots_and_participants(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(3, 2)
        for plan in iter_plans(struct, grid):
            k = plan.k
            c_rows = {b.snode % grid.pr for b in plan.blocks}
            for spec in plan.col_bcasts:
                i = spec.key[2]
                # Root owns U(K, I).
                assert spec.root == grid.owner(k, i)
                # All participants sit in grid column i mod pc.
                for r in spec.participants:
                    _, col = grid.coords(r)
                    assert col == i % grid.pc
                # Participants are exactly the Ainv block owners + root.
                want = {grid.rank(jr, i % grid.pc) for jr in c_rows}
                want.add(spec.root)
                assert set(spec.participants) == want

    def test_rowreduce_roots_and_participants(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(3, 2)
        for plan in iter_plans(struct, grid):
            k = plan.k
            c_cols = {b.snode % grid.pc for b in plan.blocks}
            for spec in plan.row_reduces:
                j = spec.key[2]
                assert spec.root == grid.owner(j, k)
                for r in spec.participants:
                    row, _ = grid.coords(r)
                    assert row == j % grid.pr
                want = {grid.rank(j % grid.pr, c) for c in c_cols}
                want.add(spec.root)
                assert set(spec.participants) == want

    def test_message_sizes(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(2, 2)
        for plan in iter_plans(struct, grid):
            s = plan.width
            for spec in plan.col_bcasts:
                i = spec.key[2]
                ri = struct.block_row_count(plan.k, i)
                assert spec.nbytes == s * ri * BYTES_PER_ENTRY
            if plan.diag_bcast is not None:
                assert plan.diag_bcast.nbytes == s * s * BYTES_PER_ENTRY

    def test_cross_send_endpoints(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(3, 3)
        for plan in iter_plans(struct, grid):
            k = plan.k
            for p2p in plan.cross_sends:
                i = p2p.key[2]
                assert p2p.src == grid.owner(i, k)  # L(I,K) owner
                assert p2p.dst == grid.owner(k, i)  # U(K,I) owner

    def test_empty_supernode_plan(self, plan_problem):
        struct = plan_problem.struct
        grid = ProcessorGrid(2, 2)
        last = supernode_plan(struct, grid, struct.nsup - 1)
        # The final (root) supernode has no ancestors.
        assert last.blocks == []
        assert last.diag_bcast is None
        assert last.col_reduce is None

    def test_single_rank_grid(self, plan_problem):
        # On a 1x1 grid every collective degenerates to one rank.
        struct = plan_problem.struct
        grid = ProcessorGrid(1, 1)
        for plan in iter_plans(struct, grid):
            for spec in plan.collectives():
                assert spec.participants == (0,)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(0, 2**31 - 1),
)
def test_plan_participants_within_grid_property(pr, pc, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric_dense(30, 3.0, rng)
    prob = analyze(from_dense(a), ordering="amd")
    grid = ProcessorGrid(pr, pc)
    for plan in iter_plans(prob.struct, grid):
        for spec in plan.collectives():
            assert all(0 <= r < grid.size for r in spec.participants)
            assert spec.root in spec.participants
            assert spec.nbytes > 0
