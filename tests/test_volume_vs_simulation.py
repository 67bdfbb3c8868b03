"""The analytic volume model and the simulator must agree byte-for-byte.

``communication_volumes`` computes per-rank counters combinatorially;
``SimulatedPSelInv`` counts real messages.  Exact equality across every
category and scheme pins the simulator's protocol to the plan spec --
any double-send, missed forward, or wrong tree shape breaks this test.
"""

import numpy as np
import pytest

from repro.core import ProcessorGrid, SimulatedPSelInv, communication_volumes
from repro.sparse import analyze, from_dense
from repro.workloads import make_workload
from tests.conftest import random_symmetric_dense

CATEGORIES = [
    "col-bcast",
    "row-reduce",
    "diag-bcast",
    "col-reduce",
    "cross-send",
    "cross-back",
]


@pytest.fixture(scope="module")
def workload_problem():
    m = make_workload("audikw_1", "tiny")
    return analyze(m, ordering="nd")


@pytest.mark.parametrize("scheme", ["flat", "binary", "shifted", "randperm", "hybrid"])
@pytest.mark.parametrize("grid_shape", [(4, 4), (3, 5), (6, 2)])
def test_volumes_match_simulation(workload_problem, scheme, grid_shape):
    grid = ProcessorGrid(*grid_shape)
    seed = 42
    res = SimulatedPSelInv(workload_problem.struct, grid, scheme, seed=seed).run()
    rep = communication_volumes(workload_problem.struct, grid, scheme, seed=seed)
    for kind in CATEGORIES:
        np.testing.assert_array_equal(
            res.stats.total_sent(kind),
            rep.sent.get(kind, np.zeros(grid.size)),
            err_msg=f"{scheme}/{kind}/sent",
        )
        np.testing.assert_array_equal(
            res.stats.total_received(kind),
            rep.received.get(kind, np.zeros(grid.size)),
            err_msg=f"{scheme}/{kind}/recv",
        )


def test_seed_changes_shifted_volumes(workload_problem):
    grid = ProcessorGrid(4, 4)
    r1 = communication_volumes(workload_problem.struct, grid, "shifted", seed=1)
    r2 = communication_volumes(workload_problem.struct, grid, "shifted", seed=2)
    assert not np.array_equal(r1.col_bcast_sent(), r2.col_bcast_sent())


def test_seed_does_not_change_flat_or_binary(workload_problem):
    grid = ProcessorGrid(4, 4)
    for scheme in ("flat", "binary"):
        r1 = communication_volumes(workload_problem.struct, grid, scheme, seed=1)
        r2 = communication_volumes(workload_problem.struct, grid, scheme, seed=2)
        np.testing.assert_array_equal(r1.total_sent(), r2.total_sent())


def test_total_volume_conserved_across_schemes(workload_problem):
    """Broadcast/reduce trees change WHO carries bytes, not how many bytes
    exist per edge count: total bytes = sum over collectives of
    (participants - 1) * nbytes for every scheme."""
    grid = ProcessorGrid(5, 3)
    totals = {}
    for scheme in ("flat", "binary", "shifted", "randperm"):
        rep = communication_volumes(workload_problem.struct, grid, scheme, seed=3)
        totals[scheme] = rep.total_sent().sum()
    vals = list(totals.values())
    assert all(v == vals[0] for v in vals), totals


def test_sent_equals_received_globally(workload_problem):
    grid = ProcessorGrid(4, 4)
    rep = communication_volumes(workload_problem.struct, grid, "shifted", seed=5)
    assert rep.total_sent().sum() == rep.total_received().sum()


def test_single_rank_grid_has_no_traffic(workload_problem):
    rep = communication_volumes(
        workload_problem.struct, ProcessorGrid(1, 1), "flat"
    )
    assert rep.total_sent().sum() == 0


def test_volume_report_accessors(workload_problem):
    grid = ProcessorGrid(4, 4)
    rep = communication_volumes(workload_problem.struct, grid, "flat")
    assert rep.col_bcast_sent().shape == (16,)
    assert rep.row_reduce_received().shape == (16,)
    hm = rep.heatmap("col-bcast", "sent")
    assert hm.shape == (4, 4)
    assert hm.sum() == rep.sent["col-bcast"].sum()
    # The Table-I aggregate includes the diagonal-block broadcasts.
    hm_total = rep.heatmap("col-bcast-total")
    assert hm_total.sum() == pytest.approx(
        rep.sent["col-bcast"].sum() + rep.sent["diag-bcast"].sum()
    )
    assert hm_total.sum() == pytest.approx(rep.col_bcast_sent().sum())


def test_exclude_cross_sends(workload_problem):
    grid = ProcessorGrid(4, 4)
    with_cross = communication_volumes(
        workload_problem.struct, grid, "flat", include_cross=True
    )
    without = communication_volumes(
        workload_problem.struct, grid, "flat", include_cross=False
    )
    assert "cross-send" in with_cross.sent
    assert "cross-send" not in without.sent
    np.testing.assert_array_equal(
        with_cross.col_bcast_sent(), without.col_bcast_sent()
    )


def test_random_matrix_parity(rng):
    """Parity on an irregular random problem, not just the workload."""
    a = random_symmetric_dense(60, 4.0, rng)
    prob = analyze(from_dense(a), ordering="amd")
    grid = ProcessorGrid(3, 4)
    res = SimulatedPSelInv(prob.struct, grid, "shifted", seed=9).run()
    rep = communication_volumes(prob.struct, grid, "shifted", seed=9)
    np.testing.assert_array_equal(
        res.stats.total_sent(),
        sum(rep.sent.values()),
    )


class TestCommunicatorCounts:
    """§III motivation: too many distinct groups for MPI communicators."""

    def test_counts_grow_with_grid(self, workload_problem):
        from repro.core import count_distinct_communicators

        c4 = count_distinct_communicators(
            workload_problem.struct, ProcessorGrid(4, 4)
        )
        c8 = count_distinct_communicators(
            workload_problem.struct, ProcessorGrid(8, 8)
        )
        assert c8["distinct_total"] > c4["distinct_total"]
        # Total collective count is grid-independent (one per plan entry).
        assert c8["collectives_total"] == c4["collectives_total"]

    def test_groups_exceed_single_row_column_count(self, workload_problem):
        """Far more distinct groups than the 2*P row+column communicators
        a static scheme could pre-create."""
        from repro.core import count_distinct_communicators

        grid = ProcessorGrid(6, 6)
        c = count_distinct_communicators(workload_problem.struct, grid)
        assert c["distinct_total"] > grid.pr + grid.pc

    def test_singletons_excluded(self, workload_problem):
        from repro.core import count_distinct_communicators

        c = count_distinct_communicators(
            workload_problem.struct, ProcessorGrid(1, 1)
        )
        assert c["distinct_total"] == 0
        assert c["collectives_total"] > 0

    @pytest.mark.parametrize("grid_shape", [(4, 4), (3, 5)])
    def test_unsymmetric_groups_classified_by_geometry(
        self, workload_problem, grid_shape
    ):
        """``col-ureduce`` runs within one grid column, so its groups are
        column groups; no participant set counts as both."""
        from repro.core import count_distinct_communicators
        from repro.core.plan_unsym import iter_unsym_plans

        grid = ProcessorGrid(*grid_shape)
        plans = list(iter_unsym_plans(workload_problem.struct, grid))
        c = count_distinct_communicators(
            workload_problem.struct, grid, plans=plans
        )
        cols = {
            spec.participants
            for plan in plans
            for spec in plan.collectives()
            if len(spec.participants) > 1
            and len({grid.coords(r)[1] for r in spec.participants}) == 1
        }
        assert any(
            spec.kind == "col-ureduce" and spec.participants in cols
            for plan in plans
            for spec in plan.collectives()
        )
        assert c["distinct_column_groups"] == len(cols)
        assert (
            c["distinct_column_groups"] + c["distinct_row_groups"]
            == c["distinct_total"]
        )
        if grid.pr == grid.pc:
            # audikw_1's pattern is symmetric: on a square grid the row
            # groups mirror the column groups.
            assert c["distinct_column_groups"] == c["distinct_row_groups"]


class TestMessageCounts:
    """§III: the tree cuts the root's per-collective sends p-1 -> <= 2,
    and the binomial baseline to ceil(log2 p)."""

    def test_max_degree_per_scheme(self, workload_problem):
        import math

        from repro.core import iter_plans

        grid = ProcessorGrid(8, 8)
        biggest = max(
            len(spec.participants)
            for plan in iter_plans(workload_problem.struct, grid)
            for spec in plan.col_bcasts
        )
        deg = {}
        for scheme in ("flat", "binary", "shifted", "binomial"):
            rep = communication_volumes(
                workload_problem.struct, grid, scheme, seed=4
            )
            deg[scheme] = rep.max_degree["col-bcast"]
        # Flat root serves the whole group; trees cap at 2; binomial at
        # ceil(log2 p).
        assert deg["flat"] == biggest - 1
        assert deg["binary"] <= 2
        assert deg["shifted"] <= 2
        assert deg["binomial"] <= math.ceil(math.log2(biggest))

    def test_total_messages_equal_across_schemes(self, workload_problem):
        """Trees redistribute messages; the total stays (p-1) per
        collective for every scheme."""
        grid = ProcessorGrid(6, 6)
        totals = set()
        for scheme in ("flat", "binary", "shifted"):
            rep = communication_volumes(
                workload_problem.struct, grid, scheme, seed=4
            )
            totals.add(sum(arr.sum() for arr in rep.messages.values()))
        assert len(totals) == 1

    def test_message_counts_match_simulation(self, workload_problem):
        grid = ProcessorGrid(4, 4)
        scheme = "shifted"
        res = SimulatedPSelInv(
            workload_problem.struct, grid, scheme, seed=21
        ).run()
        rep = communication_volumes(
            workload_problem.struct, grid, scheme, seed=21
        )
        for kind in ("col-bcast", "row-reduce", "diag-bcast"):
            np.testing.assert_array_equal(
                res.stats.messages_sent.get(kind, np.zeros(grid.size)),
                rep.messages.get(kind, np.zeros(grid.size)),
                err_msg=kind,
            )
