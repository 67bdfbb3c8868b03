"""Integration tests of simulator behaviours the experiments depend on."""

import numpy as np
import pytest

from repro.core import ProcessorGrid, SimulatedPSelInv, iter_plans
from repro.simulate import Machine, Network, NetworkConfig
from repro.sparse import analyze, from_dense
from tests.conftest import random_symmetric_dense


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(777)
    a = random_symmetric_dense(70, 4.0, rng)
    return analyze(from_dense(a), ordering="amd")


class TestFlatRootSerialization:
    """The paper's core mechanism: a flat root's sends serialize."""

    def test_fanout_time_scales_linearly(self):
        cfg = NetworkConfig(injection_overhead=1e-4, injection_bandwidth=1e12)
        times = {}
        for fanout in (4, 16):
            m = Machine(32, Network(32, cfg))
            last = []
            cid = m.category_id("x")
            for r in range(1, fanout + 1):
                m.send_pt(0, r, r, 8, cid, lambda d, p, a: last.append(m.now))
            m.run()
            times[fanout] = max(last)
        # 16 sends should take ~4x the NIC time of 4 sends.
        assert times[16] / times[4] == pytest.approx(4.0, rel=0.15)

    def test_reduce_root_ejection_serializes(self):
        cfg = NetworkConfig(ejection_bandwidth=1e6)  # 1 MB/s: 1s per MB
        m = Machine(8, Network(8, cfg))
        arrivals = []
        cid = m.category_id("x")
        for r in range(1, 8):
            m.send_pt(r, 0, r, 10**6, cid, lambda d, p, a: arrivals.append(m.now))
        m.run()
        arrivals.sort()
        gaps = np.diff(arrivals)
        # Back-to-back ejections: ~1 second between deliveries.
        assert (gaps > 0.9).all()


class TestPlacementAndJitterEffects:
    def test_placement_changes_makespan(self, problem):
        cfg = NetworkConfig(cores_per_node=4, nodes_per_group=2, jitter_sigma=0.3)
        grid = ProcessorGrid(4, 4)
        t = {
            ps: SimulatedPSelInv(
                problem.struct, grid, "shifted", network=cfg,
                placement_seed=ps, jitter_seed=1,
            ).run().makespan
            for ps in (1, 2)
        }
        assert t[1] != t[2]

    def test_intra_node_cheaper_than_inter_group(self):
        cfg = NetworkConfig(cores_per_node=4, nodes_per_group=2)
        net = Network(64, cfg)
        b = 10**5
        assert net.transit_time(0, 1, b) < net.transit_time(0, 63, b)


class TestSchemeInvariants:
    def test_event_count_is_scheme_independent(self, problem):
        """Trees reshape WHO forwards, not how many messages exist."""
        grid = ProcessorGrid(4, 4)
        plans = list(iter_plans(problem.struct, grid))
        counts = {
            s: SimulatedPSelInv(
                problem.struct, grid, s, plans=plans, seed=2
            ).run().events
            for s in ("flat", "binary", "shifted")
        }
        assert len(set(counts.values())) == 1, counts

    def test_makespan_positive_and_finite(self, problem):
        grid = ProcessorGrid(5, 5)
        res = SimulatedPSelInv(problem.struct, grid, "shifted").run()
        assert 0 < res.makespan < 10.0

    def test_max_events_guard_applies(self, problem):
        grid = ProcessorGrid(4, 4)
        sim = SimulatedPSelInv(problem.struct, grid, "flat")
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=10)


class TestTreeCacheGuard:
    def test_cross_config_reuse_rejected(self, problem):
        cache: dict = {}
        SimulatedPSelInv(
            problem.struct, ProcessorGrid(2, 2), "shifted", tree_cache=cache
        ).run()
        with pytest.raises(ValueError, match="different configuration"):
            SimulatedPSelInv(
                problem.struct, ProcessorGrid(3, 3), "shifted", tree_cache=cache
            )

    def test_hybrid_threshold_reuse_rejected(self, problem):
        # The threshold picks each hybrid tree's shape, so a cache built
        # at one threshold must not serve trees to another.
        cache: dict = {}
        grid = ProcessorGrid(4, 4)
        SimulatedPSelInv(
            problem.struct, grid, "hybrid", hybrid_threshold=2,
            tree_cache=cache,
        ).run()
        with pytest.raises(ValueError, match="different configuration"):
            SimulatedPSelInv(
                problem.struct, grid, "hybrid", hybrid_threshold=64,
                tree_cache=cache,
            )

    def test_same_config_reuse_accepted(self, problem):
        cache: dict = {}
        grid = ProcessorGrid(2, 2)
        a = SimulatedPSelInv(
            problem.struct, grid, "shifted", seed=5, tree_cache=cache,
            jitter_seed=0,
        ).run()
        b = SimulatedPSelInv(
            problem.struct, grid, "shifted", seed=5, tree_cache=cache,
            jitter_seed=1,
        ).run()
        assert a.events == b.events
