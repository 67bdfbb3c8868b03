"""Tier-1 perf smoke test: the vectorized engine must actually engage.

Not a benchmark -- the wall-clock budget is deliberately generous (an
order of magnitude above observed time) so the test only fails when the
fast path silently falls back to per-collective work or a refactor
reintroduces a quadratic loop.  The counter assertions catch the
sneakier failure modes: the volume engine quietly delegating to the
reference oracle or building trees through the structure cache, and the
simulator's trees not being cached at all.
"""

import time

import pytest

from repro.comm.trees import tree_cache_clear, tree_cache_info
from repro.core import ProcessorGrid, communication_volumes
from repro.core.plan import iter_plans
from repro.core.volume import reset_volume_engine_stats, volume_engine_stats
from repro.sparse import analyze
from repro.workloads import make_workload

# Generous: the computation below takes well under a second on any
# machine this repo targets.
WALL_BUDGET_SECONDS = 20.0


@pytest.fixture(scope="module")
def problem():
    return analyze(make_workload("audikw_1", "tiny"), ordering="nd")


def test_volume_engine_fast_path_engaged(problem):
    tree_cache_clear()
    reset_volume_engine_stats()
    grid = ProcessorGrid(6, 6)
    before = tree_cache_info()

    t0 = time.perf_counter()
    for scheme in ("flat", "binary", "shifted", "randperm"):
        for seed in (1, 2):
            communication_volumes(problem.struct, grid, scheme, seed=seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < WALL_BUDGET_SECONDS, (
        f"volume computation took {elapsed:.1f}s -- vectorized path "
        "regressed or is not being taken"
    )

    stats = volume_engine_stats()
    # The vectorized engine ran (and the reference oracle did not).
    assert stats["vectorized_calls"] == 8
    assert stats["reference_calls"] == 0
    ncoll = sum(
        1 for plan in iter_plans(problem.struct, grid) for _ in plan.collectives()
    )
    assert stats["collectives"] == 8 * ncoll > 0
    # Volume calls charge edges from positional slot arrays: they never
    # consult the tree-structure cache.
    assert tree_cache_info() == before, "volume engine touched the tree cache"


def test_des_trees_share_the_cache(problem):
    """The simulator's build_tree calls go through the same cache."""
    from repro.core import SimulatedPSelInv

    tree_cache_clear()
    grid = ProcessorGrid(4, 4)
    SimulatedPSelInv(problem.struct, grid, "shifted", seed=3).run()
    first = tree_cache_info()
    assert first["misses"] > 0
    SimulatedPSelInv(problem.struct, grid, "shifted", seed=3).run()
    assert tree_cache_info()["hits"] > first["hits"]
