"""Compact set-up state: shared rank ints, shared participant tuples, and
trees without a position map.

The planner's output must not change by a byte (the sha256 pins below
were recorded before the compaction), while the plans share one int
object per rank and one tuple per distinct participant set.
"""

import dataclasses
import gc
import hashlib
import tracemalloc

import pytest

from repro.core import (
    BlockInfo,
    CollectiveSpec,
    PointToPointSpec,
    ProcessorGrid,
    SimulatedPSelInv,
    iter_plans,
    iter_unsym_plans,
    supernode_plan,
    unsym_supernode_plan,
)
from repro.core import plan as plan_mod
from repro.core import plan_unsym as plan_unsym_mod
from repro.runner import cache as runner_cache

# sha256 of repr(list(iter_plans(...))) / repr(list(iter_unsym_plans(...)))
# for audikw_1 small (412 supernodes).
PLAN_SHA256 = {
    ((32, 32), "sym"): "23e825e426979680d99c5c07c8fee5650915c0113f1ac60c510a497acfe04328",
    ((32, 32), "unsym"): "9afbef7479bfcee271503bd5839f8e3c25a0b21ef239301d0a9514a02b48d171",
    ((5, 7), "sym"): "18c74178997b21423252937f534af5ff647d1fda87432baa273768ded9e9650a",
    ((5, 7), "unsym"): "0b2ca8c211e11a5f3cec1bd755aab4369aee539aaba9819938049d4632139b42",
}
PLANNERS = {"sym": iter_plans, "unsym": iter_unsym_plans}
KEYS = sorted(PLAN_SHA256)
KEY_IDS = [f"{pr}x{pc}-{kind}" for (pr, pc), kind in KEYS]
#: Traced bytes of the 32x32 symmetric plan list (22.0 MiB, traced the
#: same way, with a fresh int per rank and a fresh tuple per collective;
#: 9.3 MiB with shared ranks and tuples but a ``__dict__`` per record).
PLAN_TRACED_MAX = 8.5 * 2**20


@pytest.fixture(scope="module")
def audikw_small():
    return runner_cache.get_problem("audikw_1", "small")


@pytest.fixture(scope="module")
def plans_of(audikw_small):
    """(grid_shape, kind) -> (grid, plans), each built once per module."""
    memo = {}

    def get(key):
        if key not in memo:
            grid_shape, kind = key
            grid = ProcessorGrid(*grid_shape)
            memo[key] = grid, list(PLANNERS[kind](audikw_small.struct, grid))
        return memo[key]

    return get


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_plan_content_pinned(plans_of, key):
    _, plans = plans_of(key)
    digest = hashlib.sha256(repr(plans).encode()).hexdigest()
    assert digest == PLAN_SHA256[key]


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_plans_share_ranks_and_tuples(plans_of, key):
    grid, plans = plans_of(key)

    def own(rank):
        return rank is grid.rank(*grid.coords(rank))

    tuples: dict[tuple, tuple] = {}
    n_specs = 0
    for plan in plans:
        assert own(plan.diag_owner)
        for spec in plan.collectives():
            n_specs += 1
            assert own(spec.root)
            assert all(own(r) for r in spec.participants)
            assert tuples.setdefault(spec.participants, spec.participants) is (
                spec.participants
            )
        for p2p in plan.point_to_points():
            assert own(p2p.src) and own(p2p.dst)
    assert len(tuples) < n_specs


@pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
def test_plan_records_have_no_dict(plans_of, key):
    _, plans = plans_of(key)
    n = 0
    for plan in plans:
        for rec in (*plan.blocks, *plan.collectives(), *plan.point_to_points()):
            assert not hasattr(rec, "__dict__"), type(rec).__name__
            n += 1
    assert n > len(plans)


def test_plan_records_value_semantics():
    """Slotted records still compare, hash, replace and stay frozen like
    plain frozen dataclasses."""
    records = [
        BlockInfo(3, 7),
        CollectiveSpec("col-bcast", ("cb", 4, 3), 5, (1, 5, 9), 448),
        PointToPointSpec("cross-send", ("cs", 4, 3), 5, 9, 448),
    ]
    for rec in records:
        twin = type(rec)(*dataclasses.astuple(rec))
        assert twin == rec and twin is not rec
        assert hash(twin) == hash(rec)
        assert dataclasses.replace(rec) == rec
        field = dataclasses.fields(rec)[-1].name
        other = dataclasses.replace(rec, **{field: getattr(rec, field) + 1})
        assert other != rec
        assert len({rec, twin, other}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, field, 0)
    assert records[1].size == 3


@pytest.mark.parametrize("kind", ["sym", "unsym"])
def test_single_supernode_plan_equals_the_listed_one(plans_of, audikw_small, kind):
    grid, plans = plans_of(((5, 7), kind))
    one = {"sym": supernode_plan, "unsym": unsym_supernode_plan}[kind]
    struct = audikw_small.struct
    for k in (0, struct.nsup // 2, struct.nsup - 1):
        assert one(struct, grid, k) == plans[k]


def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("kind", ["sym", "unsym"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_planners_restore_the_collector(audikw_small, monkeypatch, kind, enabled):
    """The planners pause the cyclic collector while they build, and
    leave it as they found it: after the plans, and when the build
    raises."""
    planner = PLANNERS[kind]
    module, name = {
        "sym": (plan_mod, "_supernode_plan"),
        "unsym": (plan_unsym_mod, "_unsym_supernode_plan"),
    }[kind]
    build = getattr(module, name)
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return build(*args)

    def boom(*args):
        raise RuntimeError("build failed")

    was = gc.isenabled()
    grid = ProcessorGrid(2, 3)
    try:
        _set_collector(enabled)
        monkeypatch.setattr(module, name, spy)
        plans = list(planner(audikw_small.struct, grid))
        assert len(plans) == len(seen) == audikw_small.struct.nsup
        assert not any(seen)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(module, name, boom)
        with pytest.raises(RuntimeError, match="build failed"):
            list(planner(audikw_small.struct, grid))
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


def test_rank_objects_shared_across_grids():
    a, b = ProcessorGrid(40, 40), ProcessorGrid(20, 80)
    assert a.rank(10, 5) is b.rank(5, 5)  # rank 405, above CPython's cache
    assert a.owner(49, 45) is a.rank(9, 5)


def test_plan_traced_size(audikw_small):
    grid = ProcessorGrid(32, 32)
    grid.rank(31, 31)  # the shared rank list is not part of the plans
    tracemalloc.start()
    try:
        plans = list(iter_plans(audikw_small.struct, grid))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plans) == audikw_small.struct.nsup
    assert traced <= PLAN_TRACED_MAX, f"{traced / 2**20:.2f} MiB"


def test_tree_memo_holds_no_position_map():
    prob = runner_cache.get_problem("audikw_1", "tiny")
    grid = ProcessorGrid(4, 4)
    memo = runner_cache.get_tree_cache(prob, grid, "shifted", 3)
    SimulatedPSelInv(
        prob.struct, grid, "shifted", seed=3,
        plans=runner_cache.get_plans(prob, grid), tree_cache=memo,
    ).run()
    trees = [v for k, v in memo.items() if k != "__guard__"]
    assert trees
    for tree in trees:
        assert not hasattr(tree, "pos_of")
        held = [getattr(tree, name) for name in type(tree).__slots__]
        assert not any(isinstance(v, dict) for v in held)
