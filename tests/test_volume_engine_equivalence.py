"""The vectorized volume engine must match the reference bit-for-bit.

``communication_volumes`` reads every collective's participants into
flat slot arrays and charges them, chunk by chunk, with bulk numpy
operations; ``_communication_volumes_reference`` builds one tree per
collective and loops over ranks in Python.  Any divergence -- in any
counter, for any scheme, on any participant set -- is a bug in the
vectorized engine, because the reference is the spec the DES is pinned
against.
"""

import dataclasses
import itertools
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import trees
from repro.comm.trees import (
    TREE_SCHEMES,
    build_tree,
    compiled_tree,
    tree_cache_clear,
    tree_cache_info,
)
from repro.core import ProcessorGrid, communication_volumes
from repro.core import volume
from repro.core.plan import CollectiveSpec, PointToPointSpec, SupernodePlan, iter_plans
from repro.core.plan_unsym import iter_unsym_plans
from repro.core.volume import (
    _communication_volumes_reference,
    reset_volume_engine_stats,
    volume_engine_stats,
)

KINDS = ["diag-bcast", "col-bcast", "row-reduce", "col-reduce"]


def _plan_from_specs(k, collectives, p2ps):
    """Wrap raw specs in a SupernodePlan (the engines only iterate)."""
    return SupernodePlan(
        k=k,
        width=1,
        blocks=[],
        diag_owner=0,
        diag_bcast=None,
        cross_sends=list(p2ps),
        col_bcasts=list(collectives),
        row_reduces=[],
        col_reduce=None,
        cross_backs=[],
    )


def assert_reports_equal(ref, vec):
    assert ref.scheme == vec.scheme
    # Same kinds in the same order, not just the same key sets.
    assert list(ref.sent) == list(vec.sent)
    assert list(ref.received) == list(vec.received)
    assert list(ref.messages) == list(vec.messages)
    assert list(ref.max_degree.items()) == list(vec.max_degree.items())
    for table_name in ("sent", "received", "messages"):
        rt, vt = getattr(ref, table_name), getattr(vec, table_name)
        for kind, arr in rt.items():
            assert arr.dtype == np.int64
            assert vt[kind].dtype == np.int64
            np.testing.assert_array_equal(
                arr, vt[kind], err_msg=f"{kind}/{table_name}"
            )


@st.composite
def synthetic_plans(draw):
    """A random batch of collectives + point-to-points on a small grid."""
    size = draw(st.integers(4, 40))
    n_coll = draw(st.integers(1, 25))
    collectives = []
    for i in range(n_coll):
        kind = draw(st.sampled_from(KINDS))
        if draw(st.booleans()):
            # The planner's canonical form: sorted, distinct, root in.
            participants = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(0, size - 1), min_size=1, max_size=size
                        )
                    )
                )
            )
            root = draw(st.sampled_from(participants))
        else:
            # Any order, duplicates allowed, and the root may be absent:
            # the engines must normalize exactly like the tree builders.
            participants = tuple(
                draw(
                    st.lists(
                        st.integers(0, size - 1), min_size=0, max_size=2 * size
                    )
                )
            )
            root = draw(st.integers(0, size - 1))
        nbytes = draw(st.integers(0, 10**6))
        collectives.append(
            CollectiveSpec(
                kind=kind,
                key=(kind[:2], i),
                root=root,
                participants=participants,
                nbytes=nbytes,
            )
        )
    p2ps = []
    for i in range(draw(st.integers(0, 8))):
        src = draw(st.integers(0, size - 1))
        dst = draw(st.integers(0, size - 1))
        kind = draw(st.sampled_from(["cross-send", "cross-back"]))
        p2ps.append(
            PointToPointSpec(
                kind=kind,
                key=("p2p", i),
                src=src,
                dst=dst,
                nbytes=draw(st.integers(0, 10**6)),
            )
        )
    return size, [_plan_from_specs(0, collectives, p2ps)]


@settings(max_examples=120, deadline=None)
@given(
    synthetic_plans(),
    st.sampled_from(TREE_SCHEMES),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.sampled_from([3, 8]),
)
def test_vectorized_matches_reference_property(
    plans_spec, scheme, seed, cross, threshold
):
    size, plans = plans_spec
    grid = ProcessorGrid(1, size)
    kwargs = dict(
        seed=seed, hybrid_threshold=threshold, include_cross=cross, plans=plans
    )
    ref = _communication_volumes_reference(None, grid, scheme, **kwargs)
    vec = communication_volumes(None, grid, scheme, **kwargs)
    assert_reports_equal(ref, vec)


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
@pytest.mark.parametrize("grid_shape", [(4, 4), (3, 5), (1, 1)])
def test_vectorized_matches_reference_workload(scheme, grid_shape):
    from repro.sparse import analyze
    from repro.workloads import make_workload

    prob = analyze(make_workload("audikw_1", "tiny"), ordering="nd")
    grid = ProcessorGrid(*grid_shape)
    for seed in (0, 20160523):
        ref = _communication_volumes_reference(
            prob.struct, grid, scheme, seed=seed
        )
        vec = communication_volumes(prob.struct, grid, scheme, seed=seed)
        assert_reports_equal(ref, vec)


def _multi_chunk_plans(size=64, width=32):
    """Collectives of ``width`` unsorted participants, enough slots to
    span at least three charging chunks."""
    rng = np.random.default_rng(7)
    ncoll = 3 * volume._CHUNK_SLOTS // width + 11
    collectives = []
    for i in range(ncoll):
        kind = KINDS[i % len(KINDS)]
        members = rng.choice(size, width, replace=False)
        collectives.append(
            CollectiveSpec(
                kind=kind,
                key=(kind[:2], i),
                root=int(members[i % width]),
                participants=tuple(int(r) for r in members),
                nbytes=int(rng.integers(1, 10**6)),
            )
        )
    return size, [_plan_from_specs(0, collectives, [])]


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_vectorized_matches_reference_across_chunks(scheme):
    size, plans = _multi_chunk_plans()
    slots = sum(len(c.participants) for c in plans[0].collectives())
    assert slots >= 3 * volume._CHUNK_SLOTS
    grid = ProcessorGrid(8, size // 8)
    ref = _communication_volumes_reference(
        None, grid, scheme, seed=11, plans=plans
    )
    vec = communication_volumes(None, grid, scheme, seed=11, plans=plans)
    assert_reports_equal(ref, vec)


def _charged_chunks(call) -> int:
    reset_volume_engine_stats()
    call()
    return volume_engine_stats()["chunks"]


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("scheme", ["shifted", "randperm", "hybrid"])
def test_chunk_size_never_changes_counters(monkeypatch, scheme, chunk):
    """Charging every collective alone, or a few at a time, gives the
    same report as one large chunk, and a patched chunk size reaches
    calls on plans whose columns are already memoized."""
    from repro.sparse import analyze
    from repro.workloads import make_workload

    prob = analyze(make_workload("audikw_1", "tiny"), ordering="nd")
    grid = ProcessorGrid(3, 4)
    plans = list(iter_plans(prob.struct, grid))
    # Distinct non-root participants: the slots a call charges.
    sizes = [
        len(set(c.participants) - {c.root}) for pl in plans for c in pl.collectives()
    ]
    nslots, largest = sum(sizes), max(sizes)

    def call():
        return communication_volumes(prob.struct, grid, scheme, seed=5, plans=plans)

    whole = call()
    assert _charged_chunks(call) <= math.ceil(nslots / volume._CHUNK_SLOTS)
    monkeypatch.setattr(volume, "_CHUNK_SLOTS", chunk)
    assert_reports_equal(whole, call())
    # Every chunk stops at the collective that reaches the next multiple
    # of the chunk size, so it holds fewer than chunk + largest slots.
    chunks = _charged_chunks(call)
    assert nslots / (chunk + largest - 1) <= chunks <= math.ceil(nslots / chunk)


@pytest.fixture(scope="module")
def unsym_problem():
    from repro.sparse import analyze
    from repro.workloads import make_workload

    return analyze(make_workload("audikw_1", "tiny"), ordering="nd")


@pytest.mark.parametrize("cross", [True, False])
@pytest.mark.parametrize("threshold", [3, 8])
@pytest.mark.parametrize("scheme", TREE_SCHEMES)
@pytest.mark.parametrize("grid_shape", [(4, 4), (3, 5)])
def test_vectorized_matches_reference_unsymmetric(
    unsym_problem, grid_shape, scheme, threshold, cross
):
    grid = ProcessorGrid(*grid_shape)
    plans = list(iter_unsym_plans(unsym_problem.struct, grid))
    kwargs = dict(
        seed=20160523, hybrid_threshold=threshold, include_cross=cross, plans=plans
    )
    ref = _communication_volumes_reference(
        unsym_problem.struct, grid, scheme, **kwargs
    )
    vec = communication_volumes(unsym_problem.struct, grid, scheme, **kwargs)
    assert_reports_equal(ref, vec)


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "unsym"])
def test_memoized_columns_serve_every_call(unsym_problem, symmetric):
    """One plan list charged under every scheme, seed, hybrid threshold
    and cross setting, in shuffled order: the columns the first call
    memoizes serve all the others, and every report still equals the
    oracle's."""
    grid = ProcessorGrid(3, 5)
    make = iter_plans if symmetric else iter_unsym_plans
    plans = list(make(unsym_problem.struct, grid))
    combos = list(
        itertools.product(TREE_SCHEMES, (0, 20160523), (3, 8), (True, False))
    )
    random.Random(29).shuffle(combos)
    memo = None
    for scheme, seed, threshold, cross in combos:
        kwargs = dict(
            seed=seed, hybrid_threshold=threshold, include_cross=cross, plans=plans
        )
        ref = _communication_volumes_reference(None, grid, scheme, **kwargs)
        vec = communication_volumes(None, grid, scheme, **kwargs)
        assert_reports_equal(ref, vec)
        columns = [plan._volume_columns for plan in plans]
        assert all(c is not None for c in columns)
        if memo is None:
            memo = columns
        assert all(a is b for a, b in zip(columns, memo)), "columns rebuilt"


def test_replaced_plan_gets_fresh_columns():
    grid = ProcessorGrid(2, 2)
    spec = CollectiveSpec(
        kind="col-bcast", key=("cb", 0), root=0, participants=(0, 1, 2, 3), nbytes=8
    )
    plan = _plan_from_specs(0, [spec], [])
    communication_volumes(None, grid, "flat", plans=[plan])
    columns = plan._volume_columns
    assert columns is not None

    narrower = dataclasses.replace(spec, participants=(0, 2), nbytes=16)
    replaced = dataclasses.replace(plan, col_bcasts=[narrower])
    assert replaced._volume_columns is None
    for p in (plan, replaced):
        assert_reports_equal(
            _communication_volumes_reference(None, grid, "binomial", plans=[p]),
            communication_volumes(None, grid, "binomial", plans=[p]),
        )
    assert plan._volume_columns is columns
    assert replaced._volume_columns is not columns


SEEDED_SCHEMES = ("shifted", "hybrid", "randperm")


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "unsym"])
def test_seed_sweep_matches_reference(unsym_problem, symmetric):
    """A sweep over tree seeds, each seed charged under every seeded
    scheme: every call equals the oracle, and each plan's order memo
    holds only the latest seed per family."""
    grid = ProcessorGrid(3, 5)
    make = iter_plans if symmetric else iter_unsym_plans
    plans = list(make(unsym_problem.struct, grid))
    for seed in (0, 1, 20160523, 2**31 - 1, 7):
        for scheme in SEEDED_SCHEMES:
            kwargs = dict(seed=seed, hybrid_threshold=3, plans=plans)
            assert_reports_equal(
                _communication_volumes_reference(None, grid, scheme, **kwargs),
                communication_volumes(None, grid, scheme, **kwargs),
            )
        for plan in plans:
            orders = plan._volume_columns.orders
            assert sorted(orders) == ["randperm", "shifted"]
            assert all(entry[0] == seed for entry in orders.values())


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "unsym"])
def test_hybrid_reuses_the_shifted_offsets(unsym_problem, symmetric):
    grid = ProcessorGrid(3, 5)
    make = iter_plans if symmetric else iter_unsym_plans
    plans = list(make(unsym_problem.struct, grid))
    communication_volumes(None, grid, "shifted", seed=11, plans=plans)
    offsets = [plan._volume_columns.orders["shifted"][1] for plan in plans]
    vec = communication_volumes(None, grid, "hybrid", seed=11, plans=plans)
    assert_reports_equal(
        _communication_volumes_reference(None, grid, "hybrid", seed=11, plans=plans), vec
    )
    for plan, column in zip(plans, offsets):
        # Hybrid read the shifted entry and built none of its own.
        assert list(plan._volume_columns.orders) == ["shifted"]
        assert plan._volume_columns.orders["shifted"][1] is column
    # One offset per collective; the permutation column lines up with
    # the ranks.
    communication_volumes(None, grid, "randperm", seed=11, plans=plans)
    for plan in plans:
        cols = plan._volume_columns
        assert cols.orders["shifted"][1].size == cols.ncoll
        assert cols.orders["randperm"][1].size == cols.ranks.size


def test_concurrent_seeds_never_mix_orders(unsym_problem):
    """Threads charging one plan list under different seeds keep
    replacing each other's order entries; every report must still be
    its own seed's (a seed read apart from its column would mix them)."""
    grid = ProcessorGrid(3, 5)
    plans = list(iter_unsym_plans(unsym_problem.struct, grid))
    jobs = [(scheme, seed) for scheme in SEEDED_SCHEMES for seed in (1, 2, 3)]
    # Threshold 3: hybrid rotates the 3- to 5-member collectives here.
    expected = {
        job: _communication_volumes_reference(
            None, grid, job[0], seed=job[1], hybrid_threshold=3, plans=plans
        )
        for job in jobs
    }
    failures = []

    def worker(offset):
        for i in range(3 * len(jobs)):
            scheme, seed = jobs[(offset + i) % len(jobs)]
            vec = communication_volumes(
                None, grid, scheme, seed=seed, hybrid_threshold=3, plans=plans
            )
            try:
                assert_reports_equal(expected[scheme, seed], vec)
            except AssertionError as exc:
                failures.append((scheme, seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "unsym"])
def test_replaced_plan_starts_with_no_orders(unsym_problem, symmetric):
    grid = ProcessorGrid(3, 5)
    make = iter_plans if symmetric else iter_unsym_plans
    plans = list(make(unsym_problem.struct, grid))
    for scheme in SEEDED_SCHEMES:
        communication_volumes(None, grid, scheme, seed=5, plans=plans)
    assert all(plan._volume_columns.orders for plan in plans)
    fresh = [dataclasses.replace(plan) for plan in plans]
    assert all(plan._volume_columns is None for plan in fresh)
    communication_volumes(None, grid, "binary", plans=fresh)
    assert all(plan._volume_columns.orders == {} for plan in fresh)
    kwargs = dict(seed=6, plans=fresh)
    assert_reports_equal(
        _communication_volumes_reference(None, grid, "randperm", **kwargs),
        communication_volumes(None, grid, "randperm", **kwargs),
    )
    assert all(list(plan._volume_columns.orders) == ["randperm"] for plan in fresh)


@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "unsym"])
def test_memoized_ranks_checked_against_every_grid(unsym_problem, symmetric):
    # Columns memoized on a 4x4 grid hold ranks up to 15; reused on a
    # 2x2 grid they must be refused, not charged to other counters.
    make = iter_plans if symmetric else iter_unsym_plans
    plans = list(make(unsym_problem.struct, ProcessorGrid(4, 4)))
    communication_volumes(None, ProcessorGrid(4, 4), "binary", plans=plans)
    with pytest.raises(ValueError, match="out of range for a grid of 4 ranks"):
        communication_volumes(None, ProcessorGrid(2, 2), "binary", plans=plans)


def test_memoized_point_to_points_checked_against_every_grid():
    coll = CollectiveSpec(
        kind="col-bcast", key=("cb", 0), root=0, participants=(0, 1), nbytes=8
    )
    p2p = PointToPointSpec(kind="cross-send", key=("p2p", 0), src=0, dst=4, nbytes=8)
    plans = [_plan_from_specs(0, [coll], [p2p])]
    communication_volumes(None, ProcessorGrid(2, 3), "flat", plans=plans)
    # Without the cross sends the out-of-range destination is never charged.
    communication_volumes(None, ProcessorGrid(2, 2), "flat", plans=plans, include_cross=False)
    with pytest.raises(ValueError, match="out of range for a grid of 4 ranks"):
        communication_volumes(None, ProcessorGrid(2, 2), "flat", plans=plans)


def test_unknown_scheme_rejected_upfront():
    with pytest.raises(ValueError, match="unknown tree scheme"):
        communication_volumes(None, ProcessorGrid(2, 2), "bogus", plans=[])


@pytest.mark.parametrize(
    "participants, root, p2p",
    [
        ((0, 1, 4), 0, None),  # a participant past the grid
        ((0, 1, 2), -1, None),  # a negative root
        ((0, 1), 0, (0, 4)),  # a point-to-point past the grid
    ],
)
def test_ranks_outside_the_grid_rejected(participants, root, p2p):
    # A flat table index would charge an out-of-range rank to another
    # rank or counter, so the engine refuses it (the reference raises
    # IndexError or wraps a negative rank).
    coll = CollectiveSpec(
        kind="col-bcast", key=("cb", 0), root=root,
        participants=participants, nbytes=8,
    )
    p2ps = []
    if p2p is not None:
        p2ps.append(PointToPointSpec(
            kind="cross-send", key=("p2p", 0), src=p2p[0], dst=p2p[1], nbytes=8,
        ))
    plans = [_plan_from_specs(0, [coll], p2ps)]
    with pytest.raises(ValueError, match="out of range for a grid of 4 ranks"):
        communication_volumes(None, ProcessorGrid(2, 2), "flat", plans=plans)


def test_heatmap_direction_validated():
    grid = ProcessorGrid(2, 2)
    rep = communication_volumes(None, grid, "flat", plans=[])
    with pytest.raises(ValueError, match="unknown heatmap direction"):
        rep.heatmap("col-bcast", "snet")
    # The two valid spellings still work.
    assert rep.heatmap("col-bcast", "sent").shape == (2, 2)
    assert rep.heatmap("col-bcast", "received").shape == (2, 2)


class TestTreeCacheEviction:
    """A tiny cache must still return *correct* trees, just more slowly."""

    def teardown_method(self):
        tree_cache_clear()

    def test_eviction_preserves_correctness(self, monkeypatch):
        tree_cache_clear()
        groups = [set(range(r, r + 9)) for r in range(30)]
        expected = {}
        for i, g in enumerate(groups):
            expected[i] = build_tree("shifted", min(g), g, seed=i)
        monkeypatch.setattr(trees, "_TREE_CACHE", trees._TreeLRU(4))
        for _ in range(2):
            for i, g in enumerate(groups):
                t = build_tree("shifted", min(g), g, seed=i)
                e = expected[i]
                assert t.order == e.order
                assert t.parent == e.parent
                assert t.children == e.children
        info = tree_cache_info()
        assert info["size"] <= 4
        assert info["evictions"] > 0

    def test_cache_hit_shares_structure_arrays(self):
        # The cache holds rank-free structure keys: repeated calls return
        # equal trees whose shape lists are the *same* objects.
        tree_cache_clear()
        a1 = compiled_tree("binary", 0, range(10))
        a2 = compiled_tree("binary", 0, range(10))
        assert a1.ranks == a2.ranks
        assert a1.parentpos is a2.parentpos
        assert a1.child_counts is a2.child_counts
        assert a1.family == a2.family
        info = tree_cache_info()
        assert info["hits"] >= 1

    def test_structure_cache_shared_across_rank_sets(self):
        # Collectives over *different* rank sets of the same size hit the
        # same cache entry instead of each claiming their own -- the
        # keyspace does not scale with the number of distinct
        # (root, participants) pairs.
        tree_cache_clear()
        compiled_tree("binary", 0, range(10))
        info = tree_cache_info()
        for base in range(1, 50):
            compiled_tree("binary", base, range(base, base + 10))
        after = tree_cache_info()
        assert after["size"] == info["size"] == 1
        assert after["hits"] == info["hits"] + 49
        assert after["misses"] == info["misses"]

    def test_eviction_counter_consistent_under_churn(self):
        # Invariant: evictions == inserts (misses) - live entries, and
        # the least recently used key is the one that goes.
        lru = trees._TreeLRU(4)
        hot = ("binary", 2, None)
        for n in range(2, 30):
            lru.touch(("binary", n, None))
            lru.touch(hot)
        info = lru.info()
        assert info["size"] == 4 and info["maxsize"] == 4
        assert info["misses"] == 28 and info["hits"] == 28
        assert info["evictions"] == info["misses"] - info["size"]
        # The hot key was re-touched after every insert, so it survived;
        # key 26 was the least recently used and went.
        lru.touch(hot)
        lru.touch(("binary", 26, None))
        after = lru.info()
        assert after["hits"] == info["hits"] + 1
        assert after["misses"] == info["misses"] + 1
        assert after["evictions"] == info["evictions"] + 1
        lru.clear()
        assert lru.info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "maxsize": 4,
        }
