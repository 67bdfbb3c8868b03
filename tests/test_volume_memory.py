"""The volume engine's per-plan memo: built only by a volume call, and
compact.

``communication_volumes`` reads each plan's collectives out once into
columns memoized on the plan, and memoizes beside them the seeded tree
orders of the latest seed per family.  The simulator never reads them,
so a DES run must not build them, and the memo lives as long as the
cached plans do, so its size is held to a traced bound: narrow rank,
kind and order columns, int64 only for the byte counts, and one order
column per family however many seeds are charged.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import ProcessorGrid, communication_volumes, iter_plans
from repro.core.volume import _plan_columns
from repro.runner import ExperimentSpec, run_experiment
from repro.runner import cache as runner_cache

#: Traced bound of the audikw_1 small 32x32 memo (412 plans, 19,030
#: collectives, ~397k non-root slots).  As int64 the same columns would
#: take over 4 MiB.
MEMO_TRACED_BOUND = int(1.5 * 2**20)

#: Traced bound of the same plans' order memo after one shifted and one
#: randperm call: one offset per collective plus one permutation entry
#: per slot.  Every collective runs within one grid row or column, so
#: on 32x32 each entry fits one byte (~0.4 MiB of data, ~0.58 MiB
#: traced with the per-plan arrays and dicts); int64 would take ~3.2 MiB.
ORDERS_TRACED_BOUND = int(0.75 * 2**20)


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_des_run_builds_no_volume_memo(collector_off, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    runner_cache.clear()
    spec = ExperimentSpec(workload="audikw_1", grid=(4, 4), scheme="shifted", scale="tiny")
    assert run_experiment(spec).events > 0
    prob = runner_cache.get_problem("audikw_1", "tiny")
    plans = runner_cache.get_plans(prob, ProcessorGrid(4, 4))
    assert runner_cache.cache_stats()["plan_hits"] >= 1, "not the run's plans"
    assert all(plan._volume_columns is None for plan in plans)
    # Non-vacuity: a volume call on the same plans does build it.
    communication_volumes(prob.struct, ProcessorGrid(4, 4), "flat", plans=plans)
    assert all(plan._volume_columns is not None for plan in plans)
    # A shifted DES run on plans that hold columns adds no order column.
    assert run_experiment(spec).events > 0
    assert all(plan._volume_columns.orders == {} for plan in plans)
    communication_volumes(prob.struct, ProcessorGrid(4, 4), "shifted", plans=plans)
    assert all("shifted" in plan._volume_columns.orders for plan in plans)
    runner_cache.clear()


@pytest.fixture(scope="module")
def paper_plans():
    prob = runner_cache.get_problem("audikw_1", "small")
    return list(iter_plans(prob.struct, ProcessorGrid(32, 32)))


def test_memo_is_compact(paper_plans):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        columns = [_plan_columns(plan) for plan in paper_plans]
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert traced <= MEMO_TRACED_BOUND, f"memo traces {traced / 2**20:.2f} MiB"
    assert sum(c.ranks.size for c in columns) > 390_000
    for c in columns:
        # Per-slot and per-collective columns are narrow; bytes are not.
        assert c.ranks.dtype.itemsize <= 2 and c.head.dtype.itemsize <= 2
        assert c.nbytes.dtype == np.int64


def _traced(fn):
    """Bytes ``fn`` leaves allocated, traced after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _charge_seeded(plans, seed):
    grid = ProcessorGrid(32, 32)
    for scheme in ("shifted", "randperm"):
        communication_volumes(None, grid, scheme, seed=seed, plans=plans)


def test_order_memo_is_compact(paper_plans):
    plans = [dataclasses.replace(plan) for plan in paper_plans]
    # Columns and positional shapes first, so only the orders are traced.
    communication_volumes(None, ProcessorGrid(32, 32), "binary", plans=plans)
    traced = _traced(lambda: _charge_seeded(plans, 3))
    assert traced <= ORDERS_TRACED_BOUND, f"order memo traces {traced / 2**20:.2f} MiB"
    for plan in plans:
        cols = plan._volume_columns
        offsets, perms = cols.orders["shifted"][1], cols.orders["randperm"][1]
        assert offsets.size == cols.ncoll and perms.size == cols.ranks.size
        assert offsets.dtype.itemsize == perms.dtype.itemsize == 1


def test_new_seed_replaces_the_order_memo(paper_plans):
    plans = [dataclasses.replace(plan) for plan in paper_plans]
    communication_volumes(None, ProcessorGrid(32, 32), "binary", plans=plans)
    held = []

    def two_seeds():
        # One trace over both seeds: the first seed's columns are
        # allocated, and so freed, under it.
        for seed in (3, 4):
            _charge_seeded(plans, seed)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])

    _traced(two_seeds)
    for plan in plans:
        orders = plan._volume_columns.orders
        assert sorted(orders) == ["randperm", "shifted"]
        assert all(seed == 4 for seed, _ in orders.values())
    # The second seed's columns took the first's place instead of adding
    # a second ~0.58 MiB memo.
    grown = held[1] - held[0]
    assert grown <= 64 * 2**10, f"a second seed added {grown / 2**10:.0f} KiB"
