"""The volume engine's per-plan memo: built only by a volume call, and
compact.

``communication_volumes`` reads each plan's collectives out once into
columns memoized on the plan.  The simulator never reads them, so a DES
run must not build them, and the memo lives as long as the cached plans
do, so its size is held to a traced bound: narrow rank and kind columns,
int64 only for the byte counts.
"""

from __future__ import annotations

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
