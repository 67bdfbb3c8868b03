"""Parallel experiment runner: determinism and failure-reporting contract.

The load-bearing property of :mod:`repro.runner` is that the worker
count is *not observable* in the results: every simulation is seeded and
the pool merges records in spec order, so a ``REPRO_JOBS=4`` sweep must
be bit-identical to the serial one.  These tests pin that contract on a
small jitter-enabled sweep (jitter + placement seeds are where
nondeterminism would leak first), plus the error path: a failing spec
must surface as :class:`~repro.runner.ExperimentError` naming the spec.
"""

from __future__ import annotations

import pytest

from repro.runner import (
    ExperimentError,
    ExperimentSpec,
    ParallelRunner,
    VolumeSpec,
    default_jobs,
    run_experiment,
    run_experiments,
)
from repro.runner import cache as runner_cache
from repro.simulate import NetworkConfig

# Jitter on and few ranks per node, so schemes/seeds genuinely diverge
# (with all 16 ranks on one node every transfer is intra-node and jitter
# never applies) and any RNG-state leak between runs sharing a worker
# process would change the records.
NET = NetworkConfig(jitter_sigma=0.2, cores_per_node=4, nodes_per_group=2)


def sweep_specs() -> list[ExperimentSpec]:
    specs = [
        ExperimentSpec(
            workload="audikw_1",
            grid=(4, 4),
            scheme=scheme,
            scale="tiny",
            network=NET,
            jitter_seed=run,
            placement_seed=run + 77,
            lookahead=4,
            label=f"{scheme}/run{run}",
        )
        for scheme in ("flat", "shifted")
        for run in (0, 1)
    ]
    specs.append(
        VolumeSpec("audikw_1", (4, 4), "binary", scale="tiny")
    )
    return specs


def test_serial_and_parallel_sweeps_bit_identical():
    specs = sweep_specs()
    serial = run_experiments(specs, jobs=1)
    parallel = run_experiments(specs, jobs=2)
    assert len(serial) == len(parallel) == len(specs)
    for spec, a, b in zip(specs[:-1], serial, parallel):
        assert a.spec == spec  # records come back in spec order
        assert a.same_outcome(b), f"parallel diverged on {spec.describe()}"
    # The volume report at the end survives the mixed-type dispatch.
    va, vb = serial[-1], parallel[-1]
    assert (va.col_bcast_sent() == vb.col_bcast_sent()).all()


def test_runs_actually_differ_across_seeds_and_schemes():
    # Guards the test above against vacuous passes: if every record were
    # identical, bit-identity between serial and parallel proves nothing.
    records = run_experiments(sweep_specs()[:-1], jobs=1)
    assert len({r.makespan for r in records}) == len(records)


def test_worker_exception_names_the_failing_spec():
    specs = sweep_specs()[:2]
    bad = ExperimentSpec(
        workload="audikw_1",
        grid=(4, 4),
        scheme="no-such-scheme",
        scale="tiny",
    )
    with pytest.raises(ExperimentError) as exc:
        run_experiments([*specs, bad], jobs=2)
    msg = str(exc.value)
    assert "no-such-scheme" in msg
    assert "audikw_1" in msg


def test_single_spec_matches_sweep_entry():
    specs = sweep_specs()[:2]
    alone = run_experiment(specs[1])
    swept = run_experiments(specs, jobs=2)[1]
    assert alone.same_outcome(swept)


def test_progress_callback_sees_every_item():
    specs = sweep_specs()[:3]
    seen = []
    ParallelRunner(jobs=1, progress=lambda done, total, *a: seen.append((done, total))).run(
        specs
    )
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_parallel_runner_merges_worker_cache_stats(monkeypatch):
    # Workers run in separate processes; their tree-cache and memo
    # counters used to die with the pool.  The runner must fold the
    # per-item deltas back into its own stats, and the derived hit-rate
    # gauge must be guarded (an idle runner divides nothing by zero).
    # The tree-cache lookups come from the DES specs (volume reports
    # never consult the cache), so keep those specs off the result store
    # and drop the per-configuration trees earlier tests memoized: the
    # workers must simulate and build their trees.
    for var in ("REPRO_STORE", "REPRO_STORE_REFRESH", "REPRO_STORE_DIR"):
        monkeypatch.delenv(var, raising=False)
    runner_cache.clear()
    idle = ParallelRunner(jobs=2)
    snap = idle.metrics_snapshot()
    assert snap["gauges"]["comm.tree_cache.hit_rate"] == 0.0

    runner = ParallelRunner(jobs=2)
    runner.run(sweep_specs())
    hits = runner.stats.get("tree_cache.hits", 0)
    misses = runner.stats.get("tree_cache.misses", 0)
    assert hits > 0, f"worker tree-cache stats were dropped: {runner.stats}"
    snap = runner.metrics_snapshot()
    assert snap["counters"]["comm.tree_cache.hits"] == hits
    assert snap["gauges"]["comm.tree_cache.hit_rate"] == hits / (hits + misses)
    # The per-process memo tables ship too.
    assert "memo.problem_misses" in runner.stats or "memo.problem_hits" in runner.stats


def test_default_jobs_env_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert default_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1
