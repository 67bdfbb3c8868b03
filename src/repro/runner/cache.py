"""Per-process memo caches for analyzed problems, plans, and trees.

One copy of these dicts lives in every process that executes
experiments: the parent (serial runs, and as the pre-fork template) and
each pool worker.  A worker analyzes a workload at most once, builds the
plans for a ``(problem, grid)`` at most once, and shares one
communication-tree cache across all runs with identical
``(problem, grid, scheme, seed)`` -- mirroring what
``benchmarks/_harness.py`` always did for the serial sweeps, which in
fact delegates here now so parent and workers share one implementation.

On fork-capable platforms :func:`prewarm` lets the parent populate the
caches *before* the pool spawns, so every worker inherits them
copy-on-write and pays zero re-analysis; on spawn platforms workers fill
their caches lazily on first use.

The reverse map ``_PROBLEM_KEYS`` makes problem -> key lookup O(1) by
``id``; entries are never evicted, so a cached problem stays alive and
its ``id`` can never be reused by the allocator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.grid import ProcessorGrid
    from ..sparse import AnalyzedProblem

__all__ = [
    "get_problem",
    "get_plans",
    "get_tree_cache",
    "problem_key_of",
    "prewarm",
    "cache_info",
    "cache_stats",
    "clear",
]

_PROBLEMS: dict[tuple, "AnalyzedProblem"] = {}
_PROBLEM_KEYS: dict[int, tuple] = {}  # id(problem) -> memo key, O(1)
_PLANS: dict[tuple, list] = {}
_TREE_CACHES: dict[tuple, dict] = {}

# Hit/miss tallies per table (telemetry reads these via cache_stats();
# plain ints, reset by clear()).
_STATS = {
    "problem_hits": 0,
    "problem_misses": 0,
    "plan_hits": 0,
    "plan_misses": 0,
    "tree_cache_hits": 0,
    "tree_cache_misses": 0,
}


def get_problem(
    workload: str, scale: str = "small", max_supernode: int = 8
) -> "AnalyzedProblem":
    """Memoized workload generation + symbolic analysis."""
    key = (workload, scale, max_supernode)
    prob = _PROBLEMS.get(key)
    if prob is not None:
        _STATS["problem_hits"] += 1
        return prob
    _STATS["problem_misses"] += 1
    from ..sparse import analyze
    from ..workloads import make_workload

    matrix = make_workload(workload, scale)
    prob = analyze(matrix, ordering="nd", max_supernode=max_supernode)
    _PROBLEMS[key] = prob
    # In-process reverse map only; ids never leave this process and
    # entries are never evicted, so the id stays valid for the key.
    _PROBLEM_KEYS[id(prob)] = key  # det: allow(DET003)
    return prob


def problem_key_of(prob: "AnalyzedProblem") -> tuple | None:
    """The memo key ``prob`` was cached under (None if not from here)."""
    return _PROBLEM_KEYS.get(id(prob))  # det: allow(DET003)


def get_plans(prob: "AnalyzedProblem", grid: "ProcessorGrid") -> list:
    """Memoized communication plans per (problem, grid).

    Keyed on ``(workload, scale, max_supernode, pr, pc)`` -- NOT on
    ``id(prob)`` alone, which the allocator could reuse after garbage
    collection for uncached problems.  Problems that did not come from
    :func:`get_problem` are computed fresh, uncached.
    """
    from ..core.plan import iter_plans

    pkey = problem_key_of(prob)
    if pkey is None:
        return list(iter_plans(prob.struct, grid))
    key = (*pkey, grid.pr, grid.pc)
    plans = _PLANS.get(key)
    if plans is None:
        _STATS["plan_misses"] += 1
        plans = list(iter_plans(prob.struct, grid))
        _PLANS[key] = plans
    else:
        _STATS["plan_hits"] += 1
    return plans


def get_tree_cache(
    prob: "AnalyzedProblem",
    grid: "ProcessorGrid",
    scheme: str,
    seed: int,
    hybrid_threshold: int = 8,
    engine: str = "vectorized",
) -> dict:
    """Shared communication-tree cache for one simulation configuration.

    Trees depend on ``(struct, grid, scheme, seed, hybrid_threshold)``
    -- and on the engine, which fixes the cached representation
    (``CompiledTree`` for the default vectorized engine, positional
    ``TreeArrays`` for batch, dict ``CommTree`` for legacy)
    -- but not on jitter/placement seeds, so repeated runs of a sweep
    point share one cache -- the same sharing the serial Fig. 8 loop
    used.  Problems outside the memo get a fresh private cache.
    """
    pkey = problem_key_of(prob)
    if pkey is None:
        return {}
    key = (*pkey, grid.pr, grid.pc, scheme, seed, hybrid_threshold, engine)
    cache = _TREE_CACHES.get(key)
    if cache is None:
        _STATS["tree_cache_misses"] += 1
        cache = {}
        _TREE_CACHES[key] = cache
    else:
        _STATS["tree_cache_hits"] += 1
    return cache


def prewarm(specs: Iterable) -> None:
    """Populate the caches for every distinct problem/grid in ``specs``.

    Called by the runner in the parent process before the pool starts:
    with a fork start method the workers inherit the filled caches for
    free.  Specs without the expected fields are ignored.
    """
    from ..core.grid import ProcessorGrid

    for spec in specs:
        workload = getattr(spec, "workload", None)
        if workload is None:
            continue
        prob = get_problem(workload, spec.scale, spec.max_supernode)
        grid = getattr(spec, "grid", None)
        if grid is not None:
            get_plans(prob, ProcessorGrid(*grid))


def cache_info() -> dict[str, int]:
    """Entry counts (for tests and the runner benchmark report)."""
    return {
        "problems": len(_PROBLEMS),
        "plans": len(_PLANS),
        "tree_caches": len(_TREE_CACHES),
    }


def cache_stats() -> dict[str, int]:
    """Cumulative hit/miss tallies per table (this process only)."""
    return dict(_STATS)


def clear() -> None:
    """Drop every cached problem, plan list, and tree cache."""
    _PROBLEMS.clear()
    _PROBLEM_KEYS.clear()
    _PLANS.clear()
    _TREE_CACHES.clear()
    for k in _STATS:
        _STATS[k] = 0
