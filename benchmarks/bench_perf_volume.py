"""Old-vs-new volume-engine throughput (the PR-over-PR perf tracker).

Times the full Table I computation (flat, binary, binomial, shifted over
the audikw_1 proxy) under both engines:

* ``_communication_volumes_reference`` -- one dict-based tree per
  collective, per-rank Python loops (the original implementation);
* ``communication_volumes`` -- the vectorized engine (flat participant
  slot arrays, every tree edge charged with bulk numpy operations).

The vectorized engine memoizes each plan's read-out and seeded tree
orders on the plan, so its first pass over a plan list (*cold*) builds
them and later passes (*warm*) reuse them.  Each repeat runs the
reference pass, a cold vectorized pass on fresh copies of the plans and
a warm pass on the same copies, ``REPEATS`` times in alternation, and
the JSON records each pass's median with its quartiles.  Each repeat
also times one warm pass per scheme of ``TREE_SCHEMES`` (the six-scheme
row), and the bench asserts that warm shifted, hybrid and randperm stay
within ``MAX_SEEDED_RATIO`` of warm binary.  The bench asserts
bit-identical counters, then measures the tree-structure cache on the
same plans through its remaining user, the vectorized simulator's
``compiled_tree`` (a cold pass over every collective on a fresh cache,
then a warm pass), and writes a machine-readable
``benchmarks/results/BENCH_volume_engine.json`` so later PRs can track
the perf trajectory (see docs/performance.md for the format).
"""

import dataclasses
import json
import statistics
import time

import numpy as np

from repro.analysis import Table
from repro.comm.trees import (
    TREE_SCHEMES,
    compiled_tree,
    tree_cache_clear,
    tree_cache_info,
    tree_cache_reset_counters,
)
from repro.core import communication_volumes
from repro.core.volume import _communication_volumes_reference, collective_seed

from _harness import (
    RESULTS_DIR,
    SCALE,
    emit,
    get_plans,
    get_problem,
    record_throughput,
    run_once,
    volume_grid,
)

SCHEMES = ["flat", "binary", "binomial", "shifted"]
SEED = 20160523
# Alternated reference/cold/warm repeats behind each median.
REPEATS = 5

# The vectorized engine, on its cold pass, must beat the reference by at
# least this factor (5x at paper tier; quick tier is smaller and keeps a
# margin for noisy CI boxes).
MIN_SPEEDUP = {"quick": 3.0, "paper": 5.0}

# A warm shifted, hybrid or randperm pass reads its memoized orders, so
# it may take at most this multiple of a warm binary pass (same shape).
SEEDED_SCHEMES = ("shifted", "hybrid", "randperm")
MAX_SEEDED_RATIO = 2.0


def _table1(engine, struct, grid, plans):
    return {
        scheme: engine(struct, grid, scheme, seed=SEED, plans=plans)
        for scheme in SCHEMES
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _spread(samples):
    """Median and quartiles of one engine's repeats, in seconds."""
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(med, 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "samples": [round(s, 4) for s in samples],
    }


def _compile_all_trees(plans):
    """One ``compiled_tree`` per collective and scheme: the simulator's
    tree builder over the same plans the volume engines charge."""
    for scheme in SCHEMES:
        for plan in plans:
            for spec in plan.collectives():
                compiled_tree(
                    scheme,
                    spec.root,
                    spec.participants,
                    collective_seed(SEED, spec.key),
                )


def _rate(info):
    lookups = info["hits"] + info["misses"]
    return round(info["hits"] / lookups, 4) if lookups else 0.0


def test_perf_volume_engine(benchmark):
    prob = get_problem("audikw_1")
    grid = volume_grid()
    plans = get_plans(prob, grid)
    ncoll = sum(1 for plan in plans for _ in plan.collectives())

    def reference():
        return _table1(_communication_volumes_reference, prob.struct, grid, plans)

    # Alternate the passes so host drift hits all alike; the first cold
    # pass runs under the benchmark fixture.  Fresh plan copies carry no
    # memoized columns (dataclasses.replace resets them).
    ref_samples, cold_samples, warm_samples = [], [], []
    # The six-scheme row runs on the original plans, warmed once here
    # (columns and every seeded order), so each repeat times warm passes.
    scheme_samples = {scheme: [] for scheme in TREE_SCHEMES}
    for scheme in TREE_SCHEMES:
        communication_volumes(prob.struct, grid, scheme, seed=SEED, plans=plans)
    for i in range(REPEATS):
        ref_reports, seconds = _timed(reference)
        ref_samples.append(seconds)
        fresh = [dataclasses.replace(plan) for plan in plans]
        assert all(plan._volume_columns is None for plan in fresh)

        def vectorized():
            return _table1(communication_volumes, prob.struct, grid, fresh)

        if i == 0:
            cold_reports, seconds = _timed(lambda: run_once(benchmark, vectorized))
        else:
            cold_reports, seconds = _timed(vectorized)
        cold_samples.append(seconds)
        warm_reports, seconds = _timed(vectorized)
        warm_samples.append(seconds)
        for scheme in TREE_SCHEMES:
            _, seconds = _timed(
                lambda: communication_volumes(
                    prob.struct, grid, scheme, seed=SEED, plans=plans
                )
            )
            scheme_samples[scheme].append(seconds)

    # Bit-identical counters -- the speedup is worthless otherwise.
    for scheme in SCHEMES:
        ref = ref_reports[scheme]
        for vec in (cold_reports[scheme], warm_reports[scheme]):
            assert list(ref.max_degree.items()) == list(vec.max_degree.items())
            for table_name in ("sent", "received", "messages"):
                rt, vt = getattr(ref, table_name), getattr(vec, table_name)
                assert list(rt) == list(vt)
                for kind in rt:
                    np.testing.assert_array_equal(
                        rt[kind], vt[kind], err_msg=f"{scheme}/{kind}/{table_name}"
                    )

    # Tree-structure cache on the simulator's builder: "cold" is the
    # first pass on an empty cache (its misses are the compulsory
    # structure builds), "warm" a second pass with the counters reset.
    tree_cache_clear()
    _compile_all_trees(plans)
    cache_cold = tree_cache_info()
    tree_cache_reset_counters()
    _compile_all_trees(plans)
    cache_warm = tree_cache_info()
    cache = {
        "cold": {**cache_cold, "hit_rate": _rate(cache_cold)},
        "warm": {**cache_warm, "hit_rate": _rate(cache_warm)},
    }

    ref_spread = _spread(ref_samples)
    cold_spread, warm_spread = _spread(cold_samples), _spread(warm_samples)
    ref_seconds = ref_spread["median"]
    cold_seconds, warm_seconds = cold_spread["median"], warm_spread["median"]
    speedup = ref_seconds / cold_seconds
    scheme_spreads = {scheme: _spread(scheme_samples[scheme]) for scheme in TREE_SCHEMES}
    binary_warm = scheme_spreads["binary"]["median"]
    seeded_ratio = {
        scheme: round(scheme_spreads[scheme]["median"] / binary_warm, 2)
        for scheme in SEEDED_SCHEMES
    }
    result = {
        "bench": "table1_colbcast_4schemes",
        "scale": SCALE,
        "grid": [grid.pr, grid.pc],
        "nsup": prob.struct.nsup,
        "collectives": ncoll,
        "schemes": SCHEMES,
        "repeats": REPEATS,
        "reference_seconds": ref_spread,
        "vectorized_cold_seconds": cold_spread,
        "vectorized_warm_seconds": warm_spread,
        "speedup": round(speedup, 2),
        "speedup_warm": round(ref_seconds / warm_seconds, 2),
        "reference_collectives_per_sec": round(len(SCHEMES) * ncoll / ref_seconds),
        "vectorized_cold_collectives_per_sec": round(len(SCHEMES) * ncoll / cold_seconds),
        "vectorized_warm_collectives_per_sec": round(len(SCHEMES) * ncoll / warm_seconds),
        "six_scheme_warm_seconds": scheme_spreads,
        "seeded_warm_ratio_to_binary": seeded_ratio,
        "max_seeded_ratio": MAX_SEEDED_RATIO,
        "tree_cache_source": "compiled_tree",
        "tree_cache": cache,
        "unix_time": int(time.time()),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_volume_engine.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    table = Table(
        f"Volume-engine throughput -- Table I x {len(SCHEMES)} schemes, "
        f"audikw_1 proxy, {grid.pr}x{grid.pc} grid, {ncoll} collectives "
        f"({SCALE} tier, median of {REPEATS} alternated repeats)",
        ["engine", "seconds", "IQR", "collectives/s"],
    )
    for name, spread, rate in (
        ("reference", ref_spread, result["reference_collectives_per_sec"]),
        ("vectorized, cold", cold_spread, result["vectorized_cold_collectives_per_sec"]),
        ("vectorized, warm", warm_spread, result["vectorized_warm_collectives_per_sec"]),
    ):
        table.add(
            name,
            f"{spread['median']:.3f}",
            f"{spread['q1']:.3f}-{spread['q3']:.3f}",
            rate,
        )
    six = Table(
        f"Warm pass per scheme ({grid.pr}x{grid.pc}, median of {REPEATS} "
        "alternated repeats; seeded orders memoized per plan)",
        ["scheme", "seconds", "IQR", "x binary"],
    )
    for scheme, spread in scheme_spreads.items():
        six.add(
            scheme,
            f"{spread['median']:.4f}",
            f"{spread['q1']:.4f}-{spread['q3']:.4f}",
            f"{spread['median'] / binary_warm:.2f}",
        )
    thr = record_throughput(
        "bench_perf_volume",
        wall_seconds=warm_seconds,
        extra=dict(speedup=result["speedup"], collectives=ncoll),
    )
    emit(
        "bench_perf_volume",
        table.render()
        + f"\n  speedup: {speedup:.1f}x cold (floor {MIN_SPEEDUP[SCALE]}x), "
        + f"{result['speedup_warm']:.1f}x warm"
        + "".join(
            f"\n  tree cache [compiled_tree, {sec}]: {c['hits']} hits / "
            f"{c['misses']} misses / {c['evictions']} evictions "
            f"(hit rate {c['hit_rate']:.1%})"
            for sec, c in cache.items()
        )
        + "\n" + six.render()
        + "\n" + thr,
    )

    assert speedup >= MIN_SPEEDUP.get(SCALE, 3.0), (
        f"vectorized engine (cold) only {speedup:.1f}x faster than reference"
    )
    for scheme, ratio in seeded_ratio.items():
        assert ratio <= MAX_SEEDED_RATIO, (
            f"warm {scheme} pass {ratio:.2f}x warm binary "
            f"(ceiling {MAX_SEEDED_RATIO}x)"
        )
