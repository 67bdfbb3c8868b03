"""Parallel experiment runner: wall-clock scaling, engines, telemetry.

Measurements recorded here:

0. *Engine head-to-head* -- the reference run on the legacy binary-heap
   engine vs the vectorized engine (calendar queue, compiled collective
   state machines, one scalar per-message route), in :data:`ENGINE_ROUNDS`
   alternated rounds, reporting each engine's median wall time with its
   IQR and the median of the per-round speedups, asserting a
   bitwise-identical outcome (every :class:`~repro.runner.RunRecord`
   column) and a speedup floor on that median.

1. *Process-pool fan-out* -- the exact Fig. 8 quick sweep (imported from
   :mod:`bench_fig8_scaling`, so this measures the real workload, not a
   synthetic one) is executed serially and with 2 and 4 workers.  The
   records must be bit-identical in every configuration; on a >= 4-core
   host the 4-worker sweep must be >= 2.5x faster than serial.  On
   smaller hosts (CI containers are often 1-2 cores) the timings are
   still recorded but the speedup floor is not asserted -- pool overhead
   with one core is real and expected.
2. *Telemetry overhead* -- the same reference run on the default
   engine with telemetry off, with the runner's bundle (metrics + hot
   spots, read out after the drain) and with :meth:`Telemetry.full`
   (the timeline adds a per-message hook), in
   alternated rounds, medians reported.  The runner bundle must cost at
   most 15% over off, and all three runs must have the same outcome
   (:meth:`RunRecord.same_outcome`).

Results land in ``benchmarks/results/BENCH_runner.json``.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

from repro.analysis import Table
from repro.obs import HotSpotMonitor, MetricsRegistry, Telemetry
from repro.runner import ExperimentSpec, RunRecord, cache, run_experiments
from repro.core import ProcessorGrid, SimulatedPSelInv

from bench_fig8_scaling import sweep_specs
from _harness import (
    RESULTS_DIR,
    SCALE,
    default_scale,
    emit,
    get_plans,
    get_problem,
    record_throughput,
    run_once,
    scaling_processor_counts,
    timing_network,
)


#: Alternated legacy/vectorized rounds of the engine head-to-head.
ENGINE_ROUNDS = 3


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_sweep(specs, jobs):
    t0 = perf_counter()
    # force_jobs: this sweep deliberately measures fixed worker counts
    # (including oversubscription on small CI hosts); the runner's
    # clamp-to-cores guard would silently change what is being timed.
    records = run_experiments(specs, jobs=jobs, prewarm=False, force_jobs=True)
    return records, perf_counter() - t0


def _timed_single_run(*, engine, telemetry=None):
    """One large jittered reference run on the given engine."""
    side = scaling_processor_counts()[-1]
    prob = get_problem("audikw_1")
    grid = ProcessorGrid(side, side)
    sim = SimulatedPSelInv(
        prob.struct,
        grid,
        "shifted",
        network=timing_network(jitter_sigma=0.2),
        seed=20160523,
        plans=get_plans(prob, grid),
        lookahead=4,
        telemetry=telemetry,
        engine=engine,
    )
    t0 = perf_counter()
    res = sim.run()
    return res, perf_counter() - t0


def _reference_side() -> int:
    return scaling_processor_counts()[-1]


def test_runner_scaling(benchmark):
    specs = sweep_specs()
    cache.prewarm(specs)  # pay analysis once, outside every timer
    jobs_grid = [1, 2, 4]
    cores = _cpu_count()

    def compute():
        out = {}
        for jobs in jobs_grid:
            out[jobs] = _timed_sweep(specs, jobs)
        return out

    results = run_once(benchmark, compute)

    base_records, base_time = results[1]
    total_events = sum(r.events for r in base_records)
    table = Table(
        f"Parallel runner -- Fig. 8 {SCALE} sweep ({len(specs)} runs, "
        f"{total_events} DES events, host has {cores} core(s))",
        ["jobs", "wall s", "speedup", "events/s", "identical"],
    )
    rows = []
    for jobs in jobs_grid:
        records, wall = results[jobs]
        identical = len(records) == len(base_records) and all(
            a.same_outcome(b) for a, b in zip(base_records, records)
        )
        rows.append(
            dict(
                jobs=jobs,
                wall_seconds=round(wall, 4),
                speedup=round(base_time / wall, 3),
                events_per_sec=round(total_events / wall),
                identical=identical,
            )
        )
        table.add(
            jobs,
            f"{wall:.2f}",
            f"{base_time / wall:.2f}x",
            f"{total_events / wall:,.0f}",
            identical,
        )

    # Engine head-to-head: the same reference run on the legacy heapq
    # engine and the vectorized engine, alternated round-robin.  Single-
    # shot wall clock on shared hosts swings by 20%+, so each engine
    # reports its median and IQR over the rounds, and the speedup is the
    # median of the per-round ratios (a round's two runs sit next to
    # each other in time, so host drift mostly cancels within it).
    engines = ("legacy", "vectorized")
    times = {e: [] for e in engines}
    eng_res = {}
    for _ in range(ENGINE_ROUNDS):
        for eng in engines:
            r, dt = _timed_single_run(engine=eng)
            eng_res[eng] = r
            times[eng].append(dt)
    ref = eng_res["legacy"]
    med = {e: statistics.median(ts) for e, ts in times.items()}
    ratios = [a / b for a, b in zip(times["legacy"], times["vectorized"])]
    side = _reference_side()
    ref_spec = ExperimentSpec("audikw_1", (side, side), "shifted")
    engine_cmp = dict(
        run=f"audikw_1 {side}^2 ranks, shifted, jitter 0.2",
        events=ref.events,
        rounds=ENGINE_ROUNDS,
        legacy_seconds=[round(t, 4) for t in times["legacy"]],
        vectorized_seconds=[round(t, 4) for t in times["vectorized"]],
        legacy_seconds_median=round(med["legacy"], 4),
        legacy_seconds_iqr=round(_iqr(times["legacy"]), 4),
        vectorized_seconds_median=round(med["vectorized"], 4),
        vectorized_seconds_iqr=round(_iqr(times["vectorized"]), 4),
        legacy_events_per_sec_median=round(ref.events / med["legacy"]),
        vectorized_events_per_sec_median=round(ref.events / med["vectorized"]),
        vectorized_speedup_median=round(statistics.median(ratios), 3),
        vectorized_speedup_iqr=round(_iqr(ratios), 3),
        outcome_bit_identical=RunRecord.from_result(ref_spec, ref).same_outcome(
            RunRecord.from_result(ref_spec, eng_res["vectorized"])
        ),
    )

    # Telemetry overhead on the default engine: off, the runner's bundle
    # (metrics + hot spots) and the full bundle (timeline too).  A fresh
    # bundle per run (a monitor accumulates), alternated rounds, medians.
    nranks = _reference_side() ** 2
    labels = dict(workload="audikw_1", scheme="shifted")
    bundles = {
        "off": lambda: None,
        "runner": lambda: Telemetry(
            metrics=MetricsRegistry(**labels), hotspots=HotSpotMonitor(nranks)
        ),
        "full": lambda: Telemetry.full(nranks, **labels),
    }
    tel_times = {name: [] for name in bundles}
    tel_recs = {}
    for _ in range(3):
        for name, make in bundles.items():
            r, dt = _timed_single_run(engine="vectorized", telemetry=make())
            tel_recs[name] = RunRecord.from_result(ref_spec, r)
            tel_times[name].append(dt)
    tmed = {name: statistics.median(ts) for name, ts in tel_times.items()}
    tel_cmp = dict(
        run=engine_cmp["run"],
        engine="vectorized",
        rounds=3,
        off_seconds=round(tmed["off"], 4),
        runner_bundle_seconds=round(tmed["runner"], 4),
        full_seconds=round(tmed["full"], 4),
        runner_bundle_overhead_pct=round((tmed["runner"] / tmed["off"] - 1) * 100, 2),
        full_overhead_pct=round((tmed["full"] / tmed["off"] - 1) * 100, 2),
        runner_bundle_budget_pct=15.0,
        outcome_bit_identical=all(
            tel_recs[name].same_outcome(tel_recs["off"]) for name in ("runner", "full")
        ),
    )

    throughput_note = record_throughput(
        "runner_scaling",
        wall_seconds=base_time,
        events=total_events,
        extra=dict(jobs=1, specs=len(specs)),
    )
    lines = [
        table.render(),
        "",
        f"engine head-to-head (reference run, median [IQR] of {ENGINE_ROUNDS}"
        " alternated rounds):",
        "  legacy (heapq):          "
        f"{engine_cmp['legacy_events_per_sec_median']:,}/s"
        f" ({med['legacy']:.2f}s [{engine_cmp['legacy_seconds_iqr']:.2f}])",
        "  vectorized (compiled):   "
        f"{engine_cmp['vectorized_events_per_sec_median']:,}/s"
        f" ({med['vectorized']:.2f}s"
        f" [{engine_cmp['vectorized_seconds_iqr']:.2f}])"
        f"  -> {engine_cmp['vectorized_speedup_median']:.2f}x"
        f" [{engine_cmp['vectorized_speedup_iqr']:.2f}]",
        f"  outcome bit-identical:   {engine_cmp['outcome_bit_identical']}",
        "",
        "telemetry overhead (reference run, vectorized engine, median of 3"
        " alternated rounds):",
        f"  off:                      {tmed['off']:.2f}s",
        f"  runner (metrics+hotspots): {tmed['runner']:.2f}s"
        f"  ({tel_cmp['runner_bundle_overhead_pct']:+.1f}%, budget 15%)",
        f"  full (+ timeline):         {tmed['full']:.2f}s"
        f"  ({tel_cmp['full_overhead_pct']:+.1f}%)",
        f"  outcome bit-identical:     {tel_cmp['outcome_bit_identical']}",
        "",
        throughput_note,
    ]
    emit("runner_scaling", "\n".join(lines))

    payload = dict(
        bench="runner_scaling_fig8_sweep",
        scale=SCALE,
        workload_scale=default_scale(),
        cpu_count=cores,
        specs=len(specs),
        total_events=total_events,
        sweeps=rows,
        engine_head_to_head=engine_cmp,
        telemetry_overhead=tel_cmp,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_runner.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Bit-identity is unconditional; the speedup floor needs real cores.
    assert all(r["identical"] for r in rows)
    # The vectorized engine must beat the heapq engine on its outcome-
    # preserving reference run.  The 1.10x floor is the product of the
    # two 1.05x floors it replaced (heapq -> calendar queue -> compiled
    # protocol), so the gate is no looser; an accidentally disabled fast
    # path is a >1.2x hit per stage.
    assert engine_cmp["outcome_bit_identical"], engine_cmp
    assert engine_cmp["vectorized_speedup_median"] >= 1.10, engine_cmp
    if cores >= 4:
        four = next(r for r in rows if r["jobs"] == 4)
        assert four["speedup"] >= 2.5, four
    # Telemetry must never perturb the simulated outcome, and the runner
    # bundle (read out after the drain) must stay inside its budget.
    assert tel_cmp["outcome_bit_identical"], tel_cmp
    assert tel_cmp["runner_bundle_overhead_pct"] <= 15.0, tel_cmp
