"""Per-engine bit-identity smoke over the Fig. 8 quick sweep.

Runs the exact Fig. 8 sweep specs once under each simulation engine
(``legacy``, ``vectorized``) and asserts every
:class:`~repro.runner.RunRecord` agrees bitwise with the legacy
reference (:meth:`RunRecord.same_outcome`: makespan, event count,
compute and communication split, and every per-rank byte/message/
busy-time array).  Each spec also runs a second time with
``telemetry=True`` (metrics + hot spots, which are read out after the
drain); for those
copies the telemetry payload (:attr:`RunRecord.metrics`: hot-spot
statistics, top ranks and the metrics snapshot) must agree as well,
minus the host-dependent series (wall-clock gauges, ``runner.*`` and
the process-global ``comm.tree_cache.*``).  This is the CI guard for
the vectorized engine: the calendar-queue scheduler and the compiled
collective state machines are optimizations, never behavior changes.

Run from ``benchmarks/`` with ``PYTHONPATH=../src:.``:

    REPRO_BENCH_SCALE=quick python check_engine_identity.py --limit 12

``--limit`` caps the spec count for CI time budgets (specs are ordered
smallest grid first, so a prefix still covers every scheme); the
telemetry copies come on top of the capped list.  Exits
non-zero and names the offending specs on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from time import perf_counter

from bench_fig8_scaling import sweep_specs

from repro.runner import run_experiments, store

ENGINES = ("legacy", "vectorized")
REFERENCE = ENGINES[0]

# Series that measure the host rather than the simulation.
HOST_SERIES = ("sim.wall_seconds", "sim.events_per_sec", "runner.", "comm.tree_cache.")


def portable_metrics(metrics: dict) -> dict:
    """A record's telemetry payload without the host-dependent series."""
    if not metrics:
        return metrics
    snapshot = {
        kind: {k: v for k, v in series.items() if not k.startswith(HOST_SERIES)}
        for kind, series in metrics["snapshot"].items()
    }
    return dict(metrics, snapshot=snapshot)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the number of sweep specs (CI time budget)",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (default: REPRO_JOBS / all cores)",
    )
    ap.add_argument(
        "-o",
        "--output",
        default=None,
        help="write a JSON summary of the comparison here",
    )
    args = ap.parse_args(argv)

    specs = sweep_specs()
    if args.limit is not None:
        specs = specs[: args.limit]
    specs = specs + [replace(s, telemetry=True) for s in specs]
    # The result store does not hash the engine (engines are identical
    # by contract), so it would replay one engine's record for another.
    store.configure(enabled=False)

    records = {}
    timings = {}
    for engine in ENGINES:
        eng_specs = [replace(s, engine=engine) for s in specs]
        t0 = perf_counter()
        records[engine] = run_experiments(eng_specs, jobs=args.jobs)
        timings[engine] = perf_counter() - t0
        events = sum(r.events for r in records[engine])
        print(
            f"engine={engine:10s}  {len(specs)} specs, {events:,} events, "
            f"{timings[engine]:.1f}s wall",
            flush=True,
        )

    mismatches = []
    for engine in ENGINES[1:]:
        for spec, ref, rec in zip(specs, records[REFERENCE], records[engine]):
            same = ref.same_outcome(rec)
            same_metrics = portable_metrics(ref.metrics) == portable_metrics(rec.metrics)
            if not (same and same_metrics):
                mismatches.append(
                    dict(
                        spec=spec.describe()
                        + (" telemetry" if spec.telemetry else ""),
                        engine=engine,
                        outcome_equal=same,
                        metrics_equal=same_metrics,
                        reference=dict(makespan=ref.makespan, events=ref.events),
                        candidate=dict(makespan=rec.makespan, events=rec.events),
                    )
                )

    summary = dict(
        specs=len(specs),
        engines=list(ENGINES),
        events=sum(r.events for r in records[REFERENCE]),
        wall_seconds={e: round(timings[e], 3) for e in ENGINES},
        outcome_bit_identical=not mismatches,
        mismatches=mismatches,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    if mismatches:
        print(f"ENGINE MISMATCH on {len(mismatches)} spec/engine pairs:")
        for m in mismatches:
            print(
                f"  {m['spec']} [{m['engine']}]: outcome_equal={m['outcome_equal']} "
                f"metrics_equal={m['metrics_equal']} "
                f"reference={m['reference']} candidate={m['candidate']}"
            )
        return 1
    walls = ", ".join(f"{e} {timings[e]:.1f}s" for e in ENGINES)
    print(
        f"OK: {len(specs)} specs bitwise-identical across engines, telemetry "
        f"payloads included ({walls})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
