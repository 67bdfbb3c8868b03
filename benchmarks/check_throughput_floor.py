"""CI gate on the engine head-to-head throughput artifact.

Reads ``results/BENCH_runner.json`` (written by
``bench_runner_scaling.py``) and enforces the reference-run contract:

* both engines produced the bit-identical outcome;
* the vectorized engine beats the legacy heap engine
  (``--min-vectorized-speedup``, default 1.10x);
* absolute end-to-end throughput of the vectorized engine stays above
  ``--min-events-per-sec`` (default 40,000 ev/s -- a deliberately loose
  floor that catches order-of-magnitude regressions such as an
  accidentally disabled fast path, while tolerating slow shared CI
  hosts; raise it when gating on known hardware).

The relative floors are the primary regression signal: wall-clock on
shared runners swings too much for a tight absolute gate, but the
engines run alternated in one process, so their *ratio* is stable.

Run from ``benchmarks/`` after the runner benchmark:

    python check_throughput_floor.py results/BENCH_runner.json

Exits non-zero with a one-line reason per violated floor.
"""

from __future__ import annotations

import argparse
import json
import sys


def check(payload: dict, *, min_events_per_sec: float,
          min_vectorized_speedup: float) -> list[str]:
    """Return a list of violation messages (empty = gate passes)."""
    failures = []
    cmp_ = payload.get("engine_head_to_head")
    if not cmp_:
        return ["no engine_head_to_head section in the artifact"]
    if not cmp_.get("outcome_bit_identical"):
        failures.append(
            "engines disagree on the reference-run outcome "
            f"(run: {cmp_.get('run')})"
        )
    speedup = cmp_.get("vectorized_speedup", 0.0)
    if speedup < min_vectorized_speedup:
        failures.append(
            f"vectorized-vs-legacy speedup {speedup:.3f}x below the "
            f"{min_vectorized_speedup:.2f}x floor"
        )
    ev_s = cmp_.get("vectorized_events_per_sec", 0)
    if ev_s < min_events_per_sec:
        failures.append(
            f"vectorized reference throughput {ev_s:,} ev/s below the "
            f"{min_events_per_sec:,.0f} ev/s floor"
        )
    for row in payload.get("sweeps", []):
        if not row.get("identical", False):
            failures.append(
                f"jobs={row.get('jobs')} sweep records diverged from serial"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "artifact",
        nargs="?",
        default="results/BENCH_runner.json",
        help="BENCH_runner.json produced by bench_runner_scaling.py",
    )
    ap.add_argument("--min-events-per-sec", type=float, default=40_000)
    ap.add_argument("--min-vectorized-speedup", type=float, default=1.10)
    args = ap.parse_args(argv)

    try:
        with open(args.artifact) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"throughput floor: cannot read {args.artifact}: {exc}")
        return 2

    failures = check(
        payload,
        min_events_per_sec=args.min_events_per_sec,
        min_vectorized_speedup=args.min_vectorized_speedup,
    )
    cmp_ = payload.get("engine_head_to_head", {})
    if failures:
        print(f"throughput floor FAILED for {args.artifact}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"throughput floor OK: vectorized "
        f"{cmp_.get('vectorized_events_per_sec', 0):,} ev/s "
        f"(>= {args.min_events_per_sec:,.0f}), "
        f"vectorized-vs-legacy {cmp_.get('vectorized_speedup')}x "
        f"(>= {args.min_vectorized_speedup}), outcomes bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
