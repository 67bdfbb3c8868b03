"""CI gate on the engine head-to-head throughput artifact.

Reads ``results/BENCH_runner.json`` (written by
``bench_runner_scaling.py``) and enforces the reference-run contract:

* both engines produced the bit-identical outcome;
* the head-to-head ran at least :data:`MIN_ROUNDS` alternated rounds;
* the vectorized engine beats the legacy heap engine
  (``--min-vectorized-speedup``, default 1.10x) in the median of the
  per-round speedups;
* the vectorized engine's end-to-end throughput at its median wall
  time stays above ``--min-events-per-sec`` (default 40,000 ev/s -- a
  deliberately loose
  floor that catches order-of-magnitude regressions such as an
  accidentally disabled fast path, while tolerating slow shared CI
  hosts; raise it when gating on known hardware).

Both engines run the same compiled PSelInv protocol, so the ratio and
the identity cover only what differs between them: the scheduler (the
calendar queue against the heapq loop) and the machine
(:class:`~repro.simulate.machine.VecMachine`'s fused per-stage closures
against :class:`~repro.simulate.machine.Machine`'s per-message
:class:`~repro.simulate.machine.Message` route).  The protocol's own
behaviour is pinned by outcome digests in the test suite.

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

#: Fewest alternated head-to-head rounds whose medians the gate accepts.
MIN_ROUNDS = 3


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
    rounds = cmp_.get("rounds", 0)
    if rounds < MIN_ROUNDS:
        failures.append(
            f"head-to-head ran {rounds} round(s); the gate needs medians "
            f"over at least {MIN_ROUNDS}"
        )
    speedup = cmp_.get("vectorized_speedup_median", 0.0)
    if speedup < min_vectorized_speedup:
        failures.append(
            f"median vectorized-vs-legacy speedup {speedup:.3f}x below the "
            f"{min_vectorized_speedup:.2f}x floor"
        )
    ev_s = cmp_.get("vectorized_events_per_sec_median", 0)
    if ev_s < min_events_per_sec:
        failures.append(
            f"median vectorized reference throughput {ev_s:,} ev/s below "
            f"the {min_events_per_sec:,.0f} ev/s floor"
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
        f"throughput floor OK over {cmp_['rounds']} rounds: median "
        f"vectorized {cmp_['vectorized_events_per_sec_median']:,} ev/s "
        f"(>= {args.min_events_per_sec:,.0f}), median "
        f"vectorized-vs-legacy {cmp_['vectorized_speedup_median']}x "
        f"(>= {args.min_vectorized_speedup}), outcomes bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
