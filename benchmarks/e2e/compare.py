"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` (the parent) and ``B.json`` (the change) are files written by
``run.py --out``; each holds many untraced runs, ideally ten or more per
workload with the two sides run alternately.  For every end-to-end
metric of ``BENCHMARK.json`` and every workload, it prints each side's
median and quartiles over runs and a verdict:

* ``improved`` -- B wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than A's quartile spread;
* when either side's spread (IQR / median) is wider than the bound:
  ``worse`` if every B run is worse than every A run, ``improved`` if
  every B run is better, ``unresolved`` otherwise;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``within bound`` -- otherwise.

``ops_failed_frac`` (failed ops over attempted ops, summed over runs)
is ``worse`` on any increase.  Digests of runs with the same workload
and seed must match across the two sets, and every run of both sets
must have the same run length; a mismatch is printed.  Exits 1 on any
``worse`` or mismatch, else 3 on any ``unresolved``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return float("inf") if delta > 0 else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """The verdict on one metric of one workload (A = parent, B = change)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) < 0 and abs(mb - ma) > qa3 - qa1:
        return "improved"
    spread = max(_relative(qa3 - qa1, ma), _relative(qb3 - qb1, mb))
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        return "unresolved"
    return "worse" if _relative(sign * (mb - ma), ma) > bound else "within bound"


def failed_frac(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return [r for r in json.load(fh)["runs"] if not r["trace"]]


def compare(runs_a: list[dict], runs_b: list[dict], metrics: list[dict]) -> tuple[list[str], int]:
    """Report lines and the exit code (see the module docstring)."""
    lines, bad, unresolved = [], False, False
    workloads = sorted({r["workload"] for r in runs_a} & {r["workload"] for r in runs_b})
    header = f"{'workload':22s} {'metric':16s} {'A median [Q1, Q3]':>32s} {'B median [Q1, Q3]':>32s} {'change':>8s}  verdict"
    lines.append(header)
    for wl in workloads:
        ra = [r for r in runs_a if r["workload"] == wl]
        rb = [r for r in runs_b if r["workload"] == wl]
        for m in metrics:
            a = [r["metrics"][m["name"]] for r in ra]
            b = [r["metrics"][m["name"]] for r in rb]
            v = verdict(a, b, m["bound"], m["better"])
            bad |= v == "worse"
            unresolved |= v == "unresolved"
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            change = f"{100 * (mb - ma) / ma:+.1f}%" if ma else f"{mb - ma:+.3g}"
            lines.append(
                f"{wl:22s} {m['name']:16s} "
                f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}] n={len(a)}':>32s} "
                f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}] n={len(b)}':>32s} "
                f"{change:>8s}  {v} (bound {m['bound']:.0%}, {m['unit']}, {m['better']} is better)"
            )
        fa, fb = failed_frac(ra), failed_frac(rb)
        v = "worse" if fb > fa else "within bound"
        bad |= v == "worse"
        lines.append(f"{wl:22s} {'ops_failed_frac':16s} {fa:>32.4g} {fb:>32.4g} {'':>8s}  {v} (any increase)")
    digests_a = {(r["workload"], r["seed"]): r["digest"] for r in runs_a}
    for r in runs_b:
        key = (r["workload"], r["seed"])
        if key in digests_a and digests_a[key] != r["digest"]:
            bad = True
            lines.append(f"DIGEST MISMATCH {key[0]} seed {key[1]}: {digests_a[key][:16]} vs {r['digest'][:16]}")
    lengths = {r["seconds"] for r in runs_a + runs_b}
    if len(lengths) > 1:
        bad = True
        lines.append(f"RUN LENGTH MISMATCH: runs of {sorted(lengths)} s")
    return lines, 1 if bad else 3 if unresolved else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    lines, code = compare(load_runs(argv[0]), load_runs(argv[1]), metrics)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
