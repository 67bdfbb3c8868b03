"""CI gate: collectives must share tree structures.

Reads the ``BENCH_volume_engine.json`` that ``bench_perf_volume.py``
just wrote and asserts the tree-structure cache's counters from one
``compiled_tree`` call per collective of the Table I plans (the
``tree_cache`` section; the volume engine itself does not consult the
cache):

* cold-pass hit rate at least ``--min-hit-rate`` (default 90%; the
  structure-keyed cache measures ~99.9% -- the old rank-keyed cache
  measured ~5%, which is the regression this gate exists to catch);
* zero evictions in either section (the structure keyspace is bounded
  by participant counts x offsets, so any eviction at the fixed
  capacity means the keys regressed to per-rank-set identity);
* warm-pass hit rate of exactly 100% (every structure is already
  cached after the cold pass).

Exit status 0 on pass, 1 with a per-check report on failure::

    PYTHONPATH=../src:. python check_cache_effectiveness.py \
        results/BENCH_volume_engine.json --min-hit-rate 0.90
"""

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", help="path to BENCH_volume_engine.json")
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.90,
        help="cold-pass hit-rate floor (default: 0.90)",
    )
    args = parser.parse_args(argv)

    with open(args.result) as fh:
        data = json.load(fh)
    cache = data["tree_cache"]
    cold, warm = cache["cold"], cache["warm"]

    checks = [
        (
            f"cold hit rate {cold['hit_rate']:.1%} >= {args.min_hit_rate:.0%}",
            cold["hit_rate"] >= args.min_hit_rate,
        ),
        (f"cold evictions {cold['evictions']} == 0", cold["evictions"] == 0),
        (f"warm evictions {warm['evictions']} == 0", warm["evictions"] == 0),
        (f"warm hit rate {warm['hit_rate']:.1%} == 100%", warm["hit_rate"] == 1.0),
    ]
    failed = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    print(
        f"tree cache: {cold['size']} structure(s), "
        f"{cold['hits'] + cold['misses']} cold lookup(s), "
        f"scale={data.get('scale', '?')}"
    )
    if failed:
        print(
            f"cache-effectiveness gate FAILED ({len(failed)} check(s)); "
            "the tree cache is thrashing or keyed too finely",
            file=sys.stderr,
        )
        return 1
    print("cache-effectiveness gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
