"""End-to-end benchmark of the PSelInv simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--write-golden]

Each workload runs in a fresh child process, one at a time, with one
BLAS/OpenMP thread, the result store off and the default tree-cache
size unless ``WORKLOAD_ENV`` sets one.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``, the one place the run length is
fixed.  The untraced run (the default) reports the ``end_to_end``
metrics of ``BENCHMARK.json``; the traced run (``--trace``) reports its
``per_layer`` metrics and writes the spans and layer ledger to
``results/trace_<workload>.json``.  Every op's outcome is checked (see
``README.md``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import LAYERS, NullTracer, Tracer, layer_ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"

WORKLOAD_NAMES = (
    "fig8_shifted_1024", "hotspots_flat_256", "numeric_dg_64", "volumes_6scheme_1024",
)
#: The volumes workload shrinks the tree cache so that randperm overflows
#: it (see ``suite.py``); the others run at the default size.
WORKLOAD_ENV = {"volumes_6scheme_1024": {"REPRO_TREE_CACHE_SIZE": "8192"}}
DEFAULT_SEED = 0
SETUP_REPS = 3
MIN_OPS = 3
CHILD_TIMEOUT_S = 170
LEDGER_TOLERANCE = 0.05
PROBE_INTERVAL_S = 0.05
PROBE_STEPS = 2000
#: The probe kernel's time on the reference host (a 2.0 GHz Xeon VM,
#: Python 3.11) when it runs undisturbed; ``setup_s`` is scaled to it.
PROBE_REFERENCE_S = 1.4e-3


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_golden() -> dict[str, str]:
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# -- child: one workload in this process ---------------------------------------


def op_failures(out, expected, golden: str | None) -> list[str]:
    """Why one op failed its checks (empty when it passed)."""
    reasons = list(out.errors)
    if out.digest != expected.digest:
        reasons.append("digest differs from the warm-up op")
    if golden is not None and out.digest != golden:
        reasons.append("digest differs from golden.json")
    return reasons


def probe_kernel() -> None:
    """A fixed ~1.5 ms interpreter-bound loop, independent of the library:
    an event drain over a 256-entry binary heap with dict traffic, like
    the simulator's.  The collector is paused while it runs (it makes no
    cycles), so its time does not depend on how many objects the library
    keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    heap = [(i * 1e-6, i, i) for i in range(256)]
    seen: dict[int, int] = {}
    for seq in range(256, PROBE_STEPS):
        t, _, k = heapq.heappop(heap)
        seen[k] = seen.get(k, 0) + 1
        heapq.heappush(heap, (t + (k * 7 % 13 + 1) * 1e-6, seq, (k * 31 + seq) & 255))
    if enabled:
        gc.enable()


class HostProbe:
    """Times :func:`probe_kernel` every ``PROBE_INTERVAL_S`` of wall time
    (``SIGALRM``) while timed code runs, which measures how fast the host
    runs Python during that very code.  A shared host's speed drifts by
    10-20% within seconds; reference timings taken just before and after
    each op track that drift far worse than probes inside it (see
    README.md)."""

    def __enter__(self) -> HostProbe:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t0)


def probed(fn):
    """``fn()`` after a collection, under a :class:`HostProbe`: its result,
    its own wall seconds (probes taken out) and the probe's mean seconds."""
    gc.collect()
    with HostProbe() as probe:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    own = wall - sum(probe.samples)
    if not probe.samples:  # shorter than one probe interval
        probe.sample()
    return result, own, statistics.fmean(probe.samples)


def _timed(fn):
    """``fn()`` after a collection, with its wall and CPU seconds."""
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, time.process_time() - cpu0


def timed_run(wl, seed: int, seconds: float, golden: str | None) -> dict:
    # Set-up and ops are timed under the host probe.  op_rel is an op's
    # own time in units of the probe's mean time during it; setup_s is a
    # repetition's own time scaled by PROBE_REFERENCE_S / that mean, i.e.
    # seconds on the reference host.  Both cancel the host's drift.
    null = NullTracer()
    setup_s, setup_wall_s = [], []
    for _ in range(SETUP_REPS):
        state = None  # each repetition starts cold
        state, own, probe = probed(lambda: wl.setup(seed, null))
        setup_wall_s.append(own)
        setup_s.append(own * PROBE_REFERENCE_S / probe)
    wl.prepare(state, null)
    gc.collect()
    expected = wl.outcome(state, wl.warmup(state))

    op_s, op_rel, probe_s, errors, failed = [], [], [], [], 0
    cpu0, start = time.process_time(), time.perf_counter()
    while len(op_s) < MIN_OPS or time.perf_counter() - start < seconds:
        result = None  # freed before the collection that precedes the op
        result, own, probe = probed(lambda: wl.op(state, null))
        op_s.append(own)
        probe_s.append(probe)
        op_rel.append(own / probe)
        reasons = op_failures(wl.outcome(state, result), expected, golden)
        failed += bool(reasons)
        errors += [f"op {len(op_s)}: {r}" for r in reasons]
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - start)
    return {
        "attempted": len(op_s),
        "failed": failed,
        "errors": errors,
        "digest": expected.digest,
        "samples": {
            "op_s": op_s, "op_rel": op_rel, "probe_s": probe_s,
            "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        },
        "metrics": {
            "op_s": statistics.median(op_s),
            "op_rel": statistics.median(op_rel),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_failed_frac": failed / len(op_s),
            "host.cpu_share": cpu_share,
        },
    }


def trace_run(wl, seed: int, golden: str | None) -> dict:
    from repro.comm.trees import tree_cache_info

    null, tracer = NullTracer(), Tracer()
    with tracer.span("setup"):
        state = wl.setup(seed, tracer)
    with tracer.span("prepare"):
        wl.prepare(state, tracer)
    gc.collect()
    expected = wl.outcome(state, wl.warmup(state))

    # Untraced reference op: the base of every overhead below.
    result, op_wall, op_cpu = _timed(lambda: wl.op(state, null))
    outcomes = [wl.outcome(state, result)]
    obs_overhead = 0.0
    if wl.telemetry_twin:
        result, off_wall, _ = _timed(lambda: wl.warmup(state))
        outcomes.append(wl.outcome(state, result))
        obs_overhead = 100.0 * (op_wall - off_wall) / off_wall
    result = None

    before = tree_cache_info()
    gc.collect()
    with tracer.span("op") as op_span:
        result = wl.op(state, tracer)
    after = tree_cache_info()
    traced_wall = op_span["end"] - op_span["start"]
    traced = wl.outcome(state, result)
    traced.errors += wl.after_trace(state, result, tracer)
    outcomes.append(traced)
    failures = [op_failures(out, expected, golden) for out in outcomes]

    ledger = layer_ledger(pstats.Stats(tracer.profile))
    total = sum(ledger.values())
    profiled = tracer.profiled_wall()
    if abs(total - profiled) > LEDGER_TOLERANCE * profiled:
        raise RuntimeError(
            f"layer ledger sums to {total:.3f} s, traced call took {profiled:.3f} s"
        )
    if ledger["other"] > LEDGER_TOLERANCE * total:
        raise RuntimeError(f"ledger leaves {ledger['other']:.3f} s of {total:.3f} s unattributed")

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    events = traced.counts.get("simulate.events", 0)
    metrics = {
        "sparse.analyze_s": tracer.total("sparse.analyze"),
        "plan.iter_plans_s": tracer.total("plan.iter_plans"),
        "simulate.events": events,
        "simulate.messages": traced.counts.get("simulate.messages", 0),
        "simulate.bytes": traced.counts.get("simulate.bytes", 0.0),
        "simulate.events_per_s": events / op_wall,
        "trees.hits": hits,
        "trees.misses": misses,
        "trees.evictions": after["evictions"] - before["evictions"],
        "trees.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        **{f"{layer}.self_share": ledger[layer] / total for layer in LAYERS},
        "obs.overhead_pct": obs_overhead,
        "host.cpu_share": op_cpu / op_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - op_wall) / op_wall,
        "ledger.other_pct": 100.0 * ledger["other"] / total,
    }
    spans = tracer.export()
    span_totals: dict[str, float] = {}
    for s in spans:
        span_totals[s["name"]] = span_totals.get(s["name"], 0.0) + s["duration_s"]
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace_{wl.name}.json", "w") as fh:
        json.dump(
            {
                "workload": wl.name,
                "seed": seed,
                "digest": expected.digest,
                "op_wall_s": op_wall,
                "traced_op_wall_s": traced_wall,
                "profiled_wall_s": profiled,
                "ledger_s": ledger,
                "metrics": metrics,
                "span_totals_s": span_totals,
                "spans": spans,
            },
            fh,
            indent=1,
        )
    return {
        "attempted": len(outcomes),
        "failed": sum(map(bool, failures)),
        "errors": [r for reasons in failures for r in reasons],
        "digest": expected.digest,
        "span_totals_s": span_totals,
        "metrics": metrics,
    }


def child_main(args) -> dict:
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    from suite import WORKLOADS

    wl = WORKLOADS[args.child]
    golden = load_golden().get(wl.name) if args.seed == DEFAULT_SEED else None
    if args.trace:
        out = trace_run(wl, args.seed, golden)
    else:
        out = timed_run(wl, args.seed, args.seconds, golden)
    return {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **out}


# -- parent: spawn, report, summarize ------------------------------------------


def child_env(name: str) -> dict[str, str]:
    from_path = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC) + (os.pathsep + from_path if from_path else ""),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_STORE="0",
        REPRO_JOBS="1",
    )
    env.pop("REPRO_TREE_CACHE_SIZE", None)
    env.update(WORKLOAD_ENV.get(name, {}))
    return env


def spawn(name: str, args) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=child_env(name), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict, declared: list[dict]) -> None:
    mode = "traced" if res["trace"] else "untraced"
    print(
        f"{res['workload']} ({mode}, seed {res['seed']}): {res['attempted']} ops, "
        f"{res['failed']} failed, digest {res['digest'][:16]}"
    )
    units = {m["name"]: m["unit"] for m in declared}
    samples = res.get("samples", {})
    for name, value in res["metrics"].items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "fraction")
        line = f"  {name:28s} {value:14.6g} {unit}"
        if name in samples:
            line += f"   (median of {len(samples[name])}, IQR {iqr(samples[name]):.4g})"
        print(line)
    for name, value in res.get("span_totals_s", {}).items():
        print(f"  span {name:23s} {value:14.6g} s")
    for err in res["errors"]:
        print(f"  FAILED {err}")


def summary(results: list[dict], declared: list[dict]) -> dict:
    """The contract's last line; metric names are prefixed by workload
    when several workloads ran."""
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}/" if len(results) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def append_runs(path: Path, results: list[dict]) -> None:
    doc = {"runs": []}
    if path.is_file():
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].extend(results)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="how long the timed ops run, never fewer than %d ops "
                    "(default and standard value: run_seconds of BENCHMARK.json)" % MIN_OPS)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path, help="append every run's full result to this JSON file")
    ap.add_argument("--write-golden", action="store_true",
                    help="record the digests of this run (default seed, untraced) as golden")
    ap.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        print("error: --write-golden needs the default seed and an untraced run", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    results = []
    for name in args.workload:
        res = spawn(name, args)
        report(res, declared)
        results.append(res)
    if args.out:
        append_runs(args.out, results)
    if args.write_golden:
        golden = load_golden()
        golden.update({r["workload"]: r["digest"] for r in results})
        with open(GOLDEN, "w") as fh:
            json.dump(dict(sorted(golden.items())), fh, indent=1)
            fh.write("\n")
    print(json.dumps(summary(results, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
