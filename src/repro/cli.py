"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments::

    python -m repro workloads                 # list workload proxies
    python -m repro analyze audikw_1          # symbolic stats (Table II cols)
    python -m repro volumes audikw_1 -g 8     # Tables I/II volume summary
    python -m repro heatmap audikw_1 -g 8     # Fig. 5 ASCII heat maps
    python -m repro scaling -g 16 -r 2        # Fig. 8 mini strong scaling
    python -m repro bench -g 16 -r 2 -j 4     # same sweep, 4 workers
    python -m repro selinv                    # quick numeric demo + check
    python -m repro check                     # communication-correctness
                                              # analyzer (all workloads)
    python -m repro trace -o out.trace.json   # Perfetto timeline of one
                                              # DES run (repro.obs)
    python -m repro hotspots                  # ranked per-rank hot-spot
                                              # report per scheme

All commands run on the simulated machine; nothing requires MPI.  Sweep
commands (``scaling``/``bench``/``check``) fan out across a process pool:
``--jobs N`` overrides the ``REPRO_JOBS`` environment knob (1 = serial;
results are bit-identical either way), and every completed item prints a
progress + elapsed-time line to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _progress(done: int, total: int, item, result, elapsed: float) -> None:
    """Per-item progress line for long sweeps (stderr, flushed)."""
    if isinstance(item, dict):
        name = str(item.get("name", item))
    elif hasattr(item, "describe"):
        name = item.describe()
    else:
        name = str(item)
    print(
        f"  [{done}/{total}] {name}  ({elapsed:.1f}s elapsed)",
        file=sys.stderr,
        flush=True,
    )


def _cmd_workloads(args) -> int:
    from .workloads import WORKLOADS, workload_names

    print(f"{'name':<20} {'regime':<7} {'paper n':>10}  description")
    for name in workload_names():
        w = WORKLOADS[name]
        print(f"{name:<20} {w.regime:<7} {w.paper_n:>10,}  {w.description[:60]}")
    return 0


def _analyzed(args):
    from .sparse import analyze
    from .workloads import make_workload

    matrix = make_workload(args.workload, args.scale)
    return analyze(matrix, ordering="nd", max_supernode=args.max_supernode)


def _cmd_analyze(args) -> int:
    prob = _analyzed(args)
    st = prob.stats()
    for k, v in st.items():
        print(f"{k:>12}: {v:,}" if isinstance(v, int) else f"{k:>12}: {v:.3f}")
    return 0


def _cmd_volumes(args) -> int:
    from .analysis import Table
    from .core import ProcessorGrid, communication_volumes, iter_plans, volume_summary

    prob = _analyzed(args)
    grid = ProcessorGrid(args.grid, args.grid)
    plans = list(iter_plans(prob.struct, grid))
    for title, getter in (
        ("Col-Bcast sent (MB)  [Table I]", "col_bcast_sent"),
        ("Row-Reduce received (MB)  [Table II]", "row_reduce_received"),
    ):
        table = Table(title, ["scheme", "min", "max", "median", "std"])
        for scheme in ("flat", "binary", "shifted"):
            rep = communication_volumes(
                prob.struct, grid, scheme, seed=args.seed, plans=plans
            )
            s = volume_summary(getattr(rep, getter)())
            table.add(scheme, s["min"], s["max"], s["median"], s["std"])
        print(table.render())
        print()
    return 0


def _cmd_heatmap(args) -> int:
    from .analysis import render_ascii, uniformity
    from .core import ProcessorGrid, communication_volumes, iter_plans

    prob = _analyzed(args)
    grid = ProcessorGrid(args.grid, args.grid)
    plans = list(iter_plans(prob.struct, grid))
    maps = {}
    for scheme in ("flat", "binary", "shifted"):
        rep = communication_volumes(
            prob.struct, grid, scheme, seed=args.seed, plans=plans
        )
        maps[scheme] = rep.heatmap("col-bcast-total")
    vmax = max(maps["flat"].max(), maps["shifted"].max())
    for scheme, hm in maps.items():
        print(f"[{scheme}]  coeff-of-variation={uniformity(hm):.3f}")
        print(render_ascii(hm, vmax=vmax if scheme != "binary" else None))
        print()
    return 0


def _print_sweep_stats(runner) -> None:
    """One stderr line per cache layer for a finished sweep."""
    snap = runner.metrics_snapshot()
    counters, gauges = snap["counters"], snap["gauges"]

    def line(label: str, prefix: str, rate_key: str | None) -> None:
        hits = counters.get(f"{prefix}hits", 0)
        misses = counters.get(f"{prefix}misses", 0)
        if not (hits or misses):
            return
        extra = ""
        if rate_key is not None:
            extra = f"  hit-rate={gauges.get(rate_key, 0.0):.1%}"
        ev = counters.get(f"{prefix}evictions")
        if ev:
            extra += f"  evictions={ev}"
        rb = counters.get(f"{prefix}bytes_read", 0)
        wb = counters.get(f"{prefix}bytes_written", 0)
        if rb or wb:
            extra += f"  read={rb:,}B written={wb:,}B"
        print(
            f"  {label}: {hits} hit(s) / {misses} miss(es){extra}",
            file=sys.stderr,
        )

    line("tree cache", "comm.tree_cache.", "comm.tree_cache.hit_rate")
    line("result store", "runner.store.", "runner.store.hit_rate")


def _cmd_scaling(args) -> int:
    """Fig. 8 mini strong-scaling sweep (also exposed as ``repro bench``).

    Experiments fan out across the parallel runner; records merge in
    spec order, so the printed tables are identical for any ``--jobs``.

    The persistent result store is on by default (records are keyed by a
    stable spec hash, so a re-run with unchanged parameters replays
    stored records instead of simulating); ``--no-store`` disables it,
    ``--refresh`` recomputes and overwrites, ``--store-dir`` relocates it.
    """
    from .analysis import ScalingSeries, Table, speedup_table
    from .runner import ExperimentSpec, ParallelRunner, store
    from .simulate import NetworkConfig

    store.configure(
        enabled=not args.no_store,
        refresh=args.refresh,
        directory=args.store_dir,
    )
    net = NetworkConfig(jitter_sigma=0.2)
    sides = [s for s in (4, 8, 16, 23, 32, 46) if s <= args.grid]
    schemes = ("flat", "binary", "shifted")
    specs = [
        ExperimentSpec(
            workload=args.workload,
            scale=args.scale,
            max_supernode=args.max_supernode,
            grid=(side, side),
            scheme=scheme,
            network=net,
            seed=args.seed,
            jitter_seed=run,
            placement_seed=run + 77,
            lookahead=4,
            label=scheme,
            engine=args.engine,
        )
        for side in sides
        for scheme in schemes
        for run in range(args.runs)
    ]
    runner = ParallelRunner(
        args.jobs, progress=_progress, force_jobs=args.force_jobs
    )
    records = runner.run(specs)
    _print_sweep_stats(runner)
    series = {s: ScalingSeries(s) for s in schemes}
    for rec in records:
        series[rec.spec.label].add(
            rec.spec.grid[0] * rec.spec.grid[1], rec.makespan
        )
    for side in sides:
        for scheme in schemes:
            p = side * side
            print(
                f"P={p:5d} {scheme:8s} "
                f"{series[scheme].mean(p) * 1e3:8.2f} ms "
                f"± {series[scheme].std(p) * 1e3:.2f}",
                file=sys.stderr,
            )
    table = Table("Strong scaling (simulated ms)", ["P", *schemes])
    for side in sides:
        p = side * side
        table.add(p, *(f"{series[s].mean(p) * 1e3:.2f}" for s in schemes))
    print(table.render())
    sp = speedup_table(series["flat"], series["shifted"])
    print("\nshifted speedup over flat: " + "  ".join(
        f"P={p}: {v:.2f}x" for p, v in sp.items()
    ))
    return 0


def _cmd_concurrency(args) -> int:
    from .analysis import concurrency_profile, critical_path, pipeline_depth_estimate

    prob = _analyzed(args)
    prof = concurrency_profile(prob.struct)
    cp = critical_path(prob.struct)
    est = pipeline_depth_estimate(prob.struct, args.grid * args.grid)
    print(f"supernodes        : {prof['nsup']}")
    print(f"task-DAG depth    : {prof['depth']}")
    print(f"max level width   : {prof['max_width']}")
    print(f"work (flops)      : {cp['work']:.3e}")
    print(f"span (flops)      : {cp['span']:.3e}")
    print(f"max speedup bound : {cp['max_speedup']:.1f}x")
    print(
        f"suggested window  : {est['suggested_window']:.0f} supernodes "
        f"for {args.grid * args.grid} ranks"
    )
    return 0


def _cmd_selinv(args) -> int:
    from .core import ProcessorGrid, SimulatedPSelInv
    from .sparse import analyze, selinv_sequential
    from .sparse.factor import factorize
    from .workloads import grid_laplacian_2d

    matrix = grid_laplacian_2d(10, 10, rng=np.random.default_rng(0))
    prob = analyze(matrix, ordering="nd")
    _, inv = selinv_sequential(prob)
    dense_inv = np.linalg.inv(prob.matrix.to_dense())
    rr, cc = inv.stored_positions()
    err = np.abs(inv.to_dense_at_structure()[rr, cc] - dense_inv[rr, cc]).max()
    print(f"sequential selinv on 10x10 Laplacian: max |err| = {err:.2e}")
    raw = factorize(prob.matrix, prob.struct)
    res = SimulatedPSelInv(
        prob.struct, ProcessorGrid(3, 3), "shifted", factor=raw
    ).run()
    perr = np.abs(
        res.inverse.to_dense_at_structure() - inv.to_dense_at_structure()
    ).max()
    print(f"simulated 3x3-grid PSelInv: max |diff| = {perr:.2e}, "
          f"makespan {res.makespan * 1e3:.3f} ms")
    return 0 if max(err, perr) < 1e-9 else 1


def _resolve_problem(workload: str, scale: str, max_supernode: int):
    """Workload name -> analyzed problem, with the quick-tier alias.

    ``laplacian-quick`` / ``laplacian`` is the small seeded 2D grid
    Laplacian the checker's trace tier uses -- small enough to run a
    fully-recorded DES in under a second.
    """
    from .sparse import analyze

    if workload in ("laplacian-quick", "laplacian"):
        from .workloads import grid_laplacian_2d

        matrix = grid_laplacian_2d(12, 12, rng=np.random.default_rng(0))
    else:
        from .workloads import make_workload

        matrix = make_workload(workload, scale)
    return analyze(matrix, ordering="nd", max_supernode=max_supernode)


def _cmd_trace(args) -> int:
    """One fully-telemetered DES run exported as Chrome trace JSON."""
    from .core import ProcessorGrid, SimulatedPSelInv
    from .obs import Telemetry, validate_chrome_trace

    prob = _resolve_problem(args.workload, args.scale, args.max_supernode)
    grid = ProcessorGrid(args.grid, args.grid)
    telemetry = Telemetry.full(
        grid.size, workload=args.workload, scheme=args.scheme
    )
    res = SimulatedPSelInv(
        prob.struct, grid, args.scheme, seed=args.seed, telemetry=telemetry,
        engine=args.engine,
    ).run()
    trace = telemetry.timeline.write(
        args.output,
        workload=args.workload,
        scheme=args.scheme,
        grid=f"{grid.pr}x{grid.pc}",
        seed=args.seed,
        makespan_seconds=res.makespan,
        des_events=res.events,
    )
    summary = validate_chrome_trace(trace)
    print(
        f"wrote {args.output}: {summary['n_events']} trace events, "
        f"{summary['n_lanes']} lanes, "
        f"{(summary['ts_max'] - summary['ts_min']) / 1e3:.3f} ms simulated "
        f"(open in https://ui.perfetto.dev)"
    )
    if args.metrics_out:
        import json

        with open(args.metrics_out, "w") as fh:
            json.dump(telemetry.metrics.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out}")
    print()
    print(telemetry.hotspots.report(args.top, label=f"{args.scheme}"))
    return 0


def _cmd_hotspots(args) -> int:
    """Per-scheme ranked hot-spot report (the live Fig. 5/7 counterpart)."""
    from .core import ProcessorGrid, SimulatedPSelInv, iter_plans
    from .obs import HotSpotMonitor, MetricsRegistry, Telemetry

    prob = _resolve_problem(args.workload, args.scale, args.max_supernode)
    grid = ProcessorGrid(args.grid, args.grid)
    plans = list(iter_plans(prob.struct, grid))
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    for scheme in schemes:
        monitor = HotSpotMonitor(grid.size)
        metrics = MetricsRegistry(workload=args.workload, scheme=scheme)
        SimulatedPSelInv(
            prob.struct,
            grid,
            scheme,
            seed=args.seed,
            plans=plans,
            telemetry=Telemetry(hotspots=monitor, metrics=metrics),
            engine=args.engine,
        ).run()
        print(
            monitor.report(
                args.top, label=f"{args.workload} scheme={scheme}"
            )
        )
        snap = metrics.snapshot()
        cache_series = {
            k: v
            for bucket in ("counters", "gauges")
            for k, v in snap[bucket].items()
            if "comm.tree_cache." in k
        }
        if cache_series:
            print("  tree cache (shared LRU, this run's deltas):")
            for k, v in sorted(cache_series.items()):
                name = k.split("{")[0]
                val = f"{v:.3f}" if isinstance(v, float) else str(v)
                print(f"    {name:28s} {val}")
        print()
    return 0


def _cmd_check(args) -> int:
    from .check import CODE_DESCRIPTIONS, run_checks

    if args.codes:
        for code, desc in CODE_DESCRIPTIONS.items():
            print(f"{code}  {desc}")
        return 0
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    res = run_checks(
        args.workload,
        scale=args.scale,
        grid_side=args.grid,
        schemes=schemes,
        seed=args.seed,
        trace=True if args.trace else None,
        jobs=args.jobs,
        force_jobs=args.force_jobs,
        progress=_progress,
    )
    for d in res.all():
        print(d)
    npass = {"plan": len(res.plan), "hb": len(res.hb), "det": len(res.det)}
    traced = ", ".join(f"{w}/{s}" for w, s in res.traced) or "none"
    print(
        f"plan verifier: {npass['plan']} finding(s) | "
        f"happens-before: {npass['hb']} | determinism lint: {npass['det']}"
    )
    print(f"traces validated: {traced}")
    if res.clean:
        print("check: clean")
        return 0
    print(f"check: {len(res.all())} finding(s)", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="PSelInv tree-based restricted collectives reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workload proxies").set_defaults(
        fn=_cmd_workloads
    )

    def common(sp, grid_default=8):
        sp.add_argument("workload", nargs="?", default="audikw_1")
        sp.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
        sp.add_argument("--max-supernode", type=int, default=8)
        sp.add_argument("-g", "--grid", type=int, default=grid_default)
        sp.add_argument("--seed", type=int, default=20160523)

    def jobs_option(sp):
        sp.add_argument(
            "-j",
            "--jobs",
            type=int,
            default=None,
            help="parallel worker processes (default: REPRO_JOBS or all "
            "cores; 1 = serial; results are identical either way)",
        )
        sp.add_argument(
            "--force-jobs",
            action="store_true",
            help="allow --jobs above the available CPU count instead of "
            "clamping (oversubscription only adds scheduler churn, but "
            "measuring that is occasionally the point)",
        )

    def engine_option(sp):
        sp.add_argument(
            "--engine",
            default="vectorized",
            choices=["batch", "vectorized", "legacy"],
            help="DES engine: compiled vectorized dispatch (default), "
            "calendar-queue batch dispatch, or the binary-heap reference; "
            "outcomes are bit-identical",
        )

    def store_options(sp):
        sp.add_argument(
            "--no-store",
            action="store_true",
            help="disable the persistent result store (always simulate)",
        )
        sp.add_argument(
            "--refresh",
            action="store_true",
            help="recompute every record and overwrite the stored copy",
        )
        sp.add_argument(
            "--store-dir",
            default=None,
            help="result-store root (default: REPRO_STORE_DIR or "
            "~/.cache/repro/store)",
        )

    sp = sub.add_parser("analyze", help="symbolic factorization stats")
    common(sp)
    sp.set_defaults(fn=_cmd_analyze)

    sp = sub.add_parser("volumes", help="Tables I/II volume summaries")
    common(sp)
    sp.set_defaults(fn=_cmd_volumes)

    sp = sub.add_parser("heatmap", help="Fig. 5 ASCII heat maps")
    common(sp)
    sp.set_defaults(fn=_cmd_heatmap)

    sp = sub.add_parser("scaling", help="Fig. 8 mini strong-scaling sweep")
    common(sp, grid_default=16)
    sp.add_argument("-r", "--runs", type=int, default=2)
    jobs_option(sp)
    engine_option(sp)
    store_options(sp)
    sp.set_defaults(fn=_cmd_scaling)

    sp = sub.add_parser(
        "bench",
        help="parallel experiment sweep (the scaling sweep through the "
        "process-pool runner; alias of 'scaling')",
    )
    common(sp, grid_default=16)
    sp.add_argument("-r", "--runs", type=int, default=2)
    jobs_option(sp)
    engine_option(sp)
    store_options(sp)
    sp.set_defaults(fn=_cmd_scaling)

    sp = sub.add_parser(
        "concurrency", help="elimination-tree parallelism profile"
    )
    common(sp)
    sp.set_defaults(fn=_cmd_concurrency)

    sp = sub.add_parser("selinv", help="quick numeric correctness demo")
    sp.set_defaults(fn=_cmd_selinv)

    sp = sub.add_parser(
        "trace",
        help="run one DES experiment with full telemetry and export a "
        "Perfetto-loadable Chrome trace (repro.obs)",
    )
    sp.add_argument(
        "--workload",
        default="laplacian-quick",
        help="registry workload name or 'laplacian-quick' (default)",
    )
    sp.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    sp.add_argument("--max-supernode", type=int, default=8)
    sp.add_argument("-g", "--grid", type=int, default=4)
    sp.add_argument("--seed", type=int, default=20160523)
    sp.add_argument("--scheme", default="shifted")
    sp.add_argument(
        "-o", "--output", default="out.trace.json",
        help="trace file to write (Chrome trace-event JSON)",
    )
    sp.add_argument(
        "--metrics-out",
        default=None,
        help="also write the metrics-registry snapshot as JSON",
    )
    sp.add_argument("-k", "--top", type=int, default=5)
    engine_option(sp)
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser(
        "hotspots",
        help="ranked top-k hottest-rank report per scheme (live Fig. 5/7)",
    )
    sp.add_argument(
        "--workload",
        default="laplacian-quick",
        help="registry workload name or 'laplacian-quick' (default)",
    )
    sp.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    sp.add_argument("--max-supernode", type=int, default=8)
    sp.add_argument("-g", "--grid", type=int, default=4)
    sp.add_argument("--seed", type=int, default=20160523)
    sp.add_argument(
        "--schemes",
        default="flat,binary,shifted",
        help="comma-separated tree schemes to report on",
    )
    sp.add_argument("-k", "--top", type=int, default=5)
    engine_option(sp)
    sp.set_defaults(fn=_cmd_hotspots)

    sp = sub.add_parser(
        "check",
        help="communication-correctness analyzer (plan verifier, "
        "happens-before/race checker, determinism lint)",
    )
    sp.add_argument(
        "--workload",
        default="all",
        help="registry workload name, 'laplacian' (quick tier), or 'all'",
    )
    sp.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    sp.add_argument("-g", "--grid", type=int, default=4)
    sp.add_argument("--seed", type=int, default=20160523)
    sp.add_argument(
        "--schemes",
        default="flat,binary,shifted",
        help="comma-separated tree schemes to verify",
    )
    sp.add_argument(
        "--trace",
        action="store_true",
        help="force DES trace validation for every checked workload "
        "(default: quick laplacian tier only)",
    )
    sp.add_argument(
        "--codes",
        action="store_true",
        help="list diagnostic codes and exit",
    )
    jobs_option(sp)
    sp.set_defaults(fn=_cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
