"""Parallel experiment runner: wall-clock scaling + hot-path slimming.

Measurements recorded here:

0. *Engine head-to-head* -- the reference run on the legacy binary-heap
   engine vs the vectorized engine (calendar queue, compiled collective
   state machines, batched delivery), alternated round-robin with
   best-of per engine, asserting a bitwise-identical outcome (every
   :class:`~repro.runner.RunRecord` column) and a speedup floor.

1. *Process-pool fan-out* -- the exact Fig. 8 quick sweep (imported from
   :mod:`bench_fig8_scaling`, so this measures the real workload, not a
   synthetic one) is executed serially and with 2 and 4 workers.  The
   records must be bit-identical in every configuration; on a >= 4-core
   host the 4-worker sweep must be >= 2.5x faster than serial.  On
   smaller hosts (CI containers are often 1-2 cores) the timings are
   still recorded but the speedup floor is not asserted -- pool overhead
   with one core is real and expected.
2. *Per-message hot path* -- one representative large run is timed with
   the slimmed :class:`repro.simulate.Network` and with a faithful
   re-creation of the pre-optimization query path (per-call config
   attribute chasing, divisions instead of multiply-by-inverse, tuple
   -keyed jitter memo), reported as DES events/second.
3. *Telemetry overhead* -- the same reference run timed against a
   guard-free re-creation of the pre-telemetry :class:`Machine` hot path
   (no ``recorder is not None`` tests), and with full telemetry
   (timeline + metrics + hot-spot monitor) enabled.  Disabled telemetry
   must stay within the 5% overhead budget and must not change the DES
   outcome; enabled overhead is recorded for reference.

Results land in ``benchmarks/results/BENCH_runner.json``.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from repro.analysis import Table
from repro.obs import Telemetry
from repro.runner import ExperimentSpec, RunRecord, cache, run_experiments
from repro.simulate import Network
from repro.simulate.machine import Machine
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


class _LegacyNetwork(Network):
    """The pre-optimization per-message query path, for the before/after
    events/sec comparison: config attribute chasing and a division on
    every call, distance class via an indexed table, and a tuple-keyed
    dict memo for the pair jitter."""

    def injection_time(self, nbytes):
        cfg = self.config
        return cfg.injection_overhead + nbytes / cfg.injection_bandwidth

    def ejection_time(self, nbytes):
        return nbytes / self.config.ejection_bandwidth

    def _legacy_pair_jitter(self, src, dst):
        if self.config.jitter_sigma <= 0:
            return 1.0
        a, b = self.node_of[src], self.node_of[dst]
        if a == b:
            return 1.0
        if a > b:
            a, b = b, a
        key = (int(a), int(b))
        j = self._jitter.get(key)
        if j is None:
            j = self._draw_jitter(*key)
            self._jitter[key] = j
        return j

    def transit_time(self, src, dst, nbytes):
        cfg = self.config
        d = self.distance_class(src, dst)
        lat = (cfg.latency_intra_node, cfg.latency_intra_group,
               cfg.latency_inter_group)[d]
        bw = (cfg.bw_intra_node, cfg.bw_intra_group, cfg.bw_inter_group)[d]
        return (lat + nbytes / bw) * self._legacy_pair_jitter(src, dst)


class _PreTelemetryMachine(Machine):
    """The pre-telemetry Machine hot path: the same scheduling arithmetic
    with no recorder guards, for measuring what the ``_rec is not None``
    tests cost when telemetry is disabled."""

    def post_send(self, src, dst, tag, nbytes, category, payload=None):
        from repro.simulate.machine import Message, TraceEvent

        nbytes = int(nbytes)
        msg = Message(src, dst, tag, nbytes, category, payload)
        sim = self.sim
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", sim.now, src, dst, tag, nbytes)
            )
        if src == dst:
            sim.schedule_at(sim.now, self._deliver, msg)
            return
        self.stats.on_send(msg)
        inj = self._injection_time(nbytes)
        now = sim.now
        nic = self._nic_free[src]
        start = nic if nic > now else now
        finish = start + inj
        self._nic_free[src] = finish
        self.stats._nic_out_busy[src] += inj
        arrival = finish + self._transit_time(src, dst, nbytes)
        ch = self._channel_last
        if self._flat_channels:
            idx = src * self.nranks + dst
            if arrival < ch[idx]:
                arrival = ch[idx]
            ch[idx] = arrival
        else:
            key = (src, dst)
            last = ch.get(key, 0.0)
            if arrival < last:
                arrival = last
            ch[key] = arrival
        sim.schedule_at(arrival, self._receive, msg)

    def _receive(self, msg):
        self.stats.on_receive(msg)
        dst = msg.dst
        now = self.sim.now
        eject = self._ejection_time(msg.nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self.stats._nic_in_busy[dst] += eject
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        self._cpu_free[dst] = start + oh
        self.stats._recv_overhead_busy[dst] += oh
        self.sim.schedule_at(start + oh, self._deliver, msg)

    def _deliver(self, msg):
        if self._event_log is not None:
            from repro.simulate.machine import TraceEvent

            self._event_log.append(
                TraceEvent(
                    "deliver", self.sim.now, msg.src, msg.dst, msg.tag,
                    msg.nbytes,
                )
            )
        fn = self._handlers[msg.dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {msg.dst}")
        fn(msg)

    def post_compute(self, rank, seconds, fn=None, *, flops=None, label=None):
        if flops is not None:
            seconds = self.network.compute_time(flops)
        if seconds < 0:
            raise ValueError("negative compute time")
        now = self.sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        if fn is not None:
            self.sim.schedule_at(finish, fn)


def _timed_single_run(
    network_cls, *, machine_cls=Machine, telemetry=None, engine="legacy"
):
    """One large jittered run under the given Network/Machine classes; the
    classes are swapped via the pselinv module so :class:`SimulatedPSelInv`
    (and the Machine's pre-bound query methods) pick them up at
    construction.  The network/machine comparisons replicate legacy-path
    variants, so they pin ``engine="legacy"``; the engine head-to-head
    passes the engine explicitly."""
    import repro.core.pselinv as pselinv_mod

    side = scaling_processor_counts()[-1]
    prob = get_problem("audikw_1")
    grid = ProcessorGrid(side, side)
    plans = get_plans(prob, grid)
    orig_net = pselinv_mod.Network
    orig_machine = pselinv_mod.Machine
    pselinv_mod.Network = network_cls
    pselinv_mod.Machine = machine_cls
    try:
        sim = SimulatedPSelInv(
            prob.struct,
            grid,
            "shifted",
            network=timing_network(jitter_sigma=0.2),
            seed=20160523,
            plans=plans,
            lookahead=4,
            telemetry=telemetry,
            engine=engine,
        )
        t0 = perf_counter()
        res = sim.run()
        dt = perf_counter() - t0
    finally:
        pselinv_mod.Network = orig_net
        pselinv_mod.Machine = orig_machine
    return res, dt


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
    # engine and the vectorized engine.  Alternated round-robin with
    # best-of per engine: single-shot wall clock on shared hosts swings
    # by 20%+, and in-process heap growth penalizes whichever run goes
    # last, so no ordering is allowed to decide the comparison.
    engines = ("legacy", "vectorized")
    best = {e: float("inf") for e in engines}
    eng_res = {}
    for _ in range(3):
        for eng in engines:
            r, dt = _timed_single_run(Network, engine=eng)
            eng_res[eng] = r
            best[eng] = min(best[eng], dt)
    ref = eng_res["legacy"]
    side = _reference_side()
    ref_spec = ExperimentSpec("audikw_1", (side, side), "shifted")
    engine_cmp = dict(
        run=f"audikw_1 {side}^2 ranks, shifted, jitter 0.2",
        events=ref.events,
        legacy_seconds=round(best["legacy"], 4),
        vectorized_seconds=round(best["vectorized"], 4),
        legacy_events_per_sec=round(ref.events / best["legacy"]),
        vectorized_events_per_sec=round(ref.events / best["vectorized"]),
        vectorized_speedup=round(best["legacy"] / best["vectorized"], 3),
        outcome_bit_identical=RunRecord.from_result(ref_spec, ref).same_outcome(
            RunRecord.from_result(ref_spec, eng_res["vectorized"])
        ),
    )

    # Hot-path slimming: one large run, legacy vs slimmed network.
    res_new, dt_new = _timed_single_run(Network)
    res_old, dt_old = _timed_single_run(_LegacyNetwork)
    net_cmp = dict(
        run=f"audikw_1 {_reference_side()}^2 ranks, shifted, jitter 0.2",
        events=res_new.events,
        legacy_seconds=round(dt_old, 4),
        slimmed_seconds=round(dt_new, 4),
        legacy_events_per_sec=round(res_old.events / dt_old),
        slimmed_events_per_sec=round(res_new.events / dt_new),
        speedup=round(dt_old / dt_new, 3),
    )

    # Telemetry overhead on the same reference run.  The two
    # disabled-path variants back a 5% budget assertion, so they run in
    # alternated best-of-2 rounds (like the engine head-to-head): host
    # load drifting between a block of guarded runs and a block of
    # pre-telemetry runs would otherwise fabricate overhead either way.
    # Single run for enabled.
    dt_guarded = dt_new
    dt_pre = float("inf")
    res_pre = None
    for _ in range(2):
        res_pre, dt_pre_i = _timed_single_run(
            Network, machine_cls=_PreTelemetryMachine)
        dt_pre = min(dt_pre, dt_pre_i)
        dt_guarded = min(dt_guarded, _timed_single_run(Network)[1])
    nranks = _reference_side() ** 2
    res_tel, dt_tel = _timed_single_run(
        Network,
        telemetry=Telemetry.full(nranks, workload="audikw_1", scheme="shifted"),
    )
    tel_cmp = dict(
        run=net_cmp["run"],
        pre_telemetry_seconds=round(dt_pre, 4),
        disabled_seconds=round(dt_guarded, 4),
        enabled_seconds=round(dt_tel, 4),
        disabled_overhead_pct=round((dt_guarded / dt_pre - 1) * 100, 2),
        enabled_overhead_pct=round((dt_tel / dt_pre - 1) * 100, 2),
        disabled_budget_pct=5.0,
        outcome_bit_identical=bool(
            res_tel.events == res_new.events == res_pre.events
            and res_tel.makespan == res_new.makespan == res_pre.makespan
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
        "engine head-to-head (reference run, best of 3 alternated rounds):",
        f"  legacy (heapq):          {engine_cmp['legacy_events_per_sec']:,}/s"
        f" ({best['legacy']:.2f}s)",
        "  vectorized (compiled):   "
        f"{engine_cmp['vectorized_events_per_sec']:,}/s"
        f" ({best['vectorized']:.2f}s)"
        f"  -> {engine_cmp['vectorized_speedup']:.2f}x",
        f"  outcome bit-identical:   {engine_cmp['outcome_bit_identical']}",
        "",
        "per-message hot path (single large run, DES events/sec):",
        f"  legacy  network: {net_cmp['legacy_events_per_sec']:,}/s"
        f" ({dt_old:.2f}s)",
        f"  slimmed network: {net_cmp['slimmed_events_per_sec']:,}/s"
        f" ({dt_new:.2f}s)  -> {net_cmp['speedup']:.2f}x",
        "",
        "telemetry overhead (same reference run):",
        f"  pre-telemetry machine: {dt_pre:.2f}s",
        f"  disabled (guards only): {dt_guarded:.2f}s"
        f"  ({tel_cmp['disabled_overhead_pct']:+.1f}%, budget 5%)",
        f"  enabled (full bundle):  {dt_tel:.2f}s"
        f"  ({tel_cmp['enabled_overhead_pct']:+.1f}%)",
        f"  outcome bit-identical:  {tel_cmp['outcome_bit_identical']}",
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
        network_hot_path=net_cmp,
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
    assert engine_cmp["vectorized_speedup"] >= 1.10, engine_cmp
    if cores >= 4:
        four = next(r for r in rows if r["jobs"] == 4)
        assert four["speedup"] >= 2.5, four
    # The slimmed per-message path must not be slower than the legacy one
    # (single-run timing noise aside: require >= 0.9x).
    assert dt_new <= dt_old / 0.9
    # Both network variants walk the same event structure.
    assert res_new.events == res_old.events
    # Telemetry must never perturb the simulated outcome, and the
    # disabled-telemetry guards must stay inside the 5% overhead budget.
    assert tel_cmp["outcome_bit_identical"], tel_cmp
    assert dt_guarded <= dt_pre * 1.05, tel_cmp
