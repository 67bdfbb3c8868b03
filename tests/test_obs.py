"""Telemetry subsystem tests (ISSUE 5).

Four contracts are pinned here:

1. **Perfetto round-trip** -- a quick-tier laplacian run under full
   telemetry exports Chrome trace-event JSON that loads back and passes
   :func:`repro.obs.validate_chrome_trace`: per-rank lanes, nonnegative
   durations, nondecreasing timestamps per lane, paired flows and
   collective-phase spans.
2. **Bit-identity** -- enabling telemetry never perturbs the simulated
   outcome: makespan, event count, and every per-rank counter of a
   seed-pinned run are identical with telemetry off and fully on.
3. **Fig. 5 agreement** -- the :class:`HotSpotMonitor`, filled from the
   drained machine's stats columns, holds the exact byte loads of the
   analytic Fig. 5 heatmap pipeline (``VolumeReport.col_bcast_sent``),
   so its top-k hottest ranks match for every tree scheme on both
   engines.
4. **Integer message counts** -- ``CommStats.messages_sent`` stays an
   integer dtype all the way into ``message_count_heatmap``, which
   rejects float counts.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis import message_count_heatmap
from repro.cli import main
from repro.comm.trees import TREE_SCHEMES
from repro.core import ProcessorGrid, SimulatedPSelInv, communication_volumes
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    HotSpotMonitor,
    MetricsRegistry,
    NullMetrics,
    Telemetry,
    TraceSchemaError,
    gini,
    imbalance_stats,
    merge_snapshots,
    validate_chrome_trace,
    validate_trace_file,
)
from repro.sparse import analyze
from repro.workloads import grid_laplacian_2d

SCHEMES = ["flat", "binary", "shifted"]
ENGINES = ["vectorized", "legacy"]


@pytest.fixture(scope="module")
def lap_problem():
    """The quick-tier laplacian the ``repro trace`` CLI defaults to."""
    m = grid_laplacian_2d(12, 12, rng=np.random.default_rng(0))
    return analyze(m, ordering="nd")


@pytest.fixture(scope="module")
def grid():
    return ProcessorGrid(4, 4)


def _run(problem, grid, scheme="shifted", telemetry=None, seed=20160523,
         engine="vectorized"):
    return SimulatedPSelInv(
        problem.struct, grid, scheme, seed=seed, telemetry=telemetry,
        engine=engine,
    ).run()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry(workload="w")
        c = reg.counter("msgs", dclass=1)
        c.inc()
        c.inc(4)
        assert isinstance(c, Counter) and c.value == 5
        g = reg.gauge("depth")
        g.update_max(3)
        g.update_max(1)
        assert isinstance(g, Gauge) and g.value == 3
        h = reg.histogram("bytes")
        assert isinstance(h, Histogram)
        h.observe(3)
        h.observe(3)
        h.observe(10**9)
        assert h.count == 3 and h.total == 2 * 3 + 10**9

    def test_same_series_is_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1) is reg.counter("x", a=1)
        assert reg.counter("x", a=1) is not reg.counter("x", a=2)

    def test_snapshot_is_deterministic_and_labeled(self):
        reg = MetricsRegistry(scheme="flat")
        reg.counter("msgs", dclass=2).inc(7)
        reg.counter("msgs", dclass=0).inc(1)
        snap1 = reg.snapshot()
        snap2 = reg.snapshot()
        assert snap1 == snap2
        keys = list(snap1["counters"])
        assert keys == sorted(keys)
        assert any("scheme=flat" in k and "dclass=2" in k for k in keys)
        # Snapshots are plain JSON data.
        json.dumps(snap1)

    def test_merge_snapshots(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("hw").update_max(5)
        b.gauge("hw").update_max(9)
        a.histogram("h").observe(1)
        b.histogram("h").observe(100)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 5
        assert merged["gauges"]["hw"] == 9
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["total"] == 101

    @pytest.mark.parametrize("value", [0, 3, 4, 17, 10**9])
    def test_observe_multiplicity_equals_repeats(self, value):
        once, repeated = Histogram(), Histogram()
        once.observe(1)
        repeated.observe(1)
        once.observe(value, 5)
        for _ in range(5):
            repeated.observe(value)
        for slot in Histogram.__slots__:
            assert getattr(once, slot) == getattr(repeated, slot), slot

    def test_null_metrics_is_inert(self):
        null = NullMetrics()
        null.counter("x", a=1).inc(5)
        null.gauge("y").update_max(2)
        null.histogram("z").observe(3)
        assert null.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


# ---------------------------------------------------------------------------
# hot-spot statistics
# ---------------------------------------------------------------------------


class TestImbalanceStats:
    def test_gini_bounds(self):
        assert gini(np.full(8, 3.0)) == pytest.approx(0.0)
        concentrated = np.zeros(100)
        concentrated[0] = 1.0
        assert gini(concentrated) > 0.9
        assert gini(np.array([])) == 0.0

    def test_imbalance_stats_uniform(self):
        s = imbalance_stats(np.full(16, 7.0))
        assert s["max_over_mean"] == pytest.approx(1.0)
        assert s["p99_over_median"] == pytest.approx(1.0)
        assert s["gini"] == pytest.approx(0.0)

    def test_imbalance_stats_hot_rank(self):
        v = np.ones(64)
        v[5] = 100.0
        s = imbalance_stats(v)
        assert s["max"] == 100.0
        assert s["max_over_mean"] > 10.0


# ---------------------------------------------------------------------------
# trace export + schema round-trip
# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    @pytest.fixture(scope="class")
    def trace(self, lap_problem, grid, tmp_path_factory):
        telemetry = Telemetry.full(grid.size, workload="laplacian-quick")
        res = _run(lap_problem, grid, telemetry=telemetry)
        path = tmp_path_factory.mktemp("trace") / "out.trace.json"
        telemetry.timeline.write(path, makespan=res.makespan)
        return path, json.loads(path.read_text()), res

    def test_file_validates(self, trace):
        path, _, _ = trace
        summary = validate_trace_file(path)
        assert summary["n_events"] > 0
        # Complete slices, flow pairs, and phase begin/end all present.
        for ph in ("X", "s", "f", "b", "e", "M"):
            assert summary["phase_counts"].get(ph, 0) > 0, ph

    def test_per_rank_lanes(self, trace, grid):
        _, obj, _ = trace
        summary = validate_chrome_trace(obj)
        # Every rank appears as a pid, plus the synthetic phase track.
        assert set(range(grid.size)) <= set(summary["pids"])
        assert grid.size in summary["pids"]
        assert summary["n_lanes"] > grid.size

    def test_times_within_makespan(self, trace):
        _, obj, res = trace
        summary = validate_chrome_trace(obj)
        assert summary["ts_min"] >= 0.0
        assert summary["ts_max"] <= res.makespan * 1e6 * (1 + 1e-9)

    def test_phase_spans_cover_collectives(self, lap_problem, grid):
        telemetry = Telemetry.full(grid.size)
        _run(lap_problem, grid, telemetry=telemetry)
        kinds = {kind for kind, _ in telemetry.timeline.phases}
        assert "col-bcast" in kinds and "row-reduce" in kinds
        for (kind, k), (start, end) in telemetry.timeline.phases.items():
            assert isinstance(k, int) and start <= end

    def test_lane_timestamps_nondecreasing(self, trace):
        _, obj, _ = trace
        seen: dict[tuple, float] = {}
        for ev in obj["traceEvents"]:
            if ev["ph"] == "M":
                continue
            lane = (ev["pid"], ev["tid"])
            assert ev["ts"] >= seen.get(lane, 0.0)
            seen[lane] = ev["ts"]

    def test_metadata_passthrough(self, grid, lap_problem):
        telemetry = Telemetry.full(grid.size)
        _run(lap_problem, grid, telemetry=telemetry)
        obj = telemetry.timeline.to_chrome_trace(workload="lap", extra=1)
        assert obj["otherData"]["workload"] == "lap"
        assert obj["otherData"]["extra"] == 1
        assert obj["otherData"]["nranks"] == grid.size


class TestTraceSchemaRejects:
    def _one(self, **kw):
        ev = {"ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 1.0,
              "name": "x"}
        ev.update(kw)
        return {"traceEvents": [ev]}

    def test_rejects_non_object(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace([])

    def test_rejects_empty(self):
        with pytest.raises(TraceSchemaError):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_negative_dur(self):
        with pytest.raises(TraceSchemaError, match="dur"):
            validate_chrome_trace(self._one(dur=-1.0))

    def test_rejects_unknown_phase(self):
        with pytest.raises(TraceSchemaError, match="phase"):
            validate_chrome_trace(self._one(ph="Z"))

    def test_rejects_decreasing_lane_time(self):
        trace = {
            "traceEvents": [
                self._one(ts=5.0)["traceEvents"][0],
                self._one(ts=1.0)["traceEvents"][0],
            ]
        }
        with pytest.raises(TraceSchemaError, match="decreases"):
            validate_chrome_trace(trace)

    def test_rejects_unbalanced_flow(self):
        trace = self._one()
        trace["traceEvents"].append(
            {"ph": "s", "pid": 0, "tid": 1, "ts": 0.0, "id": 9, "name": "m"}
        )
        with pytest.raises(TraceSchemaError, match="flow"):
            validate_chrome_trace(trace)

    def test_accepts_out_of_order_flow_pair(self):
        # Events are lane-sorted, so a finish may precede its start in
        # file order; pairing is by id, not position.
        trace = {
            "traceEvents": [
                {"ph": "f", "pid": 0, "tid": 0, "ts": 3.0, "id": 1,
                 "name": "m"},
                {"ph": "s", "pid": 1, "tid": 0, "ts": 2.0, "id": 1,
                 "name": "m"},
            ]
        }
        summary = validate_chrome_trace(trace)
        assert summary["phase_counts"] == {"f": 1, "s": 1}


# ---------------------------------------------------------------------------
# bit-identity: telemetry observes, never perturbs
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_outcome_identical_with_full_telemetry(
        self, lap_problem, grid, scheme
    ):
        base = _run(lap_problem, grid, scheme)
        instrumented = _run(
            lap_problem, grid, scheme,
            telemetry=Telemetry.full(grid.size, scheme=scheme),
        )
        assert instrumented.makespan == base.makespan
        assert instrumented.events == base.events
        for name in ("sent", "received", "messages_sent"):
            a, b = getattr(base.stats, name), getattr(instrumented.stats, name)
            assert set(a) == set(b)
            for kind in a:
                np.testing.assert_array_equal(a[kind], b[kind])
        np.testing.assert_array_equal(
            base.stats.compute_busy, instrumented.stats.compute_busy
        )

    def test_run_record_same_outcome(self, tmp_path):
        """Runner-level contract: ``ExperimentSpec.telemetry`` toggles
        instrumentation without changing ``RunRecord.same_outcome``."""
        from dataclasses import replace

        from repro.runner import ExperimentSpec
        from repro.runner.pool import run_experiment

        spec = ExperimentSpec(
            workload="audikw_1", scale="tiny", grid=(2, 2), scheme="shifted",
            seed=20160523,
        )
        plain = run_experiment(spec)
        instrumented = run_experiment(replace(spec, telemetry=True))
        assert plain.same_outcome(instrumented)
        assert instrumented.metrics  # telemetry payload is attached...
        assert not plain.metrics  # ...only when asked for
        json.dumps(instrumented.metrics)  # and it is JSON-exportable


# ---------------------------------------------------------------------------
# hot-spot monitor vs the Fig. 5 analytic pipeline
# ---------------------------------------------------------------------------


class TestHotSpotAgreement:
    @pytest.mark.parametrize("scheme", TREE_SCHEMES)
    def test_matches_volume_report(self, lap_problem, grid, scheme):
        rep = communication_volumes(
            lap_problem.struct, grid, scheme, seed=20160523
        )
        for engine in ENGINES:
            monitor = HotSpotMonitor(grid.size)
            _run(lap_problem, grid, scheme, engine=engine,
                 telemetry=Telemetry(hotspots=monitor))
            np.testing.assert_array_equal(
                monitor.col_bcast_sent(), rep.col_bcast_sent()
            )
            np.testing.assert_array_equal(
                monitor.sent("row-reduce"), rep.sent["row-reduce"]
            )
            assert monitor.sent().dtype == np.int64

    @pytest.mark.parametrize("scheme", TREE_SCHEMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_top_ranks_identical_across_engines(
        self, lap_problem, grid, scheme, engine
    ):
        """The monitor is read from the stats columns, which are
        bit-identical across engines, so every report agrees."""
        monitor = HotSpotMonitor(grid.size)
        res = _run(lap_problem, grid, scheme, engine=engine,
                   telemetry=Telemetry(hotspots=monitor))
        sent = res.stats.sent
        assert monitor.categories == sorted(sent.keys() | res.stats.received.keys())
        for category, col in sent.items():
            np.testing.assert_array_equal(monitor.sent(category), col)
            assert monitor.top_ranks(5, category) == [
                (int(r), int(col[r])) for r in np.argsort(-col, kind="stable")[:5]
            ]
        for category, col in res.stats.received.items():
            np.testing.assert_array_equal(monitor.received(category), col)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_top_ranks_match_heatmap_pipeline(self, lap_problem, grid, scheme):
        """The live monitor must rank the same hottest ranks as the
        Fig. 5 heatmap (``heatmap("col-bcast-total")``) read-out."""
        monitor = HotSpotMonitor(grid.size)
        _run(lap_problem, grid, scheme, telemetry=Telemetry(hotspots=monitor))
        rep = communication_volumes(
            lap_problem.struct, grid, scheme, seed=20160523
        )
        flat_map = rep.heatmap("col-bcast-total").reshape(-1)
        load = np.zeros(grid.size)
        for rank in range(grid.size):
            pr, pc = grid.coords(rank)
            load[rank] = rep.heatmap("col-bcast-total")[pr, pc]
        expected = [
            (int(r), int(load[r]))
            for r in np.argsort(-load, kind="stable")[:5]
        ]
        assert monitor.top_ranks(5, "col-bcast", direction="sent") != []
        got = [
            (rank, nbytes)
            for rank, nbytes in monitor.top_ranks(5, None, direction="sent")
        ]
        # Same byte totals per rank implies the same stable ranking for
        # the col-bcast aggregate.
        colb = monitor.col_bcast_sent()
        got_colb = [
            (int(r), int(colb[r]))
            for r in np.argsort(-colb, kind="stable")[:5]
        ]
        assert got_colb == expected
        assert flat_map.sum() == colb.sum()
        assert len(got) == 5

    def test_report_renders(self, lap_problem, grid):
        monitor = HotSpotMonitor(grid.size)
        _run(lap_problem, grid, "flat", telemetry=Telemetry(hotspots=monitor))
        text = monitor.report(3, label="flat")
        assert "hot-spot report (flat)" in text
        assert "col-bcast" in text and "max/mean" in text

    @pytest.mark.parametrize("nranks", [4, 64])
    def test_mis_sized_monitor_rejected(self, lap_problem, grid, nranks):
        """An undersized monitor would die mid-read-out and an oversized
        one would skew every statistic with phantom idle ranks: both are
        refused before the run."""
        for engine in ENGINES:
            with pytest.raises(ValueError, match="HotSpotMonitor sized for"):
                SimulatedPSelInv(
                    lap_problem.struct, grid, "flat", engine=engine,
                    telemetry=Telemetry(hotspots=HotSpotMonitor(nranks)),
                )

    def test_monitor_accumulates_runs(self, lap_problem, grid):
        monitor = HotSpotMonitor(grid.size)
        res = _run(lap_problem, grid, "flat", telemetry=Telemetry(hotspots=monitor))
        _run(lap_problem, grid, "flat", telemetry=Telemetry(hotspots=monitor))
        np.testing.assert_array_equal(monitor.sent(), 2 * res.stats.total_sent())

    def test_imbalance_ordering_matches_paper(self, lap_problem, grid):
        """Shifted must be at least as balanced as flat on Col-Bcast."""
        stats = {}
        for scheme in ("flat", "shifted"):
            monitor = HotSpotMonitor(grid.size)
            _run(
                lap_problem, grid, scheme,
                telemetry=Telemetry(hotspots=monitor),
            )
            stats[scheme] = imbalance_stats(monitor.col_bcast_sent())
        assert (
            stats["shifted"]["max_over_mean"]
            <= stats["flat"]["max_over_mean"] + 1e-12
        )


# ---------------------------------------------------------------------------
# satellite: integer message counts end to end
# ---------------------------------------------------------------------------


class TestIntegerMessageCounts:
    def test_stats_dtype_is_integer(self, lap_problem, grid):
        res = _run(lap_problem, grid, "flat")
        for kind, counts in res.stats.messages_sent.items():
            assert np.issubdtype(counts.dtype, np.integer), kind

    def test_heatmap_accepts_integer_counts(self, lap_problem, grid):
        res = _run(lap_problem, grid, "flat")
        hm = message_count_heatmap(grid, res.stats.messages_sent["col-bcast"])
        assert hm.shape == (grid.pr, grid.pc)
        assert hm.sum() == res.stats.messages_sent["col-bcast"].sum()

    def test_heatmap_rejects_float_counts(self, grid):
        with pytest.raises(TypeError, match="integer dtype"):
            message_count_heatmap(grid, np.ones(grid.size, dtype=float))


# ---------------------------------------------------------------------------
# engine/runner metrics payload
# ---------------------------------------------------------------------------


class TestEngineMetrics:
    def test_sim_counters_recorded(self, lap_problem, grid):
        reg = MetricsRegistry()
        res = _run(lap_problem, grid, telemetry=Telemetry(metrics=reg))
        snap = reg.snapshot()
        assert snap["counters"]["sim.events"] == res.events
        assert snap["gauges"]["sim.queue_depth_high_water"] >= 1
        assert snap["gauges"]["sim.events_per_sec"] > 0

    def test_network_class_counters(self, lap_problem, grid):
        reg = MetricsRegistry()
        _run(lap_problem, grid, telemetry=Telemetry(metrics=reg))
        snap = reg.snapshot()
        inj = [k for k in snap["counters"] if k.startswith("net.injections")]
        assert inj, snap["counters"].keys()
        total_inj = sum(snap["counters"][k] for k in inj)
        ej = [k for k in snap["counters"] if k.startswith("net.ejections")]
        assert total_inj == sum(snap["counters"][k] for k in ej)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_network_series_read_from_stats(self, lap_problem, grid, engine):
        """``net.*`` are column sums of the drained stats: every sent
        message was injected and ejected once; the per-distance-class
        transit series no longer exist."""
        reg = MetricsRegistry()
        res = _run(lap_problem, grid, "flat", engine=engine,
                   telemetry=Telemetry(metrics=reg))
        c = reg.snapshot()["counters"]
        stats = res.stats
        messages = sum(int(v.sum()) for v in stats.messages_sent.values())
        assert c["net.injections"] == c["net.ejections"] == messages > 0
        assert c["net.injection_bytes"] == int(stats.total_sent().sum())
        assert c["net.ejection_bytes"] == c["net.injection_bytes"]
        assert c["net.injection_seconds"] == math.fsum(stats.nic_out_busy)
        assert not any(k.startswith("net.transit") for k in c)

    def test_collective_shape_metrics(self, lap_problem, grid):
        reg = MetricsRegistry()
        _run(lap_problem, grid, "binary", telemetry=Telemetry(metrics=reg))
        snap = reg.snapshot()
        fanouts = [
            k for k in snap["histograms"] if k.startswith("coll.fanout")
        ]
        assert fanouts
        # A binary tree never fans out to more than 2 children.
        for k in fanouts:
            assert snap["histograms"][k]["max"] <= 2


# ---------------------------------------------------------------------------
# CLI: repro trace / repro hotspots
# ---------------------------------------------------------------------------


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "out.trace.json"
        metrics_out = tmp_path / "metrics.json"
        rc = main(
            [
                "trace", "--workload", "laplacian-quick", "--scheme",
                "shifted", "-o", str(out), "--metrics-out", str(metrics_out),
            ]
        )
        assert rc == 0
        summary = validate_trace_file(out)
        assert summary["n_events"] > 0
        metrics = json.loads(metrics_out.read_text())
        sim_events = [
            v for k, v in metrics["counters"].items()
            if k.startswith("sim.events")
        ]
        assert sim_events and sim_events[0] > 0
        text = capsys.readouterr().out
        assert "trace events" in text and "hot-spot report" in text

    def test_hotspots_command(self, capsys):
        rc = main(
            ["hotspots", "--workload", "laplacian-quick", "-g", "4",
             "--schemes", "flat,shifted"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "hot-spot report" in text
        assert "scheme=flat" in text and "scheme=shifted" in text
