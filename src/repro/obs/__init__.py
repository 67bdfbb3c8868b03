"""Telemetry subsystem: timelines, metrics, and hot-spot monitoring.

The observability layer from ISSUE 5, three pillars in three modules:

* :mod:`repro.obs.timeline` -- per-rank timeline recording exported as
  Chrome trace-event JSON (Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.metrics` -- labeled counter/gauge/histogram registry
  with deterministic snapshots and cross-worker merging;
* :mod:`repro.obs.hotspot` -- per-rank imbalance statistics (max/mean,
  p99/median, Gini) and ranked top-k hot-rank reports.

Everything here is **off by default**, and only the timeline observes
the run message by message: it is the one machine-side sink
(:class:`TelemetrySink`), and attaching it selects the machine's hooked
route.  Metrics and hot spots are read from data the machine keeps
anyway: the simulator reports its ``sim.*`` loop series from the drain
it runs regardless, the compiled collectives tally their tree shapes in
a dict, and :meth:`Telemetry.finish` derives the hot spots and the
``net.*`` series from the drained :class:`~repro.simulate.machine.CommStats`
columns.  Outcomes are bit-identical with any pillar on or off
(``tests/test_obs.py`` pins this against a seed-pinned run).

:class:`Telemetry` is the one-stop bundle the high-level entry points
accept (``SimulatedPSelInv(..., telemetry=...)``, the ``repro trace`` /
``repro hotspots`` CLI, and the runner's ``ExperimentSpec.telemetry``
flag): construct it with the pillars you want and pass it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hotspot import HotSpotMonitor, gini, imbalance_stats
from .metrics import (
    NULL_SINK,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    merge_snapshots,
)
from .timeline import (
    LANE_NAMES,
    PHASE_KINDS,
    TelemetrySink,
    TimelineRecorder,
)
from .trace_schema import TraceSchemaError, validate_chrome_trace, validate_trace_file

__all__ = [
    "Telemetry",
    "TelemetrySink",
    "TimelineRecorder",
    "LANE_NAMES",
    "PHASE_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_SINK",
    "merge_snapshots",
    "HotSpotMonitor",
    "gini",
    "imbalance_stats",
    "TraceSchemaError",
    "validate_chrome_trace",
    "validate_trace_file",
]


@dataclass
class Telemetry:
    """Bundle of enabled telemetry pillars, passed to run entry points.

    Any pillar may be ``None`` (disabled).  The timeline is the machine's
    recorder; the metrics registry and the hot-spot monitor are filled
    after the drain by :meth:`finish`.
    """

    metrics: MetricsRegistry | None = None
    timeline: TimelineRecorder | None = None
    hotspots: HotSpotMonitor | None = None

    @classmethod
    def full(cls, nranks: int, **common_labels) -> "Telemetry":
        """All three pillars enabled (trace CLI / tests convenience)."""
        return cls(
            metrics=MetricsRegistry(**common_labels),
            timeline=TimelineRecorder(nranks),
            hotspots=HotSpotMonitor(nranks),
        )

    def finish(self, stats) -> None:
        """Read the hot spots and the ``net.*`` series out of a drained
        machine's :class:`~repro.simulate.machine.CommStats`.

        Every sent message was injected once and, the run having
        drained, ejected once, so the injection and ejection tallies
        are column sums (self-sends never reach the network and are in
        no column).  ``net.injection_seconds`` is the correctly rounded
        sum of the per-rank NIC-out busy times.
        """
        if self.hotspots is not None:
            self.hotspots.add_stats(stats)
        metrics = self.metrics
        if metrics is None:
            return
        messages = sum(int(col.sum()) for col in stats.messages_sent.values())
        metrics.counter("net.injections").inc(messages)
        metrics.counter("net.injection_bytes").inc(_int_total(stats.sent))
        metrics.counter("net.injection_seconds").inc(
            math.fsum(stats.nic_out_busy.tolist())
        )
        metrics.counter("net.ejections").inc(messages)
        metrics.counter("net.ejection_bytes").inc(_int_total(stats.received))


def _int_total(columns: dict) -> int:
    """Exact integer sum of integer-valued byte columns."""
    return sum(int(x) for col in columns.values() for x in col.tolist())
