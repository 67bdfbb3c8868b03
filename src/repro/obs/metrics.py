"""Metrics registry: labeled counters, gauges, and histograms.

The telemetry subsystem's second pillar (ISSUE 5).  Instrumented code
holds *instrument* objects -- :class:`Counter`, :class:`Gauge`,
:class:`Histogram` -- obtained once from a :class:`MetricsRegistry` and
updated with plain attribute arithmetic, so the per-event cost is one
method call on a slotted object.  When telemetry is disabled there are
two equally cheap options, both used in the codebase:

* hot paths guard with ``if metrics is not None`` (zero instructions
  beyond one attribute load and an identity test), and
* API-compatible code paths may hold the shared :data:`NULL_SINK`
  instrument (from :class:`NullMetrics`), whose update methods are
  no-ops.

Snapshots are **deterministic**: series are keyed by
``name{label=value,...}`` with sorted labels, and :func:`snapshot`
returns plain nested dicts with sorted keys -- safe to pickle across the
runner's process pool, diff in tests, and merge with
:func:`merge_snapshots` (counters add, gauges keep the maximum,
histograms add bucket-wise), which is how per-worker metrics fold into
one sweep-level export regardless of worker count or completion order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_SINK",
    "merge_snapshots",
]


class Counter:
    """Monotonically accumulating value (ints stay ints)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """Last-written value with a high-water helper."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def update_max(self, value) -> None:
        if value > self.value:
            self.value = value


# Default bucket upper bounds: powers of four from 1 to ~10^9, a good
# fit for both byte sizes and fan-out degrees.  The last bucket is
# implicit (+inf).
_DEFAULT_BOUNDS = tuple(4**e for e in range(16))


class Histogram:
    """Fixed-boundary histogram with count/total/min/max side stats."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Iterable[float] = _DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value, n: int = 1) -> None:
        """Record ``value`` ``n`` times, for a caller that has already
        tallied its multiplicities.  With integer values the state is
        exactly that of ``n`` single observations."""
        self.bucket_counts[bisect_right(self.bounds, value)] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


def _series_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """One run's worth of labeled series.

    ``common_labels`` are merged into every series created through this
    registry (e.g. ``MetricsRegistry(scheme="shifted")``), which is how
    per-scheme fan-out metrics stay distinguishable after merging
    snapshots from a sweep.
    """

    def __init__(self, **common_labels: Any) -> None:
        self.common_labels = dict(common_labels)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument factories (memoized per series) -------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _series_key(name, {**self.common_labels, **labels})
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _series_key(name, {**self.common_labels, **labels})
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, *, bounds=_DEFAULT_BOUNDS, **labels) -> Histogram:
        key = _series_key(name, {**self.common_labels, **labels})
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(bounds)
        return inst

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every series, deterministically ordered."""
        hists = {}
        for key in sorted(self._histograms):
            h = self._histograms[key]
            hists[key] = {
                "bounds": list(h.bounds),
                "bucket_counts": list(h.bucket_counts),
                "count": h.count,
                "total": h.total,
                "min": h.min,
                "max": h.max,
            }
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": hists,
        }


class _NullInstrument:
    """Accepts every instrument update and does nothing."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def update_max(self, value) -> None:
        pass

    def observe(self, value, n: int = 1) -> None:
        pass


#: Shared do-nothing instrument, safe to hold anywhere a Counter/Gauge/
#: Histogram is expected.
NULL_SINK = _NullInstrument()


class NullMetrics:
    """Registry-shaped null sink: every factory returns :data:`NULL_SINK`.

    Lets code take a registry unconditionally without branching; the
    hot-path modules still prefer the ``is not None`` guard, which is
    strictly cheaper (no call at all).
    """

    common_labels: dict[str, Any] = {}

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return NULL_SINK

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return NULL_SINK

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return NULL_SINK

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Deterministically fold many :meth:`MetricsRegistry.snapshot` dicts.

    Counters add, gauges keep the maximum (high-water semantics),
    histograms add bucket-wise (bounds must agree).  Input order does not
    affect the result, so parallel-runner merges are reproducible.
    """
    counters: dict[str, Any] = {}
    gauges: dict[str, Any] = {}
    hists: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for k, v in snap.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in snap.get("gauges", {}).items():
            if k not in gauges or v > gauges[k]:
                gauges[k] = v
        for k, h in snap.get("histograms", {}).items():
            cur = hists.get(k)
            if cur is None:
                hists[k] = {
                    "bounds": list(h["bounds"]),
                    "bucket_counts": list(h["bucket_counts"]),
                    "count": h["count"],
                    "total": h["total"],
                    "min": h["min"],
                    "max": h["max"],
                }
                continue
            if cur["bounds"] != list(h["bounds"]):
                raise ValueError(f"histogram bounds mismatch for {k!r}")
            cur["bucket_counts"] = [
                a + b for a, b in zip(cur["bucket_counts"], h["bucket_counts"])
            ]
            cur["count"] += h["count"]
            cur["total"] += h["total"]
            for side, pick in (("min", min), ("max", max)):
                if h[side] is not None:
                    cur[side] = (
                        h[side] if cur[side] is None else pick(cur[side], h[side])
                    )
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: hists[k] for k in sorted(hists)},
    }
