"""Per-rank hot-spot monitor and imbalance statistics.

The telemetry subsystem's third pillar (ISSUE 5): the live counterpart
of the paper's Fig. 5/7 per-rank volume heatmaps.  A
:class:`HotSpotMonitor` holds sent/received bytes per ``(rank,
category)``; it is filled once, after the DES drain, from the machine's
own :class:`~repro.simulate.machine.CommStats` columns
(:meth:`HotSpotMonitor.add_stats`, called by
:meth:`repro.obs.Telemetry.finish`), so it costs nothing per message.
At any point :meth:`HotSpotMonitor.imbalance` reduces a category (or the
total) to the classic load-balance figures of merit:

* **max/mean** -- the paper's headline imbalance ratio (1.0 = perfectly
  balanced; the flat scheme's Col-Bcast roots push this far above 1);
* **p99/median** -- tail heaviness, robust to a single outlier rank;
* **Gini** -- distribution-wide inequality in [0, 1).

:meth:`HotSpotMonitor.top_ranks` ranks the k hottest ranks for a
category, and :meth:`HotSpotMonitor.report` renders the CLI table for
``repro hotspots``.  The tallies *are* the
:class:`~repro.simulate.machine.CommStats` byte columns (same
increments, self-sends excluded), converted to integers, so the ranking
provably agrees with the Fig. 5 heatmap pipeline --
``tests/test_obs.py`` locks that in for every tree scheme on both
engines.
"""

from __future__ import annotations

import numpy as np

__all__ = ["imbalance_stats", "gini", "HotSpotMonitor"]


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a nonnegative 1-D load vector (0 = equal)."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    total = v.sum()
    if n == 0 or total == 0.0:
        return 0.0
    # Mean absolute difference formulation via the sorted prefix weights.
    weights = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.dot(weights, v) / (n * total)) - (n + 1.0) / n)


def imbalance_stats(values: np.ndarray) -> dict[str, float]:
    """The monitor's figures of merit for one per-rank load vector."""
    v = np.asarray(values, dtype=float)
    mean = float(v.mean()) if v.size else 0.0
    vmax = float(v.max()) if v.size else 0.0
    median = float(np.median(v)) if v.size else 0.0
    p99 = float(np.percentile(v, 99)) if v.size else 0.0
    return {
        "max": vmax,
        "mean": mean,
        "median": median,
        "p99": p99,
        "max_over_mean": vmax / mean if mean else 0.0,
        "p99_over_median": p99 / median if median else 0.0,
        "gini": gini(v),
    }


class HotSpotMonitor:
    """Per-rank, per-category byte loads of one or more finished runs."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._sent: dict[str, np.ndarray] = {}
        self._received: dict[str, np.ndarray] = {}

    def add_stats(self, stats) -> None:
        """Add a drained machine's ``CommStats`` byte columns.

        The columns are integer-valued floats far below 2^53, so the
        int64 conversion is exact.  Repeated calls accumulate (one
        monitor may watch several runs on the same rank count).
        """
        for table, cols in ((self._sent, stats.sent),
                            (self._received, stats.received)):
            for category, col in cols.items():
                load = col.astype(np.int64)
                prev = table.get(category)
                table[category] = load if prev is None else prev + load

    # -- queries -------------------------------------------------------------

    @property
    def categories(self) -> list[str]:
        return sorted(self._sent.keys() | self._received.keys())

    def sent(self, category: str | None = None) -> np.ndarray:
        """Bytes sent per rank (one category, or all categories summed)."""
        return self._load(self._sent, category)

    def received(self, category: str | None = None) -> np.ndarray:
        """Bytes received per rank (one category, or all summed)."""
        return self._load(self._received, category)

    def _load(self, table: dict[str, np.ndarray], category: str | None) -> np.ndarray:
        if category is not None:
            col = table.get(category)
            return col.copy() if col is not None else np.zeros(self.nranks, dtype=np.int64)
        out = np.zeros(self.nranks, dtype=np.int64)
        for arr in table.values():
            out += arr
        return out

    def col_bcast_sent(self) -> np.ndarray:
        """Fig. 5's load vector: column-broadcast + diagonal-broadcast
        bytes sent per rank (matches ``VolumeReport.col_bcast_sent``)."""
        return self.sent("col-bcast") + self.sent("diag-bcast")

    def imbalance(self, category: str | None = None, *, direction="sent"):
        """Imbalance statistics for one category (None = total)."""
        load = self.sent(category) if direction == "sent" else self.received(category)
        return imbalance_stats(load)

    def top_ranks(
        self, k: int = 5, category: str | None = None, *, direction: str = "sent"
    ) -> list[tuple[int, int]]:
        """The ``k`` hottest ``(rank, bytes)`` pairs, hottest first.

        Ties break toward the lower rank (stable argsort on the negated
        load), so the ranking is deterministic.
        """
        load = self.sent(category) if direction == "sent" else self.received(category)
        order = np.argsort(-load, kind="stable")[:k]
        return [(int(r), int(load[r])) for r in order]

    # -- CLI report ----------------------------------------------------------

    def report(self, k: int = 5, *, label: str = "") -> str:
        """Ranked top-k table per category plus imbalance statistics."""
        lines = []
        title = f"hot-spot report{f' ({label})' if label else ''}"
        lines.append(title)
        lines.append("=" * len(title))
        for category in [None, *self.categories]:
            name = category if category is not None else "TOTAL"
            stats = self.imbalance(category)
            lines.append(
                f"{name}: max/mean {stats['max_over_mean']:.2f}  "
                f"p99/median {stats['p99_over_median']:.2f}  "
                f"gini {stats['gini']:.3f}"
            )
            for pos, (rank, nbytes) in enumerate(self.top_ranks(k, category), 1):
                share = nbytes / stats["max"] if stats["max"] else 0.0
                bar = "#" * int(round(20 * share))
                lines.append(
                    f"  {pos}. rank {rank:>4}  {nbytes:>14,} B  {bar}"
                )
        return "\n".join(lines)
