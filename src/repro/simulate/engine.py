"""Deterministic discrete-event simulation kernel.

A minimal priority-queue event loop: events are ``(time, seq, callback,
arg)`` slots, executed in nondecreasing time order with FIFO tie-breaking
via the monotonically increasing sequence number.  Determinism matters
here -- the PSelInv experiments compare schemes on identical task streams
and attribute run-to-run variation *only* to the seeded network-jitter
model, exactly as the paper attributes it to the physical network.

The optional ``arg`` slot exists for the hot path: the machine layer
schedules millions of per-message callbacks, and passing the message as
an argument avoids allocating a closure per event.

Two engines share this contract:

* :class:`Simulator` -- the reference heapq loop (``engine="legacy"``).
* :class:`VecSimulator` -- a calendar-queue scheduler that buckets
  ``(time, seq, hid, arg)`` entries by a fixed time width, dispatches
  through an integer handler table one event at a time, and
  fast-forwards the clock over empty buckets analytically
  (``engine="vectorized"``).  An entry carries its own state, so the
  engine holds only the events still pending: its memory follows the
  queue depth, not the number of events run.  The production drain of
  this calendar is :meth:`VecMachine.run
  <repro.simulate.machine.VecMachine.run>`, this engine's loop with the
  per-message receive and delivery stages inline.

Both drain any schedule stream in the exact same ``(time, seq)`` order
(pinned by a Hypothesis equivalence test), so every simulated outcome is
bit-identical across engines.  The symmetric PSelInv protocol runs
unchanged on either (through :class:`~repro.simulate.machine.Machine` or
:class:`~repro.simulate.machine.VecMachine`), so an engine comparison
measures the scheduler and the machine, not the protocol.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_right, insort
from itertools import islice, takewhile
from typing import Any, Callable

__all__ = ["Simulator", "VecSimulator"]

# Sentinel distinguishing "no argument" from a legitimate None argument.
_NO_ARG = object()


def _budget_error(max_events: int) -> str:
    """The message of a drain that ran out of its event budget."""
    return (
        f"simulation exceeded {max_events} events -- likely a "
        "protocol bug (deadlock would drain, livelock would not)"
    )


def _horizon(until: float | None) -> tuple:
    """The entry key a bounded run stops after: ``(time, seq, ...) <=
    (until, inf)`` holds exactly for the events at or before ``until``."""
    return (math.inf if until is None else until, math.inf)


def _report(metrics, events: int, depth_hw: int, start_wall: float) -> None:
    """Emit one drain's loop series: ``sim.events``,
    ``sim.queue_depth_high_water``, ``sim.wall_seconds`` and
    ``sim.events_per_sec``."""
    wall = time.perf_counter() - start_wall  # det: allow(DET003)
    metrics.counter("sim.events").inc(events)
    metrics.gauge("sim.queue_depth_high_water").update_max(depth_hw)
    metrics.gauge("sim.wall_seconds").set(wall)
    if wall > 0.0:
        metrics.gauge("sim.events_per_sec").set(events / wall)


class Simulator:
    """Event loop with a virtual clock.

    Use :meth:`schedule` / :meth:`schedule_at` to enqueue callbacks and
    :meth:`run` to drain the queue.  Callbacks receive no arguments
    unless scheduled with an explicit ``arg`` (the zero-allocation hot
    path); closures and ``functools.partial`` work as before.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[..., Any], Any]] = []
        self._seq = 0
        self._events_processed = 0
        # Optional telemetry (a MetricsRegistry); None keeps the default
        # loop untouched -- run() only branches once, before draining.
        self._metrics = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf reporting)."""
        return self._events_processed

    def attach_metrics(self, registry) -> None:
        """Enable loop telemetry: events/sec and queue-depth high-water.

        The wall-clock read is observation-only (it never feeds back into
        the virtual clock), so determinism of outcomes is preserved.
        """
        self._metrics = registry

    def schedule(
        self, delay: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, arg)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        heapq.heappush(self._queue, (time, self._seq, fn, arg))
        self._seq += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue; returns the final clock value.

        ``until`` stops the clock at a horizon (events beyond it stay
        queued); ``max_events`` guards against runaway simulations.

        Contract of a bounded run: ``now`` is left at the timestamp of
        the *last executed event*, NOT advanced to the ``until`` horizon
        (an event-driven clock only moves when events execute).  Callers
        issuing repeated bounded ``run(until=...)`` calls must therefore
        pass absolute horizons, not increments relative to ``now``.
        Both engines honor this; it is pinned by tests.

        With metrics attached the loop also tracks the queue-depth
        high-water mark (one local test per event without them) and, at
        the end, wall-clock throughput.  Only wall time is read -- the
        event order and virtual clock are untouched.
        """
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        sample = self._metrics is not None
        depth_hw = len(queue)
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while queue:
            if sample:
                depth = len(queue)
                if depth > depth_hw:
                    depth_hw = depth
            t = queue[0][0]
            # Horizon first: an event beyond ``until`` would never
            # execute, so it must not trip the event budget (the
            # calendar engine orders the checks this way; pinned by the
            # bounded-run equivalence property).
            if until is not None and t > until:
                break
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(_budget_error(max_events))
            _, _, fn, arg = pop(queue)
            self.now = t
            self._events_processed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        if sample:
            _report(self._metrics, self._events_processed - start_events,
                    depth_hw, start_wall)
        return self.now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)


class VecSimulator:
    """Calendar-queue event loop, drop-in for :class:`Simulator`.

    Layout:

    * **Buckets** -- events are grouped by ``int(time / BUCKET_WIDTH)``
      into a dict of bucket index -> list of entries; a min-heap of
      occupied bucket indices orders the buckets.  Popping the heap
      *is* the analytic fast-forward: the clock jumps straight to the
      next occupied bucket instead of draining empty time.
    * **Self-contained entries** -- an entry is the tuple ``(time, seq,
      hid, arg)``: its timestamp, its sequence number, an integer
      handler id and the handler's argument.  Nothing outside the
      bucket refers to it, so an executed event is freed with its
      bucket.  Tuple order is exactly ``(time, seq)`` order: seqs are
      unique (monotonic, never recycled), so a comparison never reaches
      ``hid`` or ``arg``.
    * **Handler table** -- :meth:`register_handler` interns a callable
      once and returns its integer id; the hot path then schedules
      ``(time, hid, arg)`` records via :meth:`schedule_msg` and the
      drain loop dispatches ``table[hid](arg)``.  Ids 0 and 1 are
      reserved for the generic :meth:`schedule` / :meth:`schedule_at`
      paths (0 = argless callable, 1 = ``(fn, arg)`` pair).
    * **Sorted buckets** -- a bucket is sorted once (C timsort on the
      entry tuples) and executed in order; the events-processed counter
      is written back once per bucket, not once per event, and the
      pending count is derived (``_seq`` minus events processed), never
      kept.  A callback that schedules into the *active* bucket
      inserts its entry in sorted position via ``bisect.insort`` (the
      new entry always lands after the in-flight index because its
      time is >= ``now`` and its seq is the largest yet).

    Semantics are identical to :class:`Simulator`: FIFO tie-breaking by
    seq, the same negative-delay / past-time errors, ``max_events``
    checked before each event, and a bounded ``run(until=...)`` leaving
    ``now`` at the last executed event (unexecuted tails are re-parked).
    One loop serves bounded and unbounded drains.  With metrics
    attached it reports the ``sim.*`` series of :class:`Simulator`, the
    queue-depth high-water mark included, exactly.

    Per-bucket occupancy of the unbounded drains is tallied
    (:meth:`occupancy_stats`) so benchmarks can report the scheduler-vs-
    handler split instead of inferring it.

    The machine layer (:class:`repro.simulate.machine.VecMachine`)
    inlines the push sequence of :meth:`_push` directly into its
    send/receive/compute stages, and its drain (``VecMachine.run``) is
    :meth:`run` with the receive and delivery stages inlined -- a
    change to the scheduling invariants or to this loop goes there too.
    """

    #: Bucket width in virtual seconds.  Event spacing in the PSelInv
    #: runs is set by sub-microsecond NIC/latency constants, so 100ns
    #: buckets keep them small (tens of events) while still amortizing
    #: the per-bucket heap pop and sort.
    BUCKET_WIDTH = 1.0e-7

    def __init__(self) -> None:
        self.now: float = 0.0
        self._inv_width = 1.0 / self.BUCKET_WIDTH
        # Calendar: bucket index -> sorted-on-demand [(time, seq, hid,
        # arg), ...].  Seqs are monotonic and never recycled: recycling
        # would break FIFO tie order.
        self._buckets: dict[int, list[tuple]] = {}
        self._bucket_heap: list[int] = []
        # Handler table; ids 0/1 are the generic-callable paths.
        self._table: list[Callable[..., Any] | None] = [None, None]
        self._seq = 0
        self._events_processed = 0
        # Active-bucket state: schedules landing in the bucket currently
        # draining must join it in sorted position (see class docstring).
        self._active_bucket = -1
        self._active_list: list[tuple] | None = None
        self._metrics = None
        # Occupancy tallies of the unbounded drains only (bounded runs
        # execute part of a bucket and re-park the rest).
        self.buckets_drained = 0
        self.drained_events = 0
        self.max_bucket_events = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf reporting).

        Updated once per drained bucket, so mid-bucket reads from
        callbacks lag by up to one bucket.
        """
        return self._events_processed

    def attach_metrics(self, registry) -> None:
        """Enable loop telemetry (same series as :class:`Simulator`)."""
        self._metrics = registry

    # -- handler table -------------------------------------------------------

    def register_handler(self, fn: Callable[[Any], None]) -> int:
        """Intern ``fn`` and return its integer handler id (>= 2).

        The hot path pairs this with :meth:`schedule_msg`: the machine
        registers its per-message stages once and schedules plain
        ``(time, hid, arg)`` triples, no closures or bound methods per
        event.
        """
        self._table.append(fn)
        return len(self._table) - 1

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, arg)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        if arg is _NO_ARG:
            self._push(time, 0, fn)
        else:
            self._push(time, 1, (fn, arg))

    def schedule_msg(self, time: float, hid: int, arg: Any) -> None:
        """Hot-path schedule: dispatch ``table[hid](arg)`` at ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        self._push(time, hid, arg)

    def _push(self, time: float, hid: int, arg: Any) -> None:
        s = self._seq
        self._seq = s + 1
        ev = (time, s, hid, arg)
        b = int(time * self._inv_width)
        if b == self._active_bucket:
            # Always lands after the in-flight index: time >= now and
            # seq is the largest allocated.
            insort(self._active_list, ev)
            return
        try:
            self._buckets[b].append(ev)
        except KeyError:
            self._buckets[b] = [ev]
            heapq.heappush(self._bucket_heap, b)

    # -- draining ------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the calendar; returns the final clock value.

        Same bounded-run contract as :meth:`Simulator.run` (the
        fast-forward never jumps past the horizon to an unexecuted
        bucket).  One loop serves every drain: a bounded run iterates
        :meth:`_view` of each sorted bucket instead of the bucket, and
        :meth:`_close_bounded` settles it, so the unbounded path pays one
        test per bucket for bounds and none per event.

        With metrics attached the drain samples the exact queue depth
        before every event it executes, ``_seq - executed``: every push
        takes a seq at once, and ``executed`` counts the events run so
        far.  Without metrics that sample is one local test per event.
        One closing sample when the run stops stands for the heapq
        loop's sample at the iteration that finds the next event beyond
        the horizon, so a bounded run reports the same high-water mark.
        """
        buckets = self._buckets
        heap = self._bucket_heap
        table = self._table
        heappop = heapq.heappop
        sample = self._metrics is not None
        bounded = until is not None or max_events is not None
        drained = 0
        maxb = self.max_bucket_events
        start_events = self._events_processed
        depth_hw = self._seq - start_events
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while heap:
            b = heappop(heap)
            batch = buckets.pop(b)
            if len(batch) > 1:
                batch.sort()
            self._active_bucket = b
            self._active_list = batch
            executed = self._events_processed
            # The C-level list iterator survives mid-drain growth (an
            # insort always lands strictly after the in-flight position,
            # see the class docstring).
            for t, _, h, a in self._view(batch, until, max_events) if bounded else batch:
                if sample:
                    d = self._seq - executed
                    if d > depth_hw:
                        depth_hw = d
                    executed += 1
                self.now = t
                if h >= 2:
                    table[h](a)
                elif h == 0:
                    a()
                else:
                    a[0](a[1])
            if bounded:
                if self._close_bounded(b, batch, until, max_events):
                    break
                continue
            self._active_bucket = -1
            self._active_list = None
            n = len(batch)
            drained += 1
            if n > maxb:
                maxb = n
            self._events_processed += n
        if not bounded:
            self.buckets_drained += drained
            self.drained_events += self._events_processed - start_events
            self.max_bucket_events = maxb
        if sample:
            _report(self._metrics, self._events_processed - start_events,
                    max(depth_hw, self._seq - self._events_processed),
                    start_wall)
        return self.now

    def _view(self, batch: list, until: float | None, max_events: int | None):
        """A bounded run's view of the active bucket: its events up to
        ``until``, at most the budget left.  The list iterator under it
        still sees mid-drain inserts."""
        room = None if max_events is None else max(0, max_events - self._events_processed)
        return islice(takewhile(_horizon(until).__ge__, batch), room)

    def _close_bounded(self, b: int, batch: list, until: float | None,
                       max_events: int | None) -> bool:
        """Close a bucket a bounded run drained through :meth:`_view`:
        count its executed events (one bisect), return the rest to the
        calendar, and say whether the run stops at the horizon.  Raises
        the budget error, queue intact, when an event within the horizon
        is left over (horizon before budget)."""
        done = bisect_right(batch, _horizon(until))
        room = done if max_events is None else max(0, max_events - self._events_processed)
        self._events_processed += min(done, room)
        tail = batch[min(done, room):]
        if tail:
            self._buckets[b] = tail
            heapq.heappush(self._bucket_heap, b)
        self._active_bucket = -1
        self._active_list = None
        if done > room:
            raise RuntimeError(_budget_error(max_events))
        return bool(tail)

    def pending(self) -> int:
        """Number of events still queued: seqs allocated minus events
        processed.

        Exact between :meth:`run` calls; mid-bucket reads from callbacks
        lag by up to one bucket (the processed count is written back
        once per bucket).
        """
        return self._seq - self._events_processed

    def occupancy_stats(self) -> dict[str, float]:
        """Per-bucket occupancy summary of the unbounded drains so far."""
        drained = self.buckets_drained
        events = self.drained_events
        return {
            "buckets_drained": drained,
            "events": events,
            "mean_bucket_events": events / drained if drained else 0.0,
            "max_bucket_events": self.max_bucket_events,
        }
