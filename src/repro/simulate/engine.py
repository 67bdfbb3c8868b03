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
  queue depth, not the number of events run.

Both drain any schedule stream in the exact same ``(time, seq)`` order
(pinned by a Hypothesis equivalence test), so every simulated outcome is
bit-identical across engines.  The symmetric PSelInv protocol runs
unchanged on either (through :class:`~repro.simulate.machine.Machine` or
:class:`~repro.simulate.machine.VecMachine`), so an engine comparison
measures the scheduler and the machine, not the protocol.
"""

from __future__ import annotations

import heapq
import time
from bisect import insort
from typing import Any, Callable

__all__ = ["Simulator", "VecSimulator"]

# Sentinel distinguishing "no argument" from a legitimate None argument.
_NO_ARG = object()


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
        """
        if self._metrics is not None:
            return self._run_instrumented(until, max_events)
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        while queue:
            t = queue[0][0]
            # Horizon first: an event beyond ``until`` would never
            # execute, so it must not trip the event budget (the
            # calendar engine orders the checks this way; pinned by the
            # bounded-run equivalence property).
            if until is not None and t > until:
                break
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events -- likely a "
                    "protocol bug (deadlock would drain, livelock would not)"
                )
            _, _, fn, arg = pop(queue)
            self.now = t
            self._events_processed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        return self.now

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> float:
        """The :meth:`run` loop plus telemetry (metrics attached).

        A separate copy so the default loop carries zero extra work; this
        one additionally tracks the queue-depth high-water mark and, at
        the end, wall-clock throughput.  Only wall time is read -- the
        event order and virtual clock are untouched.
        """
        metrics = self._metrics
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        depth_hw = len(queue)
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while queue:
            depth = len(queue)
            if depth > depth_hw:
                depth_hw = depth
            t = queue[0][0]
            # Horizon before budget, mirroring the uninstrumented loop.
            if until is not None and t > until:
                break
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events -- likely a "
                    "protocol bug (deadlock would drain, livelock would not)"
                )
            _, _, fn, arg = pop(queue)
            self.now = t
            self._events_processed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        wall = time.perf_counter() - start_wall  # det: allow(DET003)
        n = self._events_processed - start_events
        metrics.counter("sim.events").inc(n)
        metrics.gauge("sim.queue_depth_high_water").update_max(depth_hw)
        metrics.gauge("sim.wall_seconds").set(wall)
        if wall > 0.0:
            metrics.gauge("sim.events_per_sec").set(n / wall)
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
      entry tuples) and executed in order; the events-processed and
      pending counters are written back once per bucket, not once per
      event.  A callback that schedules into the *active* bucket
      inserts its entry in sorted position via ``bisect.insort`` (the
      new entry always lands after the in-flight index because its
      time is >= ``now`` and its seq is the largest yet).

    Semantics are identical to :class:`Simulator`: FIFO tie-breaking by
    seq, the same negative-delay / past-time errors, ``max_events``
    checked before each event, and a bounded ``run(until=...)`` leaving
    ``now`` at the last executed event (unexecuted tails are re-parked).
    Bounded runs take a per-event loop with per-event counters.  With
    metrics attached both loops report the ``sim.*`` series of
    :class:`Simulator`, the queue-depth high-water mark included,
    exactly.

    Per-bucket occupancy of the unbounded drains is tallied
    (:meth:`occupancy_stats`) so benchmarks can report the scheduler-vs-
    handler split instead of inferring it.

    The machine layer (:class:`repro.simulate.machine.VecMachine`)
    inlines the push sequence of :meth:`_push` directly into its
    send/receive stages -- any change to the scheduling invariants here
    must be mirrored there.
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
        self._npending = 0
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

        Updated once per drained bucket on the unbounded path (per event
        on the scalar path), so mid-bucket reads from callbacks lag by
        up to one bucket.
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
        self._npending += 1
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

        Same bounded-run contract as :meth:`Simulator.run`: ``until``
        leaves ``now`` at the last *executed* event (the fast-forward
        never jumps past the horizon to an unexecuted bucket), and
        ``max_events`` raises with the queue intact.  Bounded runs use
        the per-event :meth:`_run_scalar` loop.

        The drain samples the exact queue depth before every event it
        executes: ``_npending`` is written back once per bucket but
        counts every push at once, so ``_npending - i`` is the depth at
        position ``i`` of the active bucket.
        """
        if until is not None or max_events is not None:
            return self._run_scalar(until, max_events)
        buckets = self._buckets
        heap = self._bucket_heap
        table = self._table
        heappop = heapq.heappop
        drained = 0
        maxb = self.max_bucket_events
        depth_hw = self._npending
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while heap:
            b = heappop(heap)
            batch = buckets.pop(b)
            if len(batch) > 1:
                batch.sort()
            self._active_bucket = b
            self._active_list = batch
            drained += 1
            # The C-level list iterator survives mid-drain growth (an
            # insort always lands strictly after the in-flight position,
            # see the class docstring).
            for i, (t, _, h, a) in enumerate(batch):
                d = self._npending - i
                if d > depth_hw:
                    depth_hw = d
                self.now = t
                if h >= 2:
                    table[h](a)
                elif h == 0:
                    a()
                else:
                    a[0](a[1])
            self._active_bucket = -1
            self._active_list = None
            n = len(batch)
            if n > maxb:
                maxb = n
            self._events_processed += n
            self._npending -= n
        self.buckets_drained += drained
        self.drained_events += self._events_processed - start_events
        self.max_bucket_events = maxb
        self._report(start_events, depth_hw, start_wall)
        return self.now

    def _run_scalar(
        self, until: float | None, max_events: int | None
    ) -> float:
        """The :meth:`run` loop one event at a time, with a horizon and/or
        an event budget.

        Counters update per event here.  Stopping at the horizon or the
        budget re-parks the unexecuted tail of the active bucket.
        """
        buckets = self._buckets
        heap = self._bucket_heap
        table = self._table
        heappop = heapq.heappop
        depth_hw = self._npending
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        stopped = False
        while heap and not stopped:
            b = heappop(heap)
            batch = buckets.pop(b)
            if len(batch) > 1:
                batch.sort()
            self._active_bucket = b
            self._active_list = batch
            i = 0
            while i < len(batch):
                t, _, h, a = batch[i]
                if until is not None and t > until:
                    stopped = True
                    break
                if max_events is not None and self._events_processed >= max_events:
                    self._repark(b, batch, i)
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events -- likely a "
                        "protocol bug (deadlock would drain, livelock would not)"
                    )
                if self._npending > depth_hw:
                    depth_hw = self._npending
                i += 1
                self.now = t
                self._events_processed += 1
                self._npending -= 1
                if h >= 2:
                    table[h](a)
                elif h == 0:
                    a()
                else:
                    a[0](a[1])
            self._repark(b, batch, i)
        self._report(start_events, depth_hw, start_wall)
        return self.now

    def _report(self, start_events: int, depth_hw: int, start_wall: float) -> None:
        """Emit :meth:`Simulator._run_instrumented`'s series (metrics
        attached only): ``sim.events``, ``sim.queue_depth_high_water``,
        ``sim.wall_seconds``, ``sim.events_per_sec``."""
        metrics = self._metrics
        if metrics is None:
            return
        wall = time.perf_counter() - start_wall  # det: allow(DET003)
        n = self._events_processed - start_events
        metrics.counter("sim.events").inc(n)
        metrics.gauge("sim.queue_depth_high_water").update_max(depth_hw)
        metrics.gauge("sim.wall_seconds").set(wall)
        if wall > 0.0:
            metrics.gauge("sim.events_per_sec").set(n / wall)

    def _repark(self, b: int, batch: list, i: int) -> None:
        """Close the active bucket, returning ``batch[i:]`` (the events
        a bounded run did not execute) to the calendar."""
        tail = batch[i:]
        if tail:
            self._buckets[b] = tail
            heapq.heappush(self._bucket_heap, b)
        self._active_bucket = -1
        self._active_list = None

    def pending(self) -> int:
        """Number of events still queued.

        Exact between :meth:`run` calls; mid-bucket reads from callbacks
        lag by up to one bucket on the unbounded path.
        """
        return self._npending

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
