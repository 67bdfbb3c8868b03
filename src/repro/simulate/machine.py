"""Simulated message-passing machine: ranks, NICs, and delivery.

Binds the :class:`~repro.simulate.engine.Simulator` clock to the
:class:`~repro.simulate.network.Network` cost model and exposes the small
asynchronous API the PSelInv layers program against:

* :meth:`Machine.post_send` / :meth:`Machine.send_pt` -- non-blocking
  tagged send.  The sender's NIC is occupied for the injection time
  (messages queue FIFO behind each other -- the flat-tree hot-spot
  mechanism), then the message transits and is delivered -- to the
  receiver's handler (``post_send``) or to a delivery callback
  (``send_pt``, category interned by :meth:`Machine.category_id`) --
  respecting per ``(src, dst)`` channel FIFO order like MPI's
  non-overtaking rule.  Converging messages additionally serialize
  through the receiver's NIC-in port (what a flat *reduce* root
  saturates).
* :meth:`Machine.post_compute` / :meth:`Machine.post_named` -- enqueue a
  compute task on a rank's CPU (a closure, or a task registered with
  :meth:`Machine.register_task` and its argument); tasks on one rank
  serialize (one core per rank, as in the paper's flat-MPI runs).

Every byte movement is tallied per rank *and per category* in
:class:`CommStats`, which is what the Table I / Table II / heat-map
benchmarks read out.

Two machines implement this interface on one cost model: :class:`Machine`
on the heapq :class:`~repro.simulate.engine.Simulator` (the reference
oracle, ``engine="legacy"``: one :class:`Message` per message and the
network's own cost methods) and :class:`VecMachine` on the
calendar-queue :class:`~repro.simulate.engine.VecSimulator`
(``engine="vectorized"``: fused per-stage closures), which reproduces
it bit for bit.  The symmetric protocol runs unchanged on either.

Implementation note: this is the simulator's innermost loop (millions of
messages per run), so per-rank clocks and counters are plain Python lists
-- scalar indexing on ndarrays is several times slower.
"""

from __future__ import annotations

import gc
from bisect import insort
from heapq import heappush
from typing import Any, Callable, NamedTuple

import numpy as np

from .engine import Simulator, VecSimulator
from .network import Network

__all__ = [
    "Message",
    "CommStats",
    "Machine",
    "TraceEvent",
    "VecMachine",
]


class TraceEvent(NamedTuple):
    """One structured event-log record (the ``repro check`` trace hook).

    ``kind`` is ``"send"`` (stamped when :meth:`Machine.post_send` accepts
    the message, self-sends included) or ``"deliver"`` (stamped when the
    receiver's handler is about to run).  Times are virtual-clock seconds.
    The happens-before trace validator (:func:`repro.check.validate_trace`)
    replays these records against the static plan model.
    """

    kind: str
    time: float
    src: int
    dst: int
    tag: Any
    nbytes: int


class Message:
    """An in-flight message (payload is opaque to the machine).

    ``cb`` is the delivery callback of a :meth:`Machine.send_pt` message,
    called as ``cb(dst, payload, aux)``; ``None`` routes delivery to the
    receiving rank's :meth:`Machine.set_handler` handler.
    """

    __slots__ = ("src", "dst", "tag", "nbytes", "category", "payload", "cb", "aux")

    def __init__(self, src, dst, tag, nbytes, category, payload=None,
                 cb=None, aux=0):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.category = category
        self.payload = payload
        self.cb = cb
        self.aux = aux

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.src}->{self.dst}, tag={self.tag!r}, "
            f"{self.nbytes}B, {self.category})"
        )


class CommStats:
    """Per-rank byte and time counters, split by message category."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._sent: dict[str, list[float]] = {}
        self._received: dict[str, list[float]] = {}
        # Message *counts* are integers and stay integers all the way to
        # the read-out (the heat-map layer asserts the dtype).
        self._messages_sent: dict[str, list[int]] = {}
        self._compute_busy = [0.0] * nranks
        self._recv_overhead_busy = [0.0] * nranks
        self._nic_out_busy = [0.0] * nranks
        self._nic_in_busy = [0.0] * nranks

    # -- hot-path accumulators (lists, not ndarrays) -----------------------

    def _get(self, table: dict[str, list[float]], category: str) -> list[float]:
        arr = table.get(category)
        if arr is None:
            arr = [0.0] * self.nranks
            table[category] = arr
        return arr

    def _get_counts(self, table: dict[str, list[int]], category: str) -> list[int]:
        arr = table.get(category)
        if arr is None:
            arr = [0] * self.nranks
            table[category] = arr
        return arr

    def on_send(self, msg: Message) -> None:
        self._get(self._sent, msg.category)[msg.src] += msg.nbytes
        self._get_counts(self._messages_sent, msg.category)[msg.src] += 1

    def on_receive(self, msg: Message) -> None:
        self._get(self._received, msg.category)[msg.dst] += msg.nbytes

    # -- read-out views ------------------------------------------------------

    @property
    def sent(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._sent.items()}

    @property
    def received(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._received.items()}

    @property
    def messages_sent(self) -> dict[str, np.ndarray]:
        """Per-rank message counts by category (integer dtype)."""
        return {
            k: np.asarray(v, dtype=np.int64)
            for k, v in self._messages_sent.items()
        }

    @property
    def compute_busy(self) -> np.ndarray:
        return np.asarray(self._compute_busy)

    @property
    def recv_overhead_busy(self) -> np.ndarray:
        return np.asarray(self._recv_overhead_busy)

    @property
    def nic_out_busy(self) -> np.ndarray:
        return np.asarray(self._nic_out_busy)

    @property
    def nic_in_busy(self) -> np.ndarray:
        return np.asarray(self._nic_in_busy)

    def total_sent(self, category: str | None = None) -> np.ndarray:
        """Bytes sent per rank (one category, or all summed)."""
        if category is not None:
            return np.asarray(self._sent.get(category, [0.0] * self.nranks))
        out = np.zeros(self.nranks)
        for arr in self._sent.values():
            out += arr
        return out

    def total_received(self, category: str | None = None) -> np.ndarray:
        """Bytes received per rank (one category, or all summed)."""
        if category is not None:
            return np.asarray(self._received.get(category, [0.0] * self.nranks))
        out = np.zeros(self.nranks)
        for arr in self._received.values():
            out += arr
        return out


class Machine:
    """The simulated distributed-memory machine.

    Two send routes share one cost path: :meth:`post_send` delivers a
    :class:`Message` to the receiving rank's handler, and :meth:`send_pt`
    (the compiled protocol's route, a message category interned by
    :meth:`category_id`) hands it straight to a delivery callback.
    :meth:`post_named` runs a task registered with :meth:`register_task`
    after the CPU time it occupies.  ``deliver_cpu_overhead`` is a CPU
    cost charged on the destination per delivered message, before its
    handler or callback runs.
    """

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: Simulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
        deliver_cpu_overhead: float = 0.0,
    ):
        if network.nranks < nranks:
            raise ValueError("network sized for fewer ranks than requested")
        self.nranks = nranks
        self.network = network
        self.sim = sim or Simulator()
        self.stats = CommStats(nranks)
        # Optional structured trace: when a list is supplied, every send
        # and delivery appends a TraceEvent.  Off (None) on the hot path.
        self._event_log = event_log
        # Optional telemetry sink (a repro.obs.TelemetrySink, duck-typed
        # so the simulator never imports the obs package): receives the
        # same times the machine computes for its own scheduling.  Off
        # (None) on the hot path -- one identity test per message.
        self._rec = recorder
        self._deliver_oh = float(deliver_cpu_overhead)
        # Per-collective shape tallies, (op, category, family, size,
        # nbytes) -> count, kept only with metrics attached; the protocol
        # layer turns them into coll.* series after the drain.
        self.coll_shapes: dict | None = {} if metrics is not None else None
        # Interned message categories (id -> name) and the label of each
        # registered task (telemetry only).
        self._cat_ids: dict[str, int] = {}
        self._cat_names: list[str] = []
        self._labels: dict[int, str] = {}
        self._tasks: list[Callable[[Any], None]] = []
        # Resource availability clocks (plain lists -- hot path).
        self._nic_free = [0.0] * nranks  # outgoing (injection) port
        self._nic_in_free = [0.0] * nranks  # incoming (ejection) port
        self._cpu_free = [0.0] * nranks
        # FIFO channel clocks: last delivery time per (src, dst), keyed
        # ``src * nranks + dst`` and holding only the pairs that carried
        # a message (an absent pair reads as 0.0).
        self._channel_last: dict[int, float] = {}
        self._recv_overhead = network.config.receive_overhead
        # Pre-bound network queries: post_send/_receive run once per
        # message, and the two attribute hops per call add up.
        self._injection_time = network.injection_time
        self._transit_time = network.transit_time
        self._ejection_time = network.ejection_time
        # Message handler per rank: fn(msg) -> None.
        self._handlers: list[Callable[[Message], None] | None] = [None] * nranks

    # -- wiring --------------------------------------------------------------

    def set_handler(self, rank: int, fn: Callable[[Message], None]) -> None:
        """Install the message handler for ``rank``."""
        self._handlers[rank] = fn

    def category_id(self, category: str) -> int:
        """Intern a message category; returns its integer id."""
        cid = self._cat_ids.get(category)
        if cid is None:
            cid = len(self._cat_names)
            self._cat_ids[category] = cid
            self._cat_names.append(category)
        return cid

    def register_task(self, fn: Callable[[Any], None], label: str) -> int:
        """Register a compute-completion task for :meth:`post_named`;
        ``label`` names its tasks on the telemetry timeline."""
        self._tasks.append(fn)
        hid = len(self._tasks) - 1
        self._labels[hid] = label
        return hid

    # -- time accessors --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def cpu_busy_until(self, rank: int) -> float:
        return self._cpu_free[rank]

    # -- communication ---------------------------------------------------------

    def post_send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        category: str,
        payload: Any = None,
    ) -> None:
        """Non-blocking send; delivery invokes the receiver's handler.

        Self-sends short-circuit through the handler with zero network
        cost (a rank "sending to itself" is just a local hand-off, and the
        paper's per-rank volume counters only see real messages).
        """
        self._send(Message(src, dst, tag, int(nbytes), category, payload))

    def send_pt(self, src, dst, tag, nbytes, cid, cb, aux=0, payload=None):
        """:meth:`post_send` of a message of category id ``cid`` whose
        delivery calls ``cb(dst, payload, aux)`` instead of a handler."""
        self._send(
            Message(src, dst, tag, nbytes, self._cat_names[cid], payload, cb, aux)
        )

    def _send(self, msg: Message) -> None:
        src, dst, nbytes = msg.src, msg.dst, msg.nbytes
        sim = self.sim
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", sim.now, src, dst, msg.tag, nbytes)
            )
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(msg, sim.now)
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
        # Enforce MPI-style non-overtaking per (src, dst) channel.
        ch = self._channel_last
        idx = src * self.nranks + dst
        last = ch.get(idx, 0.0)
        if arrival < last:
            arrival = last
        ch[idx] = arrival
        if self._rec is not None:
            self._rec.record_send(msg, now, start, finish, arrival)
        sim.schedule_at(arrival, self._receive, msg)

    def _receive(self, msg: Message) -> None:
        self.stats.on_receive(msg)
        dst = msg.dst
        now = self.sim.now
        # Ejection: converging messages serialize through the receiver's
        # NIC-in port (a flat reduce root pays p-1 of these back to back).
        eject = self._ejection_time(msg.nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self.stats._nic_in_busy[dst] += eject
        # Then receive-side software overhead occupies the receiver's CPU.
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        self._cpu_free[dst] = start + oh
        self.stats._recv_overhead_busy[dst] += oh
        if self._rec is not None:
            self._rec.record_receive(msg, nic_start, nic_done, start, start + oh)
        self.sim.schedule_at(start + oh, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        if self._rec is not None:
            self._rec.record_deliver(msg, self.sim.now)
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent(
                    "deliver", self.sim.now, msg.src, msg.dst, msg.tag,
                    msg.nbytes,
                )
            )
        if self._deliver_oh > 0.0:
            self.post_compute(msg.dst, self._deliver_oh, label="msg-overhead")
        if msg.cb is not None:
            msg.cb(msg.dst, msg.payload, msg.aux)
            return
        fn = self._handlers[msg.dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {msg.dst}")
        fn(msg)

    # -- computation -------------------------------------------------------------

    def post_compute(
        self,
        rank: int,
        seconds: float,
        fn: Callable[[], None] | None = None,
        *,
        flops: float | None = None,
        label: str | None = None,
    ) -> None:
        """Occupy ``rank``'s CPU for ``seconds`` (or a flop count), then
        run ``fn`` at completion.  ``label`` names the task on the
        telemetry timeline (ignored when no recorder is attached)."""
        if flops is not None:
            seconds = self.network.compute_time(flops)
        if seconds < 0:
            raise ValueError("negative compute time")
        finish = self._occupy_cpu(rank, seconds, label)
        if fn is not None:
            self.sim.schedule_at(finish, fn)

    def post_named(self, rank: int, seconds: float, hid: int, arg: Any) -> None:
        """Occupy ``rank``'s CPU for ``seconds``, then run the task
        registered as ``hid`` as ``fn(arg)``."""
        finish = self._occupy_cpu(rank, seconds, self._labels[hid])
        self.sim.schedule_at(finish, self._tasks[hid], arg)

    def _occupy_cpu(self, rank: int, seconds: float, label: str | None) -> float:
        """Queue ``seconds`` of work on ``rank``'s CPU; returns its finish."""
        now = self.sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        if self._rec is not None:
            self._rec.record_compute(rank, start, finish, label)
        return finish

    # -- lifecycle ---------------------------------------------------------------

    def run(self, max_events: int | None = None) -> float:
        """Drain all events; returns the makespan (final virtual time).

        The cyclic garbage collector is paused for the drain and its
        previous state restored afterwards: the live simulator holds
        hundreds of thousands of containers that every full collection
        re-walks while reclaiming almost nothing (the event records are
        acyclic and freed by reference counting).  One full collection
        runs first, while the collector is enabled: a drain's
        allocations no longer advance the collector's generation
        counters, so without it the cyclic object graphs of finished
        simulations would pile up across runs.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.collect()
        gc.disable()
        try:
            return self.sim.run(max_events=max_events)
        finally:
            if was_enabled:
                gc.enable()


class VecMachine(Machine):
    """The machine on the vectorized engine: point route, fused costs.

    Same cost model and same API surface as :class:`Machine` (it *is*
    one, for :meth:`post_compute`, :meth:`set_handler`, the category and
    task tables and stats), but traffic rides the *point route* of
    :class:`~repro.simulate.engine.VecSimulator`:

    * **Point records** -- an in-flight message is the tuple ``(dst,
      nbytes, cid, cb, aux, payload, src, tag)`` in the engine's event-
      argument column; delivery calls ``cb(dst, payload, aux)``, so a
      collective routes a message straight to its continuation with
      ``aux`` carrying the receiver's tree position.
    * **Integer handler dispatch** -- the receive and deliver stages and
      the protocol's compute completions (:meth:`register_task` +
      ``post_named``) sit in the engine's handler table; every schedule
      is a flat ``(time, hid, arg)`` triple.
    * **Fused network arithmetic** -- injection/ejection/transit costs
      are inlined from the network's flattened constants, with the
      ``(latency, 1/bandwidth, jitter)`` triple memoized per *node*
      pair (it depends only on the two nodes, see
      :meth:`Network.pair_params`) in a list indexed ``node_of[src] *
      nnodes + node_of[dst]``.

    Each per-message stage exists once, built in ``__init__`` as a
    closure with all stable state (calendar buckets and heap, resource
    clocks, stats columns, the node-pair cost memo) in cells:
    ``send_pt(src, dst, tag, nbytes, cid, cb, aux=0, payload=None)``
    (``cid`` from :meth:`category_id`; a fan-out is one call per
    child), the receive stage (NIC-in ejection, then the receive-side
    CPU overhead), the deliver stage (hooks, then ``cb``) and
    ``post_named(rank, seconds, hid, arg)`` (occupy ``rank``'s CPU for
    the precomputed ``seconds``, then dispatch ``table[hid](arg)``).
    Each inlines :meth:`VecSimulator._push` without its past-time guard
    (every machine-scheduled time is ``now`` plus non-negative costs);
    only the engine's cursor state stays behind attribute loads.  The
    arithmetic is expression-for-expression that of :class:`Machine`,
    so timestamps are bit-identical.

    The timeline recorder, the trace log and ``deliver_cpu_overhead``
    are one hook test per stage.  Metrics and hot spots need none: the
    simulator reports its loop series, the compiled collectives tally
    their shapes in :attr:`coll_shapes`, and
    :meth:`repro.obs.Telemetry.finish` reads :attr:`stats` after the
    drain.
    """

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: VecSimulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
        deliver_cpu_overhead: float = 0.0,
    ):
        super().__init__(
            nranks,
            network,
            sim or VecSimulator(),
            event_log=event_log,
            recorder=recorder,
            metrics=metrics,
            deliver_cpu_overhead=deliver_cpu_overhead,
        )
        # Per category id, the CommStats tally lists, bound lazily on
        # first use so the CommStats dicts gain keys in the exact order
        # the heapq machine's would (bit-identity).
        self._sent_cols: list[Any] = []
        self._sent_counts: list[Any] = []
        self._recv_cols: list[Any] = []

        # -- the per-message stages (see the class docstring) ----------------
        sim = self.sim
        stats = self.stats
        nranks = self.nranks
        sent_cols = self._sent_cols
        sent_counts = self._sent_counts
        recv_cols = self._recv_cols
        bind_sent = self._bind_sent
        bind_recv = self._bind_recv
        nic_free = self._nic_free
        nic_in_free = self._nic_in_free
        cpu_free = self._cpu_free
        nic_out_col = stats._nic_out_busy
        nic_in_col = stats._nic_in_busy
        recv_oh_col = stats._recv_overhead_busy
        compute_busy = stats._compute_busy
        ch = self._channel_last
        ch_get = ch.get
        node_of = network._node_list
        nnodes = network.nnodes
        # (latency, 1/bandwidth, jitter) per node pair, filled on first use.
        pairs: list[Any] = [None] * (nnodes * nnodes)
        pair_params = network.pair_params
        inj_oh = network._inj_overhead
        inj_bw_inv = network._inj_ibw
        ej_bw_inv = network._ej_ibw
        recv_oh = self._recv_overhead
        labels = self._labels
        message = self._message
        hook_send = self._hook_send
        hook_deliver = self._hook_deliver
        timeline = recorder
        hooked = (
            recorder is not None
            or event_log is not None
            or self._deliver_oh > 0.0
        )
        # Engine internals (the inlined _push).
        sbk = sim._buckets
        sheap = sim._bucket_heap
        inv_width = sim._inv_width

        def deliver_pt(rec):
            if hooked:
                hook_deliver(rec)
            rec[3](rec[0], rec[5], rec[4])

        def receive_pt(rec):
            dst = rec[0]
            nbytes = rec[1]
            col = recv_cols[rec[2]]
            if col is None:
                bind_recv(rec[2])
                col = recv_cols[rec[2]]
            col[dst] += nbytes
            now = sim.now
            eject = nbytes * ej_bw_inv
            nic = nic_in_free[dst]
            nic_start = nic if nic > now else now
            nic_done = nic_start + eject
            nic_in_free[dst] = nic_done
            nic_in_col[dst] += eject
            cpu = cpu_free[dst]
            start = cpu if cpu > nic_done else nic_done
            deliver_at = start + recv_oh
            cpu_free[dst] = deliver_at
            recv_oh_col[dst] += recv_oh
            if timeline is not None:
                timeline.record_receive(
                    message(rec), nic_start, nic_done, start, deliver_at
                )
            s = sim._seq
            sim._seq = s + 1
            sim._npending += 1
            ev = (deliver_at, s, hid_deliver_pt, rec)
            b = int(deliver_at * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, ev)
            else:
                try:
                    sbk[b].append(ev)
                except KeyError:
                    sbk[b] = [ev]
                    heappush(sheap, b)

        hid_receive_pt = sim.register_handler(receive_pt)
        hid_deliver_pt = sim.register_handler(deliver_pt)

        def send_pt(src, dst, tag, nbytes, cid, cb, aux=0, payload=None):
            now = sim.now
            rec = (dst, nbytes, cid, cb, aux, payload, src, tag)
            if src == dst:
                if hooked:
                    hook_send(rec, now)
                arrival = now
                hid = hid_deliver_pt
            else:
                col = sent_cols[cid]
                if col is None:
                    bind_sent(cid)
                    col = sent_cols[cid]
                col[src] += nbytes
                sent_counts[cid][src] += 1
                inj = inj_oh + nbytes * inj_bw_inv
                nic = nic_free[src]
                start = nic if nic > now else now
                finish = start + inj
                nic_free[src] = finish
                nic_out_col[src] += inj
                nidx = node_of[src] * nnodes + node_of[dst]
                pp = pairs[nidx]
                if pp is None:
                    pp = pair_params(src, dst)
                    pairs[nidx] = pp
                lat, ibw, jit = pp
                arrival = finish + (lat + nbytes * ibw) * jit
                # Enforce MPI-style non-overtaking per (src, dst) channel.
                pidx = src * nranks + dst
                last = ch_get(pidx, 0.0)
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
                if hooked:
                    hook_send(rec, now, start, finish, arrival)
                hid = hid_receive_pt
            s = sim._seq
            sim._seq = s + 1
            sim._npending += 1
            ev = (arrival, s, hid, rec)
            b = int(arrival * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, ev)
            else:
                try:
                    sbk[b].append(ev)
                except KeyError:
                    sbk[b] = [ev]
                    heappush(sheap, b)

        def post_named(rank, seconds, hid, arg):
            now = sim.now
            cpu = cpu_free[rank]
            start = cpu if cpu > now else now
            finish = start + seconds
            cpu_free[rank] = finish
            compute_busy[rank] += seconds
            if timeline is not None:
                timeline.record_compute(rank, start, finish, labels[hid])
            s = sim._seq
            sim._seq = s + 1
            sim._npending += 1
            ev = (finish, s, hid, arg)
            b = int(finish * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, ev)
            else:
                try:
                    sbk[b].append(ev)
                except KeyError:
                    sbk[b] = [ev]
                    heappush(sheap, b)

        self.send_pt = send_pt
        self.post_named = post_named

    # -- wiring --------------------------------------------------------------

    def category_id(self, category: str) -> int:
        cid = super().category_id(category)
        if cid == len(self._sent_cols):
            self._sent_cols.append(None)
            self._sent_counts.append(None)
            self._recv_cols.append(None)
        return cid

    def register_task(self, fn: Callable[[Any], None], label: str) -> int:
        # The id is the engine's handler id: post_named schedules it as is.
        hid = self.sim.register_handler(fn)
        self._labels[hid] = label
        return hid

    def _bind_sent(self, cid: int) -> None:
        name = self._cat_names[cid]
        stats = self.stats
        self._sent_cols[cid] = stats._get(stats._sent, name)
        self._sent_counts[cid] = stats._get_counts(stats._messages_sent, name)

    def _bind_recv(self, cid: int) -> None:
        stats = self.stats
        self._recv_cols[cid] = stats._get(stats._received, self._cat_names[cid])

    # -- hooks ---------------------------------------------------------------

    def _message(self, rec) -> Message:
        """Materialize a :class:`Message` view of a point record for the
        timeline hooks."""
        return Message(
            rec[6], rec[0], rec[7], rec[1], self._cat_names[rec[2]], rec[5]
        )

    def _hook_send(self, rec, now, start=None, finish=None, arrival=None):
        """Send-stage hooks; ``start`` is None for a self-send."""
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", now, rec[6], rec[0], rec[7], rec[1])
            )
        if self._rec is not None:
            if start is None:
                self._rec.record_local(self._message(rec), now)
            else:
                self._rec.record_send(
                    self._message(rec), now, start, finish, arrival
                )

    def _hook_deliver(self, rec) -> None:
        """Deliver-stage hooks, in :meth:`Machine._deliver` order, then
        the per-delivery CPU overhead."""
        dst = rec[0]
        now = self.sim.now
        if self._rec is not None:
            self._rec.record_deliver(self._message(rec), now)
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("deliver", now, rec[6], dst, rec[7], rec[1])
            )
        if self._deliver_oh > 0.0:
            self.post_compute(dst, self._deliver_oh, label="msg-overhead")

    # -- communication ---------------------------------------------------------

    def post_send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        category: str,
        payload: Any = None,
    ) -> None:
        """:meth:`Machine.post_send` on the point route: delivers a
        :class:`Message` to the rank's :meth:`set_handler` handler (the
        point record's ``aux`` slot carries it)."""
        nbytes = int(nbytes)
        msg = Message(src, dst, tag, nbytes, category, payload)
        self.send_pt(
            src, dst, tag, nbytes, self.category_id(category),
            self._to_handler, msg, payload,
        )

    def _to_handler(self, dst: int, payload: Any, msg: Message) -> None:
        fn = self._handlers[dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {dst}")
        fn(msg)
