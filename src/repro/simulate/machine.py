"""Simulated message-passing machine: ranks, NICs, and delivery.

Binds the :class:`~repro.simulate.engine.Simulator` clock to the
:class:`~repro.simulate.network.Network` cost model and exposes the small
asynchronous API the PSelInv layers program against:

* :meth:`Machine.post_send` -- non-blocking tagged send.  The sender's NIC
  is occupied for the injection time (messages queue FIFO behind each
  other -- the flat-tree hot-spot mechanism), then the message transits
  and is delivered to the receiver's handler, respecting per
  ``(src, dst)`` channel FIFO order like MPI's non-overtaking rule.
  Converging messages additionally serialize through the receiver's
  NIC-in port (what a flat *reduce* root saturates).
* :meth:`Machine.post_compute` -- enqueue a compute task on a rank's CPU;
  tasks on one rank serialize (one core per rank, as in the paper's
  flat-MPI runs).

Every byte movement is tallied per rank *and per category* in
:class:`CommStats`, which is what the Table I / Table II / heat-map
benchmarks read out.

Two machines share this cost model: :class:`Machine` on the heapq
:class:`~repro.simulate.engine.Simulator` (the reference,
``engine="legacy"``) and :class:`VecMachine` on the calendar-queue
:class:`~repro.simulate.engine.VecSimulator` (``engine="vectorized"``),
which reproduces it bit for bit.

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
    "VecCommStats",
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
    """An in-flight message (payload is opaque to the machine)."""

    __slots__ = ("src", "dst", "tag", "nbytes", "category", "payload")

    def __init__(self, src, dst, tag, nbytes, category, payload=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.category = category
        self.payload = payload

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
    """The simulated distributed-memory machine."""

    # Below this rank count the per-(src, dst) channel clocks live in a
    # flat dense list (no tuple allocation / hashing per message); above
    # it the dense table would waste memory and a dict takes over.
    _FLAT_CHANNEL_MAX_RANKS = 1024

    # Stats container, overridable per machine flavor (the vectorized
    # machine swaps in numpy-column accumulators).
    _stats_cls = CommStats

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: Simulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
    ):
        if network.nranks < nranks:
            raise ValueError("network sized for fewer ranks than requested")
        self.nranks = nranks
        self.network = network
        self.sim = sim or Simulator()
        self.stats = self._stats_cls(nranks)
        # Optional structured trace: when a list is supplied, every send
        # and delivery appends a TraceEvent.  Off (None) on the hot path.
        self._event_log = event_log
        # Optional telemetry sink (a repro.obs.TelemetrySink, duck-typed
        # so the simulator never imports the obs package): receives the
        # same times the machine computes for its own scheduling.  Off
        # (None) on the hot path -- one identity test per message.
        self._rec = recorder
        # Optional MetricsRegistry, exposed so the protocol layers
        # (collectives) can cache instruments at construction.
        self.metrics = metrics
        # Resource availability clocks (plain lists -- hot path).
        self._nic_free = [0.0] * nranks  # outgoing (injection) port
        self._nic_in_free = [0.0] * nranks  # incoming (ejection) port
        self._cpu_free = [0.0] * nranks
        # FIFO channel clocks: last delivery time per (src, dst).
        self._flat_channels = nranks <= self._FLAT_CHANNEL_MAX_RANKS
        if self._flat_channels:
            self._channel_last: Any = [0.0] * (nranks * nranks)
        else:
            self._channel_last = {}
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
        nbytes = int(nbytes)
        msg = Message(src, dst, tag, nbytes, category, payload)
        sim = self.sim
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", sim.now, src, dst, tag, nbytes)
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
        now = self.sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        if self._rec is not None:
            self._rec.record_compute(rank, start, finish, label)
        if fn is not None:
            self.sim.schedule_at(finish, fn)

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


class VecCommStats(CommStats):
    """Per-category tables as preallocated numpy columns.

    Scalar paths update single cells (``col[rank] += nbytes``); slice
    handlers scatter-add whole batches (``np.add.at``).  Byte and count
    tallies are integer-valued and far below 2^53, so both orders give
    exactly the same floats.  Busy-time accumulators stay plain Python
    lists: they are chained-float state updated once per event on the
    scalar path, where list indexing wins.
    """

    def _get(self, table, category):
        arr = table.get(category)
        if arr is None:
            arr = np.zeros(self.nranks)
            table[category] = arr
        return arr

    def _get_counts(self, table, category):
        arr = table.get(category)
        if arr is None:
            arr = np.zeros(self.nranks, dtype=np.int64)
            table[category] = arr
        return arr

    # The read-out views copy: the base class's np.asarray would alias
    # the live accumulator columns.

    @property
    def sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._sent.items()}

    @property
    def received(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._received.items()}

    @property
    def messages_sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._messages_sent.items()}

    def total_sent(self, category: str | None = None) -> np.ndarray:
        if category is not None:
            col = self._sent.get(category)
            return col.copy() if col is not None else np.zeros(self.nranks)
        out = np.zeros(self.nranks)
        for arr in self._sent.values():
            out += arr
        return out

    def total_received(self, category: str | None = None) -> np.ndarray:
        if category is not None:
            col = self._received.get(category)
            return col.copy() if col is not None else np.zeros(self.nranks)
        out = np.zeros(self.nranks)
        for arr in self._received.values():
            out += arr
        return out


class VecMachine(Machine):
    """The machine on the vectorized engine: point route, fused costs.

    Same cost model and same API surface as :class:`Machine` (it *is*
    one, for :meth:`post_send`, :meth:`post_compute`, :meth:`set_handler`
    and stats), but traffic rides the *point route* of
    :class:`~repro.simulate.engine.VecSimulator`:

    * **Point records** -- an in-flight message is the tuple ``(dst,
      nbytes, cid, cb, aux, payload)`` carried in the engine's event-
      argument column (the unspecialized route appends ``src, tag`` for
      the hooks); delivery calls ``cb(dst, payload, aux)``, so the
      collective layer routes a message straight to its continuation
      with ``aux`` carrying the receiver's tree position.  No
      :class:`Message` object exists except for the telemetry hooks and
      the :meth:`post_send` / :meth:`set_handler` compatibility path.
    * **Integer handler dispatch** -- the receive and deliver stages and
      the protocol's compute completions (:meth:`register_task` +
      :meth:`post_named`) are registered once in the engine's handler
      table; every schedule is a flat ``(time, hid, arg)`` triple.
    * **Fused network arithmetic** -- injection/ejection/transit costs
      are inlined from the network's flattened constants, with the
      per-pair ``(latency, 1/bandwidth, jitter)`` triple memoized in a
      dense table (see :meth:`Network.pair_params` for the bit-identity
      argument).  When the network is instrumented for telemetry the
      machine calls the query methods so the tallies still fire.
    * **Column batches** -- :meth:`send_batch` emits one rank's whole
      fan-out at once (numpy injection chain, elementwise per-pair
      arithmetic), and a slice companion receives whole same-instant
      fan-ins (numpy ejection costs, scatter-add stats).

    ``deliver_cpu_overhead`` charges a fixed CPU cost on the destination
    rank per delivered message (the protocol layer's
    ``per_message_cpu_overhead``, hoisted into the machine so it needs
    no wrapper handler).

    The methods below are the unspecialized route: they call the trace
    log, telemetry recorder and instrumented-network hooks and charge
    the per-delivery overhead.  A hook-free machine swaps them for
    closure-specialized versions (:meth:`_install_fast_path`) with
    identical timestamps.
    """

    _stats_cls = VecCommStats

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
        )
        sim_ = self.sim
        self._hid_receive_pt = sim_.register_handler(self._receive_pt)
        self._hid_deliver_pt = sim_.register_handler(self._deliver_pt)
        # Compute-task label per registered handler id (telemetry only).
        self._labels: dict[int, str] = {}
        # Category interning: id -> name, and per-id stats columns bound
        # lazily on first use so the CommStats dicts gain keys in the
        # exact order the legacy machine would (bit-identity).
        self._cat_ids: dict[str, int] = {}
        self._cat_names: list[str] = []
        self._sent_cols: list[Any] = []
        self._sent_counts: list[Any] = []
        self._recv_cols: list[Any] = []
        # Fused network constants + per-pair memo (dense under the same
        # rank bound as the channel clocks, dict above it).  Skipped
        # when the network is instrumented: the query methods must run
        # so the net.* telemetry tallies fire.
        self._inline_net = not getattr(network, "_instrumented", False)
        self._inj_oh = network._inj_overhead
        self._inj_bw_inv = network._inj_ibw
        self._ej_bw_inv = network._ej_ibw
        self._pairs: Any
        if self._flat_channels:
            self._pairs = [None] * (nranks * nranks)
        else:
            self._pairs = {}
        self._pair_params = network.pair_params
        self._deliver_oh = float(deliver_cpu_overhead)
        # Busy-time columns bound once (self.stats.X costs two lookups
        # per event on the hot path).
        self._nic_out_col = self.stats._nic_out_busy
        self._nic_in_col = self.stats._nic_in_busy
        self._recv_oh_col = self.stats._recv_overhead_busy
        # Hook-free configuration (no telemetry, no trace log, no
        # per-delivery CPU tax, un-instrumented network, dense channel
        # tables): swap the per-message stages for closure-specialized
        # versions with every hook test resolved away.
        if (
            self._rec is None
            and self._event_log is None
            and self._inline_net
            and self._deliver_oh == 0.0
            and self._flat_channels
        ):
            self._install_fast_path()

    # -- wiring --------------------------------------------------------------

    def category_id(self, category: str) -> int:
        """Intern a message category; returns its integer id."""
        cid = self._cat_ids.get(category)
        if cid is None:
            cid = len(self._cat_names)
            self._cat_ids[category] = cid
            self._cat_names.append(category)
            self._sent_cols.append(None)
            self._sent_counts.append(None)
            self._recv_cols.append(None)
        return cid

    def register_task(self, fn: Callable[[Any], None], label: str) -> int:
        """Register a compute-completion handler for :meth:`post_named`;
        ``label`` names its tasks on the telemetry timeline."""
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

    def _message(self, rec) -> Message:
        """Materialize a :class:`Message` view of an unspecialized point
        record for the telemetry hooks."""
        return Message(
            rec[6], rec[0], rec[7], rec[1], self._cat_names[rec[2]], rec[5]
        )

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
        """Legacy-signature send: delivers a :class:`Message` to the
        rank's :meth:`set_handler` handler (the point record's ``aux``
        slot carries it)."""
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

    def send_pt(
        self, src, dst, tag, nbytes, cid, cb, aux=0, payload=None
    ) -> None:
        """Point send: ``cb(dst, payload, aux)`` runs on delivery.

        ``cid`` is a pre-interned category (:meth:`category_id`).  Cost
        model identical to :meth:`Machine.post_send`.
        """
        sim = self.sim
        now = sim.now
        rec = (dst, nbytes, cid, cb, aux, payload, src, tag)
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", now, src, dst, tag, nbytes)
            )
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(self._message(rec), now)
            sim.schedule_msg(now, self._hid_deliver_pt, rec)
            return
        col = self._sent_cols[cid]
        if col is None:
            self._bind_sent(cid)
            col = self._sent_cols[cid]
        col[src] += nbytes
        self._sent_counts[cid][src] += 1
        inline = self._inline_net
        if inline:
            inj = self._inj_oh + nbytes * self._inj_bw_inv
        else:
            inj = self._injection_time(nbytes)
        nic = self._nic_free[src]
        start = nic if nic > now else now
        finish = start + inj
        self._nic_free[src] = finish
        self._nic_out_col[src] += inj
        flat = self._flat_channels
        pidx = src * self.nranks + dst if flat else (src, dst)
        if inline:
            pairs = self._pairs
            pp = pairs[pidx] if flat else pairs.get(pidx)
            if pp is None:
                pp = self._pair_params(src, dst)
                pairs[pidx] = pp
            lat, ibw, jit = pp
            arrival = finish + (lat + nbytes * ibw) * jit
        else:
            arrival = finish + self._transit_time(src, dst, nbytes)
        # Enforce MPI-style non-overtaking per (src, dst) channel.
        ch = self._channel_last
        last = ch[pidx] if flat else ch.get(pidx, 0.0)
        if arrival < last:
            arrival = last
        ch[pidx] = arrival
        if self._rec is not None:
            self._rec.record_send(
                self._message(rec), now, start, finish, arrival
            )
        sim.schedule_msg(arrival, self._hid_receive_pt, rec)

    def send_batch(self, src, dsts, tag, nbytes, cid, cb, auxs, payload=None):
        """Emit one rank's fan-out (one :meth:`send_pt` per child)."""
        send = self.send_pt
        for dst, aux in zip(dsts, auxs):
            send(src, dst, tag, nbytes, cid, cb, aux, payload)

    def _receive_pt(self, rec) -> None:
        """Receive stage: ejection through the NIC-in port, then the
        receive-side CPU overhead (:meth:`Machine._receive`)."""
        dst = rec[0]
        nbytes = rec[1]
        cid = rec[2]
        col = self._recv_cols[cid]
        if col is None:
            self._bind_recv(cid)
            col = self._recv_cols[cid]
        col[dst] += nbytes
        sim = self.sim
        now = sim.now
        if self._inline_net:
            eject = nbytes * self._ej_bw_inv
        else:
            eject = self._ejection_time(nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self._nic_in_col[dst] += eject
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        deliver_at = start + oh
        self._cpu_free[dst] = deliver_at
        self._recv_oh_col[dst] += oh
        if self._rec is not None:
            self._rec.record_receive(
                self._message(rec), nic_start, nic_done, start, deliver_at
            )
        sim.schedule_msg(deliver_at, self._hid_deliver_pt, rec)

    def _deliver_pt(self, rec) -> None:
        """Deliver stage: hooks, per-delivery overhead, then the callback
        (the order of :meth:`Machine._deliver` plus the legacy
        protocol's overhead handler)."""
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
        rec[3](dst, rec[5], rec[4])

    # -- computation -------------------------------------------------------------

    def post_named(self, rank, seconds, hid, arg) -> None:
        """Closure-free compute: dispatch ``table[hid](arg)`` after
        occupying ``rank``'s CPU for the precomputed ``seconds``.

        Timestamp arithmetic is identical to :meth:`Machine.post_compute`
        with a callback; the protocol layer precomputes ``seconds`` with
        the exact ``compute_time`` expression.  ``hid`` comes from
        :meth:`register_task`, whose label the recorder sees.
        """
        sim = self.sim
        now = sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        if self._rec is not None:
            self._rec.record_compute(rank, start, finish, self._labels[hid])
        sim.schedule_msg(finish, hid, arg)

    # -- closure-specialized fast path ----------------------------------------

    def _install_fast_path(self) -> None:
        """Specialize the per-message stages for the hook-free configuration.

        Rebuilds :meth:`send_pt`, :meth:`send_batch`, :meth:`post_named`
        and the receive/deliver handler-table entries as closures with
        every per-event branch (telemetry recorder, trace log,
        instrumented network, delivery overhead, dense-vs-dict channels)
        resolved at construction time and all stable state -- the
        engine's time/hid/arg columns, the calendar buckets and heap,
        the resource clocks and stats columns -- bound as closure cells
        (``LOAD_DEREF`` beats two ``LOAD_ATTR`` per access, and on a
        path run a few million times per simulation that is the
        difference that shows up on the profile).  Only the engine's
        scalar cursor state (``_seq``/``_npending``/``_active_bucket``/
        ``_active_list``) stays behind attribute loads: it must be
        visible to the engine's own drain loop.  The push sequence is
        :meth:`VecSimulator._push` inlined; the past-time guard is
        elided because every machine-scheduled time is ``now`` plus
        non-negative cost terms.

        The closures shadow the methods as instance attributes -- the
        same pattern as :meth:`Network.instrument` -- and replace the
        handler-table slots registered in ``__init__``, so the callable
        ids seen by the protocol layer do not change.  All hooks are
        constructor arguments, so the specialization decision is final
        for the machine's lifetime.  Timestamp arithmetic is expression-
        for-expression identical to the unspecialized stages (and
        therefore to :class:`Machine`): same terms, same order,
        bit-identical floats.

        When the receive-side CPU overhead spans at least one bucket (so
        a pushed delivery can never land in the *active* bucket), a
        slice companion for the receive stage is installed as well.
        """
        sim = self.sim
        nranks = self.nranks
        sent_cols = self._sent_cols
        sent_counts = self._sent_counts
        recv_cols = self._recv_cols
        bind_sent = self._bind_sent
        bind_recv = self._bind_recv
        nic_free = self._nic_free
        nic_in_free = self._nic_in_free
        cpu_free = self._cpu_free
        nic_out_col = self._nic_out_col
        nic_in_col = self._nic_in_col
        recv_oh_col = self._recv_oh_col
        compute_busy = self.stats._compute_busy
        ch = self._channel_last
        pairs = self._pairs
        pair_params = self._pair_params
        inj_oh = self._inj_oh
        inj_bw_inv = self._inj_bw_inv
        ej_bw_inv = self._ej_bw_inv
        recv_oh = self._recv_overhead
        hid_receive_pt = self._hid_receive_pt
        hid_deliver_pt = self._hid_deliver_pt
        # Engine internals (the inlined _push).
        st = sim._times
        shids = sim._hids
        sargs = sim._args
        sbk = sim._buckets
        sheap = sim._bucket_heap
        inv_width = sim._inv_width
        key = st.__getitem__

        def fast_send_pt(src, dst, tag, nbytes, cid, cb, aux=0, payload=None):
            now = sim.now
            if src == dst:
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
                pidx = src * nranks + dst
                pp = pairs[pidx]
                if pp is None:
                    pp = pair_params(src, dst)
                    pairs[pidx] = pp
                lat, ibw, jit = pp
                arrival = finish + (lat + nbytes * ibw) * jit
                last = ch[pidx]
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
                hid = hid_receive_pt
            s = sim._seq
            sim._seq = s + 1
            st.append(arrival)
            shids.append(hid)
            sargs.append((dst, nbytes, cid, cb, aux, payload))
            sim._npending += 1
            b = int(arrival * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_receive_pt(rec):
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
            s = sim._seq
            sim._seq = s + 1
            st.append(deliver_at)
            shids.append(hid_deliver_pt)
            sargs.append(rec)
            sim._npending += 1
            b = int(deliver_at * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_deliver_pt(rec):
            rec[3](rec[0], rec[5], rec[4])

        def fast_post_named(rank, seconds, hid, arg):
            now = sim.now
            cpu = cpu_free[rank]
            start = cpu if cpu > now else now
            finish = start + seconds
            cpu_free[rank] = finish
            compute_busy[rank] += seconds
            s = sim._seq
            sim._seq = s + 1
            st.append(finish)
            shids.append(hid)
            sargs.append(arg)
            sim._npending += 1
            b = int(finish * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_send_batch(src, dsts, tag, nbytes, cid, cb, auxs, payload=None):
            n = len(dsts)
            now = sim.now
            col = sent_cols[cid]
            if col is None:
                bind_sent(cid)
                col = sent_cols[cid]
            # n integer-valued adds collapse to one (exact below 2^53).
            col[src] += nbytes * n
            sent_counts[cid][src] += n
            inj = inj_oh + nbytes * inj_bw_inv
            nic = nic_free[src]
            start = nic if nic > now else now
            # NIC injection chain: finish_k = finish_{k-1} + inj.
            # np.add.accumulate is a sequential left fold -- bit-identical
            # to the scalar chained adds (and start + inj > now always,
            # so the scalar max() never rebases mid-chain).
            steps = np.full(n, inj)
            steps[0] = start + inj
            fins = np.add.accumulate(steps)
            nic_free[src] = float(fins[-1])
            bsteps = np.full(n, inj)
            bsteps[0] = nic_out_col[src] + inj
            nic_out_col[src] = float(np.add.accumulate(bsteps)[-1])
            pidxs = [src * nranks + d for d in dsts]
            pps = []
            app = pps.append
            for x in range(n):
                pi = pidxs[x]
                pp = pairs[pi]
                if pp is None:
                    pp = pair_params(src, dsts[x])
                    pairs[pi] = pp
                app(pp)
            lats = np.array([p[0] for p in pps])
            ibws = np.array([p[1] for p in pps])
            jits = np.array([p[2] for p in pps])
            arrl = (fins + (lats + nbytes * ibws) * jits).tolist()
            # Channel FIFO clamps stay scalar (stateful per pair).
            for x in range(n):
                pi = pidxs[x]
                a = arrl[x]
                last = ch[pi]
                if a < last:
                    a = last
                    arrl[x] = a
                ch[pi] = a
            s0 = sim._seq
            sim._seq = s0 + n
            st.extend(arrl)
            shids.extend([hid_receive_pt] * n)
            sargs.extend(
                [(dsts[x], nbytes, cid, cb, auxs[x], payload) for x in range(n)]
            )
            sim._npending += n
            ab = sim._active_bucket
            al = sim._active_list
            for x in range(n):
                b = int(arrl[x] * inv_width)
                if b == ab:
                    insort(al, s0 + x, key=key)
                else:
                    try:
                        sbk[b].append(s0 + x)
                    except KeyError:
                        sbk[b] = [s0 + x]
                        heappush(sheap, b)

        self.send_pt = fast_send_pt
        self.send_batch = fast_send_batch
        self.post_named = fast_post_named
        sim._table[hid_receive_pt] = fast_receive_pt
        sim._table[hid_deliver_pt] = fast_deliver_pt

        if recv_oh < sim.BUCKET_WIDTH:
            # Slice dispatch requires pushed deliveries to land strictly
            # past the active bucket: deliver_at >= now + recv_oh, so
            # recv_oh >= BUCKET_WIDTH guarantees it.  Otherwise the
            # scalar closures above remain the only receive path.
            return

        def fast_receive_pt_batch(batch, lo, hi):
            idx = batch[lo:hi]
            recs = [sargs[s] for s in idx]
            ts = [st[s] for s in idx]
            for s in idx:
                sargs[s] = None
            n = hi - lo
            nbl = [r[1] for r in recs]
            dsts = [r[0] for r in recs]
            ej = (np.array(nbl, dtype=np.float64) * ej_bw_inv).tolist()
            # Category byte tallies: scatter-add of exact integers
            # (order-free); single-category slices take one np.add.at.
            c0 = recs[0][2]
            mixed = False
            for r in recs:
                if r[2] != c0:
                    mixed = True
                    break
            if mixed:
                for x in range(n):
                    c = recs[x][2]
                    col = recv_cols[c]
                    if col is None:
                        bind_recv(c)
                        col = recv_cols[c]
                    col[dsts[x]] += nbl[x]
            else:
                col = recv_cols[c0]
                if col is None:
                    bind_recv(c0)
                    col = recv_cols[c0]
                np.add.at(col, dsts, np.array(nbl, dtype=np.float64))
            deliver = [0.0] * n
            for x in range(n):
                dst = dsts[x]
                now = ts[x]
                e = ej[x]
                nic = nic_in_free[dst]
                if nic <= now:
                    nic = now
                nic_done = nic + e
                nic_in_free[dst] = nic_done
                nic_in_col[dst] += e
                cpu = cpu_free[dst]
                d = (cpu if cpu > nic_done else nic_done) + recv_oh
                cpu_free[dst] = d
                recv_oh_col[dst] += recv_oh
                deliver[x] = d
            s0 = sim._seq
            sim._seq = s0 + n
            st.extend(deliver)
            shids.extend([hid_deliver_pt] * n)
            sargs.extend(recs)
            sim._npending += n
            bids = (
                (np.array(deliver) * inv_width).astype(np.int64).tolist()
            )
            for x in range(n):
                b = bids[x]
                try:
                    sbk[b].append(s0 + x)
                except KeyError:
                    sbk[b] = [s0 + x]
                    heappush(sheap, b)
            sim.now = ts[n - 1]

        sim.register_batch_handler(hid_receive_pt, fast_receive_pt_batch)
