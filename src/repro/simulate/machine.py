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

from .engine import BatchSimulator, Simulator
from .network import Network

__all__ = ["Message", "CommStats", "Machine", "BatchMachine", "TraceEvent"]


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


class BatchMachine(Machine):
    """The machine on the batch engine: SoA message records, fused costs.

    Same cost model and same API surface as :class:`Machine` (it *is*
    one, for :meth:`post_compute`, :meth:`set_handler`, stats, and the
    telemetry hooks), but the per-message hot path is restructured
    around :class:`~repro.simulate.engine.BatchSimulator`:

    * **Struct-of-arrays message records** -- an in-flight message is an
      integer index into parallel columns (``src``/``dst``/``tag``/
      ``nbytes``/``category-id``/``payload``/``callback``/``aux``)
      recycled through a free list; no :class:`Message` object exists on
      the fast path (one is materialized only for the legacy
      :meth:`set_handler` path and the telemetry hooks).
    * **Integer handler dispatch** -- the receive and deliver stages are
      registered once in the engine's handler table; every schedule is a
      flat ``(time, hid, record-index)`` triple.
    * **Fused network arithmetic** -- injection/ejection/transit costs
      are inlined from the network's flattened constants, with the
      per-pair ``(latency, 1/bandwidth, jitter)`` triple memoized in a
      dense table (see :meth:`Network.pair_params` for the bit-identity
      argument).  When the network is instrumented for telemetry the
      machine falls back to the query methods so the tallies still fire.
    * **Direct delivery callbacks** -- a send may carry ``cb(dst,
      payload, aux)``, letting the collective layer route a message to
      its own continuation without any per-rank tag dispatch; ``aux``
      carries the receiver's tree position.  Messages without a callback
      fall back to the rank's fast handler ``fn(tag, payload, aux)`` or
      the legacy ``fn(msg)`` handler.

    ``deliver_cpu_overhead`` charges a fixed CPU cost on the destination
    rank per delivered message (the protocol layer's
    ``per_message_cpu_overhead``, hoisted into the machine so the batch
    engine needs no wrapper handler).
    """

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: BatchSimulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
        deliver_cpu_overhead: float = 0.0,
        bucket_width: float | None = None,
    ):
        super().__init__(
            nranks,
            network,
            sim or BatchSimulator(bucket_width),
            event_log=event_log,
            recorder=recorder,
            metrics=metrics,
        )
        sim_ = self.sim
        self._hid_receive = sim_.register_handler(self._receive_rec)
        self._hid_deliver = sim_.register_handler(self._deliver_rec)
        # SoA message columns (parallel lists indexed by record id).
        self._msrc: list[int] = []
        self._mdst: list[int] = []
        self._mtag: list[Any] = []
        self._mnbytes: list[int] = []
        self._mcid: list[int] = []
        self._mpayload: list[Any] = []
        self._mcb: list[Any] = []
        self._maux: list[int] = []
        self._mfree: list[int] = []
        # Category interning: id -> name, and per-id stats columns bound
        # lazily on first use so the CommStats dicts gain keys in the
        # exact order the legacy machine would (bit-identity).
        self._cat_ids: dict[str, int] = {}
        self._cat_names: list[str] = []
        self._sent_cols: list[list[float] | None] = []
        self._sent_counts: list[list[int] | None] = []
        self._recv_cols: list[list[float] | None] = []
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
        # Fast per-rank handlers: fn(tag, payload, aux) -> None.
        self._fast_handlers: list[Any] = [None] * nranks
        # Engine internals, bound for the scheduling sequence inlined
        # into send/_receive_rec (it mirrors BatchSimulator._push; the
        # engine docstring records the coupling).  The columns, bucket
        # dict and heap are stable objects; the scalar cursor state
        # (_seq, _npending, _active_bucket/_list) stays on the sim.
        # The past-time guard is elided: every machine-scheduled time
        # is ``now`` plus non-negative cost terms.
        self._s_times = sim_._times
        self._s_hids = sim_._hids
        self._s_args = sim_._args
        self._s_buckets = sim_._buckets
        self._s_heap = sim_._bucket_heap
        self._s_inv_width = sim_._inv_width
        # Busy-time columns bound once (self.stats.X costs two lookups
        # per event on the hot path).
        self._nic_out_col = self.stats._nic_out_busy
        self._nic_in_col = self.stats._nic_in_busy
        self._recv_oh_col = self.stats._recv_overhead_busy
        # Contention-free configuration (no telemetry, no trace log, no
        # per-delivery CPU tax, un-instrumented network, dense channel
        # tables): swap the per-message stages for closure-specialized
        # versions with every hook test resolved away.  The flag is kept
        # so subclasses that register extra handlers first can re-check
        # eligibility after their own construction.
        self._fast_eligible = (
            self._rec is None
            and self._event_log is None
            and self._inline_net
            and self._deliver_oh == 0.0
            and self._flat_channels
        )
        if self._fast_eligible:
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

    def set_fast_handler(self, rank: int, fn) -> None:
        """Install ``rank``'s fast handler ``fn(tag, payload, aux)``.

        Takes precedence over the legacy :meth:`set_handler` handler for
        messages sent without a delivery callback.
        """
        self._fast_handlers[rank] = fn

    def _bind_sent(self, cid: int) -> None:
        name = self._cat_names[cid]
        stats = self.stats
        self._sent_cols[cid] = stats._get(stats._sent, name)
        self._sent_counts[cid] = stats._get_counts(stats._messages_sent, name)

    def _bind_recv(self, cid: int) -> None:
        stats = self.stats
        self._recv_cols[cid] = stats._get(stats._received, self._cat_names[cid])

    def _message_view(self, i: int, payload: Any) -> Message:
        """Materialize a :class:`Message` for the telemetry hooks."""
        return Message(
            self._msrc[i],
            self._mdst[i],
            self._mtag[i],
            self._mnbytes[i],
            self._cat_names[self._mcid[i]],
            payload,
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
        """Legacy-signature send (resolves the category per call)."""
        self.send(src, dst, tag, nbytes, self.category_id(category), payload)

    def send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        cid: int,
        payload: Any = None,
        cb=None,
        aux: int = 0,
    ) -> None:
        """Fast-path send: pre-interned category, optional delivery
        callback ``cb(dst, payload, aux)``.  Cost model identical to
        :meth:`Machine.post_send`."""
        nbytes = int(nbytes)
        sim = self.sim
        now = sim.now
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", now, src, dst, tag, nbytes)
            )
        # Allocate an SoA record (free-list recycling).
        free = self._mfree
        if free:
            i = free.pop()
            self._msrc[i] = src
            self._mdst[i] = dst
            self._mtag[i] = tag
            self._mnbytes[i] = nbytes
            self._mcid[i] = cid
            self._mpayload[i] = payload
            self._mcb[i] = cb
            self._maux[i] = aux
        else:
            i = len(self._msrc)
            self._msrc.append(src)
            self._mdst.append(dst)
            self._mtag.append(tag)
            self._mnbytes.append(nbytes)
            self._mcid.append(cid)
            self._mpayload.append(payload)
            self._mcb.append(cb)
            self._maux.append(aux)
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(self._message_view(i, payload), now)
            arrival = now
            hid = self._hid_deliver
        else:
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
            if flat:
                if arrival < ch[pidx]:
                    arrival = ch[pidx]
                ch[pidx] = arrival
            else:
                last = ch.get(pidx, 0.0)
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
            if self._rec is not None:
                self._rec.record_send(
                    self._message_view(i, payload), now, start, finish, arrival
                )
            hid = self._hid_receive
        # Inlined BatchSimulator._push(arrival, hid, i).
        s = sim._seq
        sim._seq = s + 1
        st = self._s_times
        st.append(arrival)
        self._s_hids.append(hid)
        self._s_args.append(i)
        sim._npending += 1
        b = int(arrival * self._s_inv_width)
        if b == sim._active_bucket:
            insort(sim._active_list, s, key=st.__getitem__)
        else:
            sbk = self._s_buckets
            try:
                sbk[b].append(s)
            except KeyError:
                sbk[b] = [s]
                heappush(self._s_heap, b)

    def _receive_rec(self, i: int) -> None:
        dst = self._mdst[i]
        nbytes = self._mnbytes[i]
        cid = self._mcid[i]
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
                self._message_view(i, self._mpayload[i]),
                nic_start,
                nic_done,
                start,
                deliver_at,
            )
        # Inlined BatchSimulator._push(deliver_at, self._hid_deliver, i).
        s = sim._seq
        sim._seq = s + 1
        st = self._s_times
        st.append(deliver_at)
        self._s_hids.append(self._hid_deliver)
        self._s_args.append(i)
        sim._npending += 1
        b = int(deliver_at * self._s_inv_width)
        if b == sim._active_bucket:
            insort(sim._active_list, s, key=st.__getitem__)
        else:
            sbk = self._s_buckets
            try:
                sbk[b].append(s)
            except KeyError:
                sbk[b] = [s]
                heappush(self._s_heap, b)

    def _deliver_rec(self, i: int) -> None:
        src = self._msrc[i]
        dst = self._mdst[i]
        tag = self._mtag[i]
        nbytes = self._mnbytes[i]
        cid = self._mcid[i]
        payload = self._mpayload[i]
        cb = self._mcb[i]
        aux = self._maux[i]
        # Release the record before dispatch: the callback may send.
        self._mtag[i] = None
        self._mpayload[i] = None
        self._mcb[i] = None
        self._mfree.append(i)
        if self._rec is not None:
            self._rec.record_deliver(
                Message(src, dst, tag, nbytes, self._cat_names[cid], payload),
                self.sim.now,
            )
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("deliver", self.sim.now, src, dst, tag, nbytes)
            )
        if self._deliver_oh > 0.0:
            self.post_compute(dst, self._deliver_oh, label="msg-overhead")
        if cb is not None:
            cb(dst, payload, aux)
            return
        fh = self._fast_handlers[dst]
        if fh is not None:
            fh(tag, payload, aux)
            return
        fn = self._handlers[dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {dst}")
        fn(Message(src, dst, tag, nbytes, self._cat_names[cid], payload))

    # -- closure-specialized fast path ----------------------------------------

    def _install_fast_path(self) -> None:
        """Specialize the per-message stages for the hook-free configuration.

        Rebuilds :meth:`send`, the receive/deliver handler-table entries
        and :meth:`post_compute` as closures with every per-event branch
        (telemetry recorder, trace log, instrumented network, delivery
        overhead, dense-vs-dict channels) resolved at construction time
        and all stable state -- the SoA message columns, the engine's
        time/hid/arg columns, the calendar buckets and heap, the
        resource clocks and stats columns -- bound as closure cells
        (``LOAD_DEREF`` beats two ``LOAD_ATTR`` per access, and on a
        path run a few million times per simulation that is the
        difference that shows up on the profile).  Only the engine's
        scalar cursor state (``_seq``/``_npending``/``_active_bucket``/
        ``_active_list``) stays behind attribute loads: it must be
        visible to the engine's own drain loop.

        The closures shadow the methods as instance attributes -- the
        same pattern as :meth:`Network.instrument` -- and replace the
        handler-table slots registered in ``__init__``, so the callable
        ids seen by the collective layer do not change.  All hooks are
        constructor arguments, so the specialization decision is final
        for the machine's lifetime.  Timestamp arithmetic is expression-
        for-expression identical to the generic stages (and therefore to
        :class:`Machine`): same terms, same order, bit-identical floats.
        """
        sim = self.sim
        nranks = self.nranks
        msrc = self._msrc
        mdst = self._mdst
        mtag = self._mtag
        mnbytes = self._mnbytes
        mcid = self._mcid
        mpayload = self._mpayload
        mcb = self._mcb
        maux = self._maux
        free = self._mfree
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
        task_oh = self.network.config.task_overhead
        flop_rate = self.network.config.flop_rate
        hid_receive = self._hid_receive
        hid_deliver = self._hid_deliver
        fast_handlers = self._fast_handlers
        handlers = self._handlers
        cat_names = self._cat_names
        # Engine internals (the inlined _push; see the engine docstring).
        st = self._s_times
        shids = self._s_hids
        sargs = self._s_args
        sbk = self._s_buckets
        sheap = self._s_heap
        inv_width = self._s_inv_width
        key = st.__getitem__

        def fast_send(src, dst, tag, nbytes, cid, payload=None, cb=None,
                      aux=0):
            nbytes = int(nbytes)
            now = sim.now
            if free:
                i = free.pop()
                msrc[i] = src
                mdst[i] = dst
                mtag[i] = tag
                mnbytes[i] = nbytes
                mcid[i] = cid
                mpayload[i] = payload
                mcb[i] = cb
                maux[i] = aux
            else:
                i = len(msrc)
                msrc.append(src)
                mdst.append(dst)
                mtag.append(tag)
                mnbytes.append(nbytes)
                mcid.append(cid)
                mpayload.append(payload)
                mcb.append(cb)
                maux.append(aux)
            if src == dst:
                arrival = now
                hid = hid_deliver
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
                hid = hid_receive
            s = sim._seq
            sim._seq = s + 1
            st.append(arrival)
            shids.append(hid)
            sargs.append(i)
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

        def fast_receive(i):
            dst = mdst[i]
            nbytes = mnbytes[i]
            col = recv_cols[mcid[i]]
            if col is None:
                bind_recv(mcid[i])
                col = recv_cols[mcid[i]]
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
            shids.append(hid_deliver)
            sargs.append(i)
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

        def fast_deliver(i):
            dst = mdst[i]
            tag = mtag[i]
            payload = mpayload[i]
            cb = mcb[i]
            aux = maux[i]
            # Release the record before dispatch: the callback may send.
            mtag[i] = None
            mpayload[i] = None
            mcb[i] = None
            free.append(i)
            if cb is not None:
                cb(dst, payload, aux)
                return
            fh = fast_handlers[dst]
            if fh is not None:
                fh(tag, payload, aux)
                return
            fn = handlers[dst]
            if fn is None:
                raise RuntimeError(f"no handler installed on rank {dst}")
            # Record i cannot have been recycled yet (nothing ran since
            # its release), so the remaining columns are still valid.
            fn(Message(msrc[i], dst, tag, mnbytes[i],
                       cat_names[mcid[i]], payload))

        def fast_post_compute(rank, seconds, fn=None, *, flops=None,
                              label=None):
            if flops is not None:
                seconds = task_oh + flops / flop_rate
            if seconds < 0:
                raise ValueError("negative compute time")
            now = sim.now
            cpu = cpu_free[rank]
            start = cpu if cpu > now else now
            finish = start + seconds
            cpu_free[rank] = finish
            compute_busy[rank] += seconds
            if fn is not None:
                s = sim._seq
                sim._seq = s + 1
                st.append(finish)
                shids.append(0)
                sargs.append(fn)
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

        self.send = fast_send
        self.post_compute = fast_post_compute
        sim._table[hid_receive] = fast_receive
        sim._table[hid_deliver] = fast_deliver
