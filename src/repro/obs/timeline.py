"""Per-rank timeline recording and Chrome-trace-event export.

The telemetry subsystem's first pillar (ISSUE 5): a
:class:`TimelineRecorder` subscribes to the machine's structured
telemetry hook (:class:`~repro.simulate.machine.Machine` calls the
:class:`TelemetrySink` methods when a recorder is attached) and captures
every resource occupation on the simulated machine:

* **compute lane** -- CPU tasks per rank (labelled spans);
* **nic-out lane** -- message injection occupancy at the sender;
* **nic-in lane** -- message ejection occupancy at the receiver;
* **recv lane** -- receive-side software overhead;
* **message flows** -- arrows from each injection slice to the matching
  ejection slice (Chrome flow events, rendered as arrows in Perfetto);
* **collective phases** -- per-supernode Col-Bcast / Row-Reduce /
  Diag-Bcast / Col-Reduce spans derived from the collective tags, the
  timeline counterpart of the paper's per-phase breakdowns.

:meth:`TimelineRecorder.to_chrome_trace` exports the standard JSON
object format (``{"traceEvents": [...]}``), loadable in Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``.  The simulator's
virtual clock (seconds) maps to trace ``ts`` microseconds.  Events are
emitted sorted by ``(pid, tid, ts)``, so every lane is nondecreasing in
time -- a property :mod:`repro.obs.trace_schema` validates.

Recording never schedules events or reads the clock, so enabling it is
observation-only: the simulated outcome is bit-identical with the
recorder on or off (asserted in ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "TelemetrySink",
    "TimelineRecorder",
    "LANE_NAMES",
    "PHASE_KINDS",
]

#: tid -> human name of each per-rank lane.
LANE_NAMES = ("compute", "nic-out", "nic-in", "recv")
_COMPUTE, _NIC_OUT, _NIC_IN, _RECV = range(4)

#: Message categories aggregated into per-supernode phase spans.  The
#: collective tags are tuples ``(kind_code, K, ...)`` whose second slot
#: is the supernode index.
PHASE_KINDS = ("diag-bcast", "col-bcast", "row-reduce", "col-reduce")


class TelemetrySink:
    """The machine-side telemetry interface (all hooks optional).

    :class:`~repro.simulate.machine.Machine` invokes these with virtual
    times already computed for its own scheduling -- sinks observe, they
    never influence the simulation.
    """

    def record_send(self, msg, post_time, inj_start, inj_end, arrival) -> None:
        """A network send: NIC-out occupancy ``[inj_start, inj_end]``."""

    def record_local(self, msg, time) -> None:
        """A zero-cost self-send (local hand-off)."""

    def record_receive(self, msg, eject_start, eject_end, oh_start, oh_end) -> None:
        """Arrival: NIC-in ``[eject_start, eject_end]``, then receive
        overhead ``[oh_start, oh_end]`` on the destination CPU."""

    def record_deliver(self, msg, time) -> None:
        """The receiver's handler is about to run."""

    def record_compute(self, rank, start, end, label) -> None:
        """A CPU task occupied ``rank`` for ``[start, end]``."""


def _phase_key(msg) -> tuple | None:
    """``(category, supernode)`` for collective-phase messages, else None."""
    tag = msg.tag
    if (
        msg.category in PHASE_KINDS
        and type(tag) is tuple
        and len(tag) >= 2
        and isinstance(tag[1], int)
    ):
        return (msg.category, tag[1])
    return None


class TimelineRecorder(TelemetrySink):
    """Accumulates machine telemetry and exports Chrome trace JSON.

    ``nranks`` sizes the phase-track process id; when omitted it is
    inferred from the highest rank observed.  Raw records are compact
    tuples (the DES emits one per resource occupation), converted to
    trace-event dicts only at export time.
    """

    def __init__(self, nranks: int | None = None) -> None:
        self.nranks = nranks
        # (rank, start, end, label)
        self.compute_spans: list[tuple] = []
        # (src, dst, start, end, category, nbytes, flow_id)
        self.injections: list[tuple] = []
        # (dst, start, end, category, nbytes, flow_id)
        self.ejections: list[tuple] = []
        # (dst, start, end)
        self.overheads: list[tuple] = []
        # (category, supernode) -> [first_time, last_time]
        self.phases: dict[tuple, list] = {}
        self._flow_seq = 0
        # (src, dst, tag) -> flow id of the in-flight message.  Tags are
        # unique per collective and a tree edge sends exactly once, so
        # the triple identifies one message.
        self._in_flight: dict[tuple, int] = {}

    # -- machine hooks -------------------------------------------------------

    def _touch_phase(self, msg, time: float) -> None:
        key = _phase_key(msg)
        if key is None:
            return
        span = self.phases.get(key)
        if span is None:
            self.phases[key] = [time, time]
        else:
            if time < span[0]:
                span[0] = time
            if time > span[1]:
                span[1] = time

    def record_send(self, msg, post_time, inj_start, inj_end, arrival) -> None:
        self._flow_seq += 1
        fid = self._flow_seq
        self._in_flight[(msg.src, msg.dst, msg.tag)] = fid
        self.injections.append(
            (msg.src, msg.dst, inj_start, inj_end, msg.category, msg.nbytes, fid)
        )
        self._touch_phase(msg, post_time)

    def record_local(self, msg, time) -> None:
        self._touch_phase(msg, time)

    def record_receive(self, msg, eject_start, eject_end, oh_start, oh_end) -> None:
        fid = self._in_flight.pop((msg.src, msg.dst, msg.tag), None)
        self.ejections.append(
            (msg.dst, eject_start, eject_end, msg.category, msg.nbytes, fid)
        )
        self.overheads.append((msg.dst, oh_start, oh_end))

    def record_deliver(self, msg, time) -> None:
        self._touch_phase(msg, time)

    def record_compute(self, rank, start, end, label) -> None:
        self.compute_spans.append((rank, start, end, label))

    # -- export --------------------------------------------------------------

    def _resolved_nranks(self) -> int:
        if self.nranks is not None:
            return self.nranks
        top = -1
        for rec in self.injections:
            if rec[0] > top:
                top = rec[0]
            if rec[1] > top:
                top = rec[1]
        for table in (self.ejections, self.overheads, self.compute_spans):
            for rec in table:
                if rec[0] > top:
                    top = rec[0]
        return top + 1

    def to_chrome_trace(self, **metadata: Any) -> dict[str, Any]:
        """The complete trace object (``json.dump``-ready)."""
        us = 1e6  # virtual seconds -> trace microseconds
        nranks = self._resolved_nranks()
        phase_pid = nranks  # one synthetic process after the rank pids
        meta: list[dict] = []
        events: list[dict] = []

        ranks_used = set()
        for rec in self.compute_spans:
            ranks_used.add(rec[0])
        for rec in self.injections:
            ranks_used.add(rec[0])
            ranks_used.add(rec[1])
        for rec in self.ejections:
            ranks_used.add(rec[0])
        for rank in sorted(ranks_used):
            meta.append(
                {
                    "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
                    "args": {"name": f"rank {rank}"},
                }
            )
            meta.append(
                {
                    "ph": "M", "name": "process_sort_index", "pid": rank,
                    "tid": 0, "args": {"sort_index": rank},
                }
            )
            for tid, lane in enumerate(LANE_NAMES):
                meta.append(
                    {
                        "ph": "M", "name": "thread_name", "pid": rank,
                        "tid": tid, "args": {"name": lane},
                    }
                )

        for rank, start, end, label in self.compute_spans:
            events.append(
                {
                    "name": label or "compute", "cat": "compute", "ph": "X",
                    "pid": rank, "tid": _COMPUTE, "ts": start * us,
                    "dur": (end - start) * us,
                }
            )
        for src, dst, start, end, category, nbytes, fid in self.injections:
            events.append(
                {
                    "name": category, "cat": "nic-out", "ph": "X", "pid": src,
                    "tid": _NIC_OUT, "ts": start * us, "dur": (end - start) * us,
                    "args": {"dst": dst, "nbytes": nbytes},
                }
            )
            events.append(
                {
                    "name": "msg", "cat": "msg", "ph": "s", "id": fid,
                    "pid": src, "tid": _NIC_OUT, "ts": start * us,
                }
            )
        for dst, start, end, category, nbytes, fid in self.ejections:
            events.append(
                {
                    "name": category, "cat": "nic-in", "ph": "X", "pid": dst,
                    "tid": _NIC_IN, "ts": start * us, "dur": (end - start) * us,
                    "args": {"nbytes": nbytes},
                }
            )
            if fid is not None:
                events.append(
                    {
                        "name": "msg", "cat": "msg", "ph": "f", "bp": "e",
                        "id": fid, "pid": dst, "tid": _NIC_IN, "ts": start * us,
                    }
                )
        for dst, start, end in self.overheads:
            events.append(
                {
                    "name": "recv-overhead", "cat": "recv", "ph": "X",
                    "pid": dst, "tid": _RECV, "ts": start * us,
                    "dur": (end - start) * us,
                }
            )

        if self.phases:
            meta.append(
                {
                    "ph": "M", "name": "process_name", "pid": phase_pid,
                    "tid": 0, "args": {"name": "collective phases"},
                }
            )
            meta.append(
                {
                    "ph": "M", "name": "process_sort_index", "pid": phase_pid,
                    "tid": 0, "args": {"sort_index": phase_pid},
                }
            )
            kinds = sorted({k for k, _ in self.phases})
            tid_of = {}
            for i, kind in enumerate(kinds):
                tid_of[kind] = i
                meta.append(
                    {
                        "ph": "M", "name": "thread_name", "pid": phase_pid,
                        "tid": i, "args": {"name": kind},
                    }
                )
            pid_seq = 0
            for (kind, k) in sorted(self.phases):
                start, end = self.phases[(kind, k)]
                pid_seq += 1
                common = {
                    "name": f"{kind} K={k}", "cat": kind, "id": pid_seq,
                    "pid": phase_pid, "tid": tid_of[kind],
                }
                events.append({**common, "ph": "b", "ts": start * us})
                events.append({**common, "ph": "e", "ts": end * us})

        # Nondecreasing per lane (and stable for equal timestamps).
        events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.TimelineRecorder",
                "time_unit": "virtual seconds * 1e6",
                "nranks": nranks,
                **metadata,
            },
        }

    def write(self, path, **metadata: Any) -> dict[str, Any]:
        """Serialize :meth:`to_chrome_trace` to ``path``; returns the obj."""
        trace = self.to_chrome_trace(**metadata)
        with open(path, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        return trace
