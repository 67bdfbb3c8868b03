"""Outcome digests shared by the pinned-outcome tests.

A digest hashes a whole simulated outcome, not a sample of it, so a
pinned value fails on any change to any timestamp, event count or stats
column.  Symbolic runs do no BLAS, so these digests do not depend on the
numeric stack.
"""

import hashlib

import numpy as np


def symbolic_outcome_digest(res) -> str:
    """sha256 over a symbolic run's whole outcome: the makespan's
    ``float.hex``, the event count and every ``CommStats`` column
    (dtype, shape and bytes), category tables in sorted order."""
    h = hashlib.sha256(f"{res.makespan.hex()};{res.events};".encode())
    stats = res.stats
    columns = []
    for name in ("sent", "received", "messages_sent"):
        table = getattr(stats, name)
        columns += [(f"{name}.{cat}", table[cat]) for cat in sorted(table)]
    columns += [
        (name, getattr(stats, name))
        for name in ("compute_busy", "recv_overhead_busy",
                     "nic_out_busy", "nic_in_busy")
    ]
    for name, col in columns:
        col = np.ascontiguousarray(col)
        h.update(f"{name}:{col.dtype.str}:{col.shape}:".encode())
        h.update(col.tobytes())
    return h.hexdigest()


def event_log_digest(events) -> str:
    """sha256 over a ``TraceEvent`` list, in log order: kind, the
    time's ``float.hex``, source, destination, tag and size."""
    h = hashlib.sha256()
    for ev in events:
        h.update(
            f"{ev.kind};{float(ev.time).hex()};{int(ev.src)};{int(ev.dst)};"
            f"{ev.tag!r};{int(ev.nbytes)}\n".encode()
        )
    return h.hexdigest()
