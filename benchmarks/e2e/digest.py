"""Outcome digests and conservation checks for benchmark ops.

A digest is a sha256 over every simulated quantity of one op's outcome,
so "same digest" means "bit-identical outcome", not "same event count
and makespan".  Floats enter through ``float.hex`` and arrays through
their dtype, shape and raw bytes, so any single changed element changes
the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

RECORD_ARRAYS = ("compute_busy", "recv_overhead_busy", "nic_out_busy", "nic_in_busy")


def _feed_array(h, name: str, arr) -> None:
    a = np.ascontiguousarray(arr)
    h.update(f"{name}:{a.dtype.str}:{a.shape}:".encode())
    h.update(a.tobytes())


def _feed_table(h, name: str, table: dict) -> None:
    h.update(f"[{name}:{len(table)}]".encode())
    for key in sorted(table):
        _feed_array(h, f"{name}.{key}", table[key])


def record_digest(rec) -> str:
    """Digest of a :class:`repro.runner.RunRecord` (spec, metrics and wall
    time excluded: they do not describe the simulated outcome)."""
    h = hashlib.sha256(b"RunRecord\0")
    h.update(f"events={rec.events};".encode())
    for name in ("makespan", "compute_time", "communication_time"):
        h.update(f"{name}={float(getattr(rec, name)).hex()};".encode())
    _feed_table(h, "sent", rec.sent)
    _feed_table(h, "received", rec.received)
    _feed_table(h, "messages_sent", rec.messages_sent)
    for name in RECORD_ARRAYS:
        _feed_array(h, name, getattr(rec, name))
    return h.hexdigest()


def volume_digest(reports: list, summaries: list[dict]) -> str:
    """Digest of a list of :class:`repro.core.VolumeReport` plus their
    Table I/II summaries (every counter table, every summary float)."""
    h = hashlib.sha256(b"VolumeReports\0")
    for rep, summary in zip(reports, summaries, strict=True):
        h.update(f"scheme={rep.scheme};grid={rep.grid.pr}x{rep.grid.pc};".encode())
        _feed_table(h, "sent", rep.sent)
        _feed_table(h, "received", rep.received)
        _feed_table(h, "messages", rep.messages)
        for key in sorted(rep.max_degree):
            h.update(f"max_degree.{key}={int(rep.max_degree[key])};".encode())
        for table in sorted(summary):
            for key in sorted(summary[table]):
                h.update(f"{table}.{key}={float(summary[table][key]).hex()};".encode())
    return h.hexdigest()


def conservation_errors(sent: dict, received: dict) -> list[str]:
    """Categories whose total sent bytes differ from total received bytes."""
    errors = []
    for cat in sorted(set(sent) | set(received)):
        s = float(np.sum(sent[cat])) if cat in sent else 0.0
        r = float(np.sum(received[cat])) if cat in received else 0.0
        if s != r:
            errors.append(f"{cat}: sent {s:.0f} B != received {r:.0f} B")
    return errors
