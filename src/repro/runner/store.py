"""Persistent content-addressed store for experiment results.

The shape memo in :mod:`repro.comm.trees` avoids rebuilding a tree
shape that is already known; this module applies the same
recompute-avoidance one layer up, at sweep granularity.  A
:class:`RunStore` maps a **stable spec hash** -- a sha256 over the
canonical JSON form of an :class:`~repro.runner.spec.ExperimentSpec` --
to the pickled :class:`~repro.runner.spec.RunRecord` it produced.  Since
every simulation is deterministic given its spec, a hash hit *is* the
result: ``repro bench`` / ``repro check`` re-runs with unchanged specs
become incremental, skipping simulation entirely.

Stability rules for the hash (documented in ``docs/caching.md``):

* only spec *fields* enter the hash, recursively for nested frozen
  dataclasses (:class:`~repro.simulate.network.NetworkConfig`);
* floats are canonicalized via ``float.hex`` so the text form is exact
  and platform-independent;
* ``label`` is excluded -- it is an opaque caller tag that does not
  influence execution, so relabeled sweeps still hit;
* ``engine`` is excluded -- the DES engines are bit-identical by
  contract, so a record computed on one engine serves them all;
* the spec class name and a :data:`FORMAT_VERSION` are included, so any
  semantic change to the record layout or the simulation contract is a
  one-line invalidation (bump the version).

Specs with ``telemetry=True`` are **not cacheable**: their records carry
host wall-clock metrics that legitimately differ across runs.

On-disk layout (two-level fanout to keep directories small)::

    <root>/<hash[:2]>/<hash[2:]>.rec

Each entry is ``MAGIC + crc32(payload) + len(payload) + payload`` where
the payload is the pickled record fields (minus the spec, which the
caller re-attaches on load so labels survive).  Writes are atomic
(temp file + ``os.replace``); any corruption -- truncation, bit flips,
unpicklable garbage -- is detected by the magic/length/crc checks and
treated as a miss, never an error: the run recomputes and overwrites.

Environment knobs (also settable per-process via :func:`configure`,
which writes the environment so pool workers inherit the decision):

* ``REPRO_STORE=1`` enables the store for library callers (the CLI's
  ``bench``/``scaling`` commands enable it by default and expose
  ``--no-store``);
* ``REPRO_STORE_DIR`` overrides the root directory (default
  ``$XDG_CACHE_HOME/repro/store`` or ``~/.cache/repro/store``);
* ``REPRO_STORE_REFRESH=1`` recomputes every record and overwrites the
  stored copy (the ``--refresh`` escape hatch).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib

from .spec import ExperimentSpec, RunRecord

__all__ = [
    "FORMAT_VERSION",
    "RunStore",
    "cacheable",
    "configure",
    "default_store_dir",
    "open_store",
    "spec_hash",
    "store_active",
    "store_refresh",
    "store_stats",
    "reset_stats",
]

#: Bump to invalidate every stored record (layout or semantics change).
FORMAT_VERSION = 1

#: Entry header: magic, crc32 of payload, payload length.
_MAGIC = b"RPRS"
_HEADER = struct.Struct("<4sIQ")

# Cumulative per-process tallies, shipped across the pool boundary by
# repro.runner.pool and folded into the sweep-level metrics snapshot.
_STATS = {
    "hits": 0,
    "misses": 0,
    "writes": 0,
    "errors": 0,
    "bytes_read": 0,
    "bytes_written": 0,
}


def store_stats() -> dict[str, int]:
    """Cumulative store tallies for this process."""
    return dict(_STATS)


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


# -- configuration -----------------------------------------------------------


def default_store_dir() -> str:
    """Store root: ``REPRO_STORE_DIR`` or the user cache directory."""
    override = os.environ.get("REPRO_STORE_DIR", "").strip()
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "store")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def store_active() -> bool:
    """Whether experiment execution should consult the store."""
    return _env_flag("REPRO_STORE")


def store_refresh() -> bool:
    """Whether stored records should be recomputed and overwritten."""
    return _env_flag("REPRO_STORE_REFRESH")


def configure(
    *,
    enabled: bool | None = None,
    refresh: bool | None = None,
    directory: str | None = None,
) -> None:
    """Set the store knobs for this process *and its pool workers*.

    The knobs live in ``os.environ`` deliberately: fork-started workers
    inherit the parent's environment, and spawn-started ones re-read it,
    so one ``configure`` call in the CLI governs the whole sweep.
    """
    if enabled is not None:
        os.environ["REPRO_STORE"] = "1" if enabled else "0"
    if refresh is not None:
        os.environ["REPRO_STORE_REFRESH"] = "1" if refresh else "0"
    if directory is not None:
        os.environ["REPRO_STORE_DIR"] = directory


# -- spec hashing ------------------------------------------------------------


#: Spec fields that do not influence the simulated outcome.
_UNHASHED_FIELDS = ("label", "engine")


def _canonical(value):
    """JSON-safe canonical form of a spec field value (exact, stable)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__name__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.name not in _UNHASHED_FIELDS
            },
        }
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # float.hex round-trips exactly; repr would too, but hex makes
        # the "no rounding is involved" property obvious in the hash input.
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(
        f"spec field of type {type(value).__name__} has no canonical form; "
        "extend repro.runner.store._canonical (and bump FORMAT_VERSION)"
    )


def spec_hash(spec) -> str:
    """Stable content hash of one spec (hex sha256).

    Equal hashes mean "the simulation would produce the same record";
    the ``label`` and ``engine`` fields are excluded and floats are
    hashed exactly.
    """
    doc = {"format": FORMAT_VERSION, "spec": _canonical(spec)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def cacheable(spec) -> bool:
    """Whether a spec's record may be stored and replayed.

    Only DES experiments are stored (volume reports are cheap to
    recompute), and only without telemetry -- telemetry records carry
    host wall-clock series that must be measured, not replayed.
    """
    return isinstance(spec, ExperimentSpec) and not spec.telemetry


# -- the store ---------------------------------------------------------------


class RunStore:
    """Content-addressed RunRecord store rooted at one directory."""

    def __init__(self, root: str | None = None) -> None:
        self.root = root or default_store_dir()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".rec")

    def get(self, spec: ExperimentSpec) -> RunRecord | None:
        """The stored record for ``spec``, or None (miss *or* corrupt).

        The caller's spec is re-attached to the returned record, so
        ``label`` and other non-hashed presentation fields are the
        caller's own.
        """
        try:
            with open(self.path_for(spec_hash(spec)), "rb") as fh:
                blob = fh.read()
        except OSError:
            _STATS["misses"] += 1
            return None
        payload = self._check(blob)
        if payload is None:
            # Corrupt entry: count it, treat as a miss; the recompute
            # will overwrite it with a good copy.
            _STATS["errors"] += 1
            _STATS["misses"] += 1
            return None
        try:
            fields = pickle.loads(payload)
            record = RunRecord(spec=spec, **fields)
        except Exception:
            _STATS["errors"] += 1
            _STATS["misses"] += 1
            return None
        _STATS["hits"] += 1
        _STATS["bytes_read"] += len(blob)
        return record

    def put(self, spec: ExperimentSpec, record: RunRecord) -> None:
        """Store ``record`` under ``spec``'s hash (atomic, best-effort).

        Storage failures (read-only filesystem, quota) are counted but
        never raised: the store is an accelerator, not a dependency.
        """
        fields = {
            f.name: getattr(record, f.name)
            for f in dataclasses.fields(record)
            if f.name != "spec"
        }
        payload = pickle.dumps(fields, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _HEADER.pack(_MAGIC, zlib.crc32(payload), len(payload)) + payload
        path = self.path_for(spec_hash(spec))
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            _STATS["errors"] += 1
            return
        _STATS["writes"] += 1
        _STATS["bytes_written"] += len(blob)

    @staticmethod
    def _check(blob: bytes) -> bytes | None:
        """Validated payload of one entry, or None if corrupt."""
        if len(blob) < _HEADER.size:
            return None
        magic, crc, length = _HEADER.unpack_from(blob)
        payload = blob[_HEADER.size:]
        if magic != _MAGIC or len(payload) != length:
            return None
        if zlib.crc32(payload) != crc:
            return None
        return payload


def open_store() -> RunStore | None:
    """The active store per the environment knobs, or None when off."""
    if not store_active():
        return None
    return RunStore()
