"""Analytic communication-volume model.

Computes, without running the simulator, the exact per-rank byte counters
of one selected inversion under a given tree scheme: for every collective
in the communication plan, build the tree and charge ``nbytes`` per tree
edge (sender side for broadcasts, receiver side for reductions, plus the
mirror counters).  These are the quantities of the paper's Table I
("volume sent during Col-Bcast"), Table II ("volume received during
Row-Reduce"), the histograms of Fig. 4 and the heat maps of Figs. 5-7.

Two engines compute them:

* :func:`communication_volumes` -- the vectorized production engine.  One
  loop reads every collective's participants, as given, into flat slot
  arrays.  Every tree scheme wires a shape that depends only on its
  family and participant count, so each slot's child count is its
  construction-order position (the sorted index ``j + 1``, rotated for
  shifted trees, scattered through the permutation for randperm) looked
  up in the positional shapes of :mod:`repro.comm.trees`.  Chunks of
  about 16k slots are then charged with int64 ``np.add.at`` -- no
  per-collective tree is built and the tree-structure cache is never
  consulted.  Bytes are integers, so the order of accumulation cannot
  change any result.
* :func:`_communication_volumes_reference` -- the original
  one-tree-per-collective implementation, retained verbatim as the
  differential-testing oracle.

The discrete-event simulator counts the same bytes by actually passing
messages; ``tests/test_volume_vs_simulation.py`` asserts the analytic
model and the simulator agree exactly, and
``tests/test_volume_engine_equivalence.py`` asserts the two engines agree
bit-for-bit, which together pin the protocol against this spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

import numpy as np

from ..comm.trees import (
    _POSITION_SHAPES,
    TREE_SCHEMES,
    build_tree,
    derive_seed,
    permutation_indices,
    rotation_offset,
)
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import SupernodePlan, iter_plans

__all__ = [
    "VolumeReport",
    "collective_seed",
    "communication_volumes",
    "count_distinct_communicators",
    "volume_summary",
    "volume_engine_stats",
    "reset_volume_engine_stats",
]


def count_distinct_communicators(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    *,
    plans: list[SupernodePlan] | None = None,
) -> dict[str, int]:
    """Count the distinct processor groups the restricted collectives use.

    This is the paper's §III motivation: pre-creating one MPI
    communicator per distinct participant set is infeasible (audikw_1 on
    a 24x24 grid needs 20,061 of them against a Cray MPI limit of ~4,096).
    Returns the number of distinct participant sets among column groups
    (every participant in one grid column), row groups (the rest), and
    overall, plus the total collective count.  Groups are classified by
    geometry, not by kind name, so symmetric and unsymmetric plans
    (whose ``col-ureduce`` runs within a grid column) count alike.
    """
    if plans is None:
        plans = list(iter_plans(struct, grid))
    col_groups: set[tuple[int, ...]] = set()
    row_groups: set[tuple[int, ...]] = set()
    total = 0
    for plan in plans:
        for spec in plan.collectives():
            total += 1
            members = spec.participants
            if len(members) < 2:
                continue
            col = grid.coords(members[0])[1]
            if all(grid.coords(r)[1] == col for r in members):
                col_groups.add(members)
            else:
                row_groups.add(members)
    return {
        "distinct_column_groups": len(col_groups),
        "distinct_row_groups": len(row_groups),
        "distinct_total": len(col_groups | row_groups),
        "collectives_total": total,
    }


@lru_cache(maxsize=4096)
def _encode_key_part(part: str) -> int:
    return sum(ord(c) << (8 * n) for n, c in enumerate(part[:4]))


@lru_cache(maxsize=1 << 20)
def collective_seed(global_seed: int, key: tuple) -> int:
    """Per-collective tree seed, shared by the analytic model and the
    simulator so both build identical shifted trees.

    Memoized: scheme sweeps, the DES, and both volume engines all derive
    the seed of the same ``(global_seed, key)`` pair repeatedly.
    """
    out: list[int] = []
    for part in key:
        if isinstance(part, str):
            out.append(_encode_key_part(part))
        else:
            out.append(int(part))
    return derive_seed(global_seed, *out)


@dataclass
class VolumeReport:
    """Per-rank sent/received byte counters split by collective kind.

    Counters are int64: every charge is a whole number of bytes (or
    messages), and integer accumulation keeps the DES-equality and
    engine-equivalence tests exact at any scale.
    """

    grid: ProcessorGrid
    scheme: str
    sent: dict[str, np.ndarray] = field(default_factory=dict)
    received: dict[str, np.ndarray] = field(default_factory=dict)
    # Per-rank message counts (same categories); the paper's §III argues
    # the tree cuts the root's messages from p-1 to log p.
    messages: dict[str, np.ndarray] = field(default_factory=dict)
    # Maximum messages any single rank sends within ONE collective --
    # the paper's "messages along the critical path" quantity.
    max_degree: dict[str, int] = field(default_factory=dict)

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.grid.size, dtype=np.int64)

    def sent_by(self, kind: str) -> np.ndarray:
        return self.sent.get(kind, self._zeros())

    def received_by(self, kind: str) -> np.ndarray:
        return self.received.get(kind, self._zeros())

    def total_sent(self) -> np.ndarray:
        out = self._zeros()
        for arr in self.sent.values():
            out += arr
        return out

    def total_received(self) -> np.ndarray:
        out = self._zeros()
        for arr in self.received.values():
            out += arr
        return out

    def col_bcast_sent(self) -> np.ndarray:
        """The Table I quantity: bytes sent in *column-group broadcasts*.

        This aggregates the panel broadcasts ("col-bcast") with the
        diagonal-block broadcasts ("diag-bcast"), exactly as the paper's
        Col-Bcast counter does -- both are broadcasts within a grid
        column.  On square grids the diagonal-block roots sit at grid
        coordinates ``(K mod P, K mod P)``, which is what produces the
        hot grid diagonal of Fig. 5(a).
        """
        return self.sent_by("col-bcast") + self.sent_by("diag-bcast")

    def row_reduce_received(self) -> np.ndarray:
        """The Table II quantity: bytes received in row-group reductions."""
        return self.received_by("row-reduce")

    def heatmap(self, kind: str, direction: str = "sent") -> np.ndarray:
        """(pr, pc) heat map of one counter (Figs. 5-7).

        ``kind`` may be a single category or the aggregates
        ``"col-bcast-total"`` (Table I / Fig. 5 definition) and
        ``"row-reduce"``.
        """
        if kind == "col-bcast-total":
            return self.grid.volume_heatmap(self.col_bcast_sent())
        if direction not in ("sent", "received"):
            raise ValueError(
                f"unknown heatmap direction {direction!r}; "
                "expected 'sent' or 'received'"
            )
        table = self.sent if direction == "sent" else self.received
        return self.grid.volume_heatmap(table.get(kind, self._zeros()))


def _charge(table: dict[str, np.ndarray], kind: str, size: int):
    arr = table.get(kind)
    if arr is None:
        arr = np.zeros(size, dtype=np.int64)
        table[kind] = arr
    return arr


# -- engine instrumentation (read by tests and the perf benchmarks) ---------

_ENGINE_STATS = {
    "vectorized_calls": 0,
    "reference_calls": 0,
    "collectives": 0,
    "point_to_points": 0,
}


def volume_engine_stats() -> dict[str, int]:
    """Counters of the volume engines (calls, collectives, point-to-points)."""
    return dict(_ENGINE_STATS)


def reset_volume_engine_stats() -> None:
    for k in _ENGINE_STATS:
        _ENGINE_STATS[k] = 0


def _communication_volumes_reference(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str,
    *,
    seed: int = 0,
    hybrid_threshold: int = 8,
    include_cross: bool = True,
    plans: list[SupernodePlan] | None = None,
) -> VolumeReport:
    """One-tree-per-collective oracle (the original engine).

    Kept verbatim for differential testing of the vectorized engine --
    do not optimize this function.
    """
    _ENGINE_STATS["reference_calls"] += 1
    report = VolumeReport(grid=grid, scheme=scheme)
    p = grid.size
    if plans is None:
        plans = list(iter_plans(struct, grid))
    for plan in plans:
        for spec in plan.collectives():
            tree = build_tree(
                scheme,
                spec.root,
                spec.participants,
                collective_seed(seed, spec.key),
                hybrid_threshold=hybrid_threshold,
            )
            sent = _charge(report.sent, spec.kind, p)
            recv = _charge(report.received, spec.kind, p)
            msgs = _charge(report.messages, spec.kind, p)
            deg = report.max_degree.get(spec.kind, 0)
            if spec.kind.endswith("bcast"):
                # Data flows root -> leaves: each edge charged to the
                # parent (sender) and the child (receiver).
                for r in tree.ranks():
                    nkids = tree.child_count(r)
                    if nkids:
                        sent[r] += spec.nbytes * nkids
                        msgs[r] += nkids
                        if nkids > deg:
                            deg = nkids
                    if r != tree.root:
                        recv[r] += spec.nbytes
            else:
                # Reduction: each edge carries one partial result child ->
                # parent.
                for r in tree.ranks():
                    nkids = tree.child_count(r)
                    if nkids:
                        recv[r] += spec.nbytes * nkids
                        if nkids > deg:
                            deg = nkids
                    if r != tree.root:
                        sent[r] += spec.nbytes
                        msgs[r] += 1
            report.max_degree[spec.kind] = deg
        if include_cross:
            for p2p in plan.point_to_points():
                if p2p.src == p2p.dst:
                    continue
                _charge(report.sent, p2p.kind, p)[p2p.src] += p2p.nbytes
                _charge(report.received, p2p.kind, p)[p2p.dst] += p2p.nbytes
    return report


# Participant slots charged per numpy pass.  The read-out loop flushes
# once it has gathered this many, which bounds the scratch arrays (one
# audikw_1 32x32 call reads ~416k slots) without losing the bulk charge.
_CHUNK_SLOTS = 1 << 14

# Positional-shape families by id; shifted and randperm trees only
# reorder the ranks laid onto the binary shape.
_FAMILIES = ("flat", "binary", "binomial")
_FAMILY_ID = {"flat": 0, "binary": 1, "binomial": 2, "shifted": 1, "randperm": 1}

# Counter rows per kind in the charging table: kind ``k``'s sent,
# received and message counters of rank ``r`` sit at flat index
# ``(3 * k + row) * p + r``.
_SENT, _RECV, _MSGS = 0, 1, 2

_ROOT = attrgetter("root")
_NBYTES = attrgetter("nbytes")
_MEMBERS = attrgetter("participants")
_SRC = attrgetter("src")
_DST = attrgetter("dst")


def _column(getter, specs) -> np.ndarray:
    return np.fromiter(map(getter, specs), dtype=np.int64, count=len(specs))


def _check_ranks(ranks: np.ndarray, p: int) -> None:
    """Reject ranks outside the grid: a flat table index would silently
    charge them to another rank or counter."""
    if ranks.size and (ranks.min() < 0 or ranks.max() >= p):
        bad = ranks[(ranks < 0) | (ranks >= p)][0]
        raise ValueError(f"rank {bad} out of range for a grid of {p} ranks")


class _SlotCharger:
    """Charges collectives, one chunk of participant slots at a time.

    The caller appends each collective to ``specs`` and its participants,
    as given, to ``parts``, then calls :meth:`flush`; everything after
    that read-out is numpy over the slot arrays.  Counters accumulate in
    one int64 table (see ``_SENT``) that grows by one block per new kind.
    """

    def __init__(self, p, scheme, seed, hybrid_threshold):
        self.p = p
        self.scheme = scheme
        self.seed = seed
        self.hybrid_threshold = hybrid_threshold
        self.table = np.zeros(0, dtype=np.int64)
        self.max_degree = np.zeros(0, dtype=np.int64)
        # Every kind charged, in first-charge order.
        self.kind_ids: dict[str, int] = {}
        # Per kind id: the counter row its kids-weighted side charges
        # (senders of a broadcast, receivers of a reduction).
        self.heavy_row: list[int] = []
        self.specs: list = []
        self.parts: list[int] = []
        self.collectives = 0

    def kind_id(self, kind: str) -> int:
        k = self.kind_ids.get(kind)
        if k is None:
            k = self.kind_ids[kind] = len(self.heavy_row)
            self.heavy_row.append(_SENT if kind.endswith("bcast") else _RECV)
            self.table = np.concatenate((self.table, np.zeros(3 * self.p, dtype=np.int64)))
            self.max_degree = np.append(self.max_degree, 0)
        return k

    def flush(self) -> None:
        specs = self.specs
        ncoll = len(specs)
        if not ncoll:
            return
        self.collectives += ncoll
        p = self.p
        kind = _column(lambda s: self.kind_ids[s.kind], specs)
        root = _column(_ROOT, specs)
        nb = _column(_NBYTES, specs)
        sizes = np.fromiter(map(len, map(_MEMBERS, specs)), dtype=np.int64, count=ncoll)
        coll = np.repeat(np.arange(ncoll, dtype=np.int64), sizes)
        members = np.fromiter(self.parts, dtype=np.int64, count=len(self.parts))
        _check_ranks(members, p)
        _check_ranks(root, p)
        slot = coll * p + members
        if slot.size and not (slot[1:] > slot[:-1]).all():
            # Participants not given sorted and distinct: sort by
            # (collective, rank) and drop duplicates, as _normalize does.
            slot = np.unique(slot)
            coll = slot // p
        rank = slot - coll * p
        keep = rank != root[coll]
        coll, rank = coll[keep], rank[keep]

        # Non-root participant count, and each slot's sorted index j.
        n = np.bincount(coll, minlength=ncoll)
        start = np.cumsum(n) - n
        j = np.arange(coll.size, dtype=np.int64) - start[coll]
        pos = j + 1
        fam = np.full(ncoll, _FAMILY_ID.get(self.scheme, 0), dtype=np.int64)
        rotated = None
        if self.scheme == "shifted":
            rotated = n > 1
        elif self.scheme == "hybrid":
            big = n + 1 > self.hybrid_threshold
            fam[big] = _FAMILY_ID["shifted"]
            rotated = big & (n > 1)
        seed, counts = self.seed, n.tolist()
        if rotated is not None and rotated.any():
            sel = np.flatnonzero(rotated)
            off = np.zeros(ncoll, dtype=np.int64)
            off[sel] = [
                rotation_offset(collective_seed(seed, specs[c].key), counts[c])
                for c in sel.tolist()
            ]
            pos = (j - off[coll]) % n[coll] + 1
        elif self.scheme == "randperm":
            permuted = n > 1
            sel = np.flatnonzero(permuted)
            perm: list[int] = []
            for c in sel.tolist():
                perm.extend(
                    permutation_indices(collective_seed(seed, specs[c].key), counts[c])
                )
            # Sorted participant perm[q] sits at construction position q+1.
            target = np.repeat(start[sel], n[sel]) + np.asarray(perm, dtype=np.int64)
            pos[target] = j[permuted[coll]] + 1

        # One concatenated child-count table over the (family, size)
        # shapes present; position 0 of each shape is the root.
        live = np.flatnonzero(n)
        shape = fam[live] * (p + 2) + n[live] + 1
        uniq, which = np.unique(shape, return_inverse=True)
        shapes = [
            _POSITION_SHAPES[_FAMILIES[s // (p + 2)]](s % (p + 2))[0]
            for s in uniq.tolist()
        ]
        kids = np.concatenate(shapes) if shapes else np.zeros(0, dtype=np.int64)
        lens = np.fromiter(map(len, shapes), dtype=np.int64, count=len(shapes))
        shape_base = np.cumsum(lens) - lens
        base = np.zeros(ncoll, dtype=np.int64)
        base[live] = shape_base[which]
        slot_kids = kids[base[coll] + pos]
        root_kids = kids[base[live]]

        heavy = np.asarray(self.heavy_row, dtype=np.int64)[kind]
        row0 = 3 * kind * p
        s_row0, s_heavy, s_nb = row0[coll], heavy[coll], nb[coll]
        l_row0, l_heavy = row0[live], heavy[live]
        is_bcast = heavy == _SENT
        idx = np.concatenate((
            s_row0 + s_heavy * p + rank,
            s_row0 + (_SENT + _RECV - s_heavy) * p + rank,
            s_row0 + _MSGS * p + rank,
            l_row0 + l_heavy * p + root[live],
            l_row0 + _MSGS * p + root[live],
        ))
        weight = np.concatenate((
            s_nb * slot_kids,
            s_nb,
            np.where(is_bcast[coll], slot_kids, 1),
            nb[live] * root_kids,
            np.where(is_bcast[live], root_kids, 0),
        ))
        np.add.at(self.table, idx, weight)
        np.maximum.at(
            self.max_degree, kind[live], np.maximum.reduceat(kids, shape_base)[which]
        )
        specs.clear()
        self.parts.clear()

    def charge_point_to_points(self, p2ps) -> None:
        if not p2ps:
            return
        p = self.p
        row0 = 3 * p * _column(lambda s: self.kind_ids[s.kind], p2ps)
        nb = _column(_NBYTES, p2ps)
        src, dst = _column(_SRC, p2ps), _column(_DST, p2ps)
        _check_ranks(src, p)
        _check_ranks(dst, p)
        np.add.at(
            self.table,
            np.concatenate((row0 + _SENT * p + src, row0 + _RECV * p + dst)),
            np.concatenate((nb, nb)),
        )

    def counters(self, k: int, row: int) -> np.ndarray:
        p = self.p
        return self.table[(3 * k + row) * p : (3 * k + row + 1) * p].copy()


def communication_volumes(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str,
    *,
    seed: int = 0,
    hybrid_threshold: int = 8,
    include_cross: bool = True,
    plans: list[SupernodePlan] | None = None,
) -> VolumeReport:
    """Exact per-rank communication volumes for one tree scheme.

    ``seed`` is the preprocessing-step seed the shifted/permuted trees
    derive their per-collective seeds from.  ``plans`` may be passed to
    amortize plan construction across schemes, and may be either the
    symmetric plans (:func:`repro.core.plan.iter_plans`) or the
    unsymmetric ones (:func:`repro.core.plan_unsym.iter_unsym_plans`).

    This is the vectorized engine: one loop reads every collective's
    participants into flat slot arrays, and each chunk of slots is
    charged to every tree edge with bulk numpy operations.  Counters are
    bit-identical to :func:`_communication_volumes_reference`
    (differentially tested) and to the discrete-event simulator.
    """
    if scheme not in TREE_SCHEMES:
        raise ValueError(
            f"unknown tree scheme {scheme!r}; expected one of {TREE_SCHEMES}"
        )
    p = grid.size
    if plans is None:
        plans = list(iter_plans(struct, grid))
    charger = _SlotCharger(p, scheme, seed, hybrid_threshold)
    specs, parts = charger.specs, charger.parts
    kind_ids = charger.kind_ids
    # Collective kinds in first-seen order (the messages/max_degree
    # order).  Kind ids follow first-charge order over a plan's
    # collectives and then its point-to-points: the order the reference
    # engine creates its sent/received entries in.
    coll_kinds: dict[str, int] = {}
    p2ps: list = []
    for plan in plans:
        for spec in plan.collectives():
            kind = spec.kind
            if kind not in coll_kinds:
                coll_kinds[kind] = charger.kind_id(kind)
            specs.append(spec)
            parts.extend(spec.participants)
            if len(parts) >= _CHUNK_SLOTS:
                charger.flush()
        if include_cross:
            for p2p in plan.point_to_points():
                if p2p.src != p2p.dst:
                    if p2p.kind not in kind_ids:
                        charger.kind_id(p2p.kind)
                    p2ps.append(p2p)
    charger.flush()
    charger.charge_point_to_points(p2ps)

    report = VolumeReport(grid=grid, scheme=scheme)
    for kind, k in kind_ids.items():
        report.sent[kind] = charger.counters(k, _SENT)
        report.received[kind] = charger.counters(k, _RECV)
    for kind, k in coll_kinds.items():
        report.messages[kind] = charger.counters(k, _MSGS)
        report.max_degree[kind] = int(charger.max_degree[k])

    _ENGINE_STATS["vectorized_calls"] += 1
    _ENGINE_STATS["collectives"] += charger.collectives
    _ENGINE_STATS["point_to_points"] += len(p2ps)
    return report


def volume_summary(per_rank_bytes: np.ndarray) -> dict[str, float]:
    """Min/max/median/std summary in MB -- the paper's table format."""
    mb = np.asarray(per_rank_bytes) / 1e6
    return {
        "min": float(mb.min()),
        "max": float(mb.max()),
        "median": float(np.median(mb)),
        "std": float(mb.std(ddof=0)),
        "mean": float(mb.mean()),
    }
