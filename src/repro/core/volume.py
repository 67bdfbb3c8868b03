"""Analytic communication-volume model.

Computes, without running the simulator, the exact per-rank byte counters
of one selected inversion under a given tree scheme: for every collective
in the communication plan, build the tree and charge ``nbytes`` per tree
edge (sender side for broadcasts, receiver side for reductions, plus the
mirror counters).  These are the quantities of the paper's Table I
("volume sent during Col-Bcast"), Table II ("volume received during
Row-Reduce"), the histograms of Fig. 4 and the heat maps of Figs. 5-7.

Two engines compute them:

* :func:`communication_volumes` -- the vectorized production engine.  The
  first call on a plan reads its collectives out into compact columns
  (kind, root, bytes, and each collective's sorted, distinct non-root
  ranks) that stay memoized on the plan, so every later call, under any
  scheme, starts from flat slot arrays.  Every tree scheme wires a shape
  that depends only on its family and participant count, so each slot's
  child count is its construction-order position (the sorted index
  ``j + 1``, rotated for shifted trees, scattered through the
  permutation for randperm) looked up in the positional shapes of
  :mod:`repro.comm.trees`.  The seeded orders are memoized beside the
  columns too: the first shifted or hybrid call under a seed derives one
  rotation offset per collective, the first randperm call one
  permutation of each collective's slots, and later calls under that
  seed read them back (one seed per tree family; a new seed replaces
  the old one).  Chunks of about 16k slots are then charged with int64
  ``np.add.at`` -- no per-collective tree is built, and neither the
  tree-structure cache nor the per-collective seed memos are consulted.
  Bytes are integers, so the order of accumulation cannot change any
  result.
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
import threading
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from ..comm.trees import (
    _FAMILY_OF,
    TREE_SCHEMES,
    _shape,
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

    Memoized: scheme sweeps, the DES and the reference volume engine all
    derive the seed of the same ``(global_seed, key)`` pair repeatedly.
    The vectorized engine derives each seed once per plan, through the
    un-memoized ``__wrapped__``, into its memoized order columns.
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
    "chunks": 0,
}


def volume_engine_stats() -> dict[str, int]:
    """Counters of the volume engines (calls, collectives, point-to-points,
    and the slot chunks the vectorized engine charged)."""
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


# Participant slots charged per numpy pass.  Each call cuts its
# collectives into chunks of about this many slots, which bounds the
# int64 scratch arrays (one audikw_1 32x32 call charges ~397k slots)
# without losing the bulk charge.
_CHUNK_SLOTS = 1 << 14

# Positional-shape families by id, and each resolved scheme's id (from
# the trees module's scheme -> family table).
_FAMILIES = ("flat", "binary", "binomial")
_FAMILY_ID = {s: _FAMILIES.index(f) for s, f in _FAMILY_OF.items()}
# The seeded order column each scheme reads (see _plan_order).
_ORDER_FAMILY = {"shifted": "shifted", "hybrid": "shifted", "randperm": "randperm"}

# Counter rows per kind in the charging table: kind ``k``'s sent,
# received and message counters of rank ``r`` sit at flat index
# ``(3 * k + row) * p + r``.
_SENT, _RECV, _MSGS = 0, 1, 2

_KIND = attrgetter("kind")
_KEY = attrgetter("key")
_ROOT = attrgetter("root")
_NBYTES = attrgetter("nbytes")
_MEMBERS = attrgetter("participants")
_SRC = attrgetter("src")
_DST = attrgetter("dst")

# Kind names by id, for every kind any plan has used in this process:
# an append-only intern table (grown under the lock), so the ids in a
# memoized column never change meaning.  No id reaches a report, whose
# key order comes from first occurrence in the plans.
_KIND_NAMES: list[str] = []
_KIND_IDS: dict[str, int] = {}
_KINDS_GROW = threading.Lock()


def _kind_ids(kinds: list[str]) -> np.ndarray:
    """The ids of ``kinds``, registering any kind not seen before."""
    for kind in dict.fromkeys(kinds):
        if kind not in _KIND_IDS:
            with _KINDS_GROW:
                if kind not in _KIND_IDS:
                    _KIND_NAMES.append(kind)
                    _KIND_IDS[kind] = len(_KIND_NAMES) - 1
    return np.fromiter(map(_KIND_IDS.__getitem__, kinds), dtype=np.int64, count=len(kinds))


def _column(getter, specs) -> np.ndarray:
    return np.fromiter(map(getter, specs), dtype=np.int64, count=len(specs))


_NARROW_DTYPES = [(np.iinfo(t).min, np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32)]


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` in the smallest signed integer dtype that holds them."""
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for tmin, tmax, dtype in _NARROW_DTYPES:
        if tmin <= lo and hi <= tmax:
            return values.astype(dtype)
    return values


def _check_ranks(ranks: np.ndarray, p: int) -> None:
    """Reject ranks outside the grid: a flat table index would silently
    charge them to another rank or counter."""
    if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= p):
        bad = ranks[(ranks < 0) | (ranks >= p)][0]
        raise ValueError(f"rank {bad} out of range for a grid of {p} ranks")


def _first_seen(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids`` in first-occurrence order."""
    uniq, first = np.unique(ids, return_index=True)
    return uniq[np.argsort(first)]


class _PlanColumns(NamedTuple):
    """One plan's scheme-independent read-out, memoized on the plan.

    ``head`` has one column per collective, then one per point-to-point
    between distinct ranks; its rows are the kind id, the root (or
    source) and the non-root participant count (or destination).
    ``nbytes`` follows the same order.  ``ranks`` holds each
    collective's sorted, distinct non-root participants in turn.  Every
    column but ``nbytes`` is narrowed to the smallest dtype that holds
    it; ranks are checked against the grid of each call, not here.

    ``orders`` memoizes the seeded tree orders, keyed by family, each
    entry one ``(seed, column)`` tuple (see :func:`_plan_order`).
    """

    ncoll: int
    head: np.ndarray
    nbytes: np.ndarray
    ranks: np.ndarray
    orders: dict


def _plan_columns(plan) -> _PlanColumns:
    cols = plan._volume_columns
    if cols is None:
        cols = plan._volume_columns = _read_out(plan)
    return cols


# The un-memoized derivations: an order column is built once per plan
# and seed, so filling the process-wide memos would only hold it twice.
_seed_of = collective_seed.__wrapped__
_rotation = rotation_offset.__wrapped__
_permutation = permutation_indices.__wrapped__


def _plan_order(plan, cols: _PlanColumns, family: str, seed: int) -> np.ndarray:
    """``plan``'s seeded order column of ``family``, memoized in ``cols``.

    ``"shifted"`` (read by shifted and hybrid) holds one rotation offset
    per collective, 0 where ``n <= 1``; ``"randperm"`` holds each
    collective's permutation of its ``n`` sorted non-root slots, in turn,
    lined up with ``cols.ranks``.  The memo keeps one seed per family: a
    new seed replaces the entry, and seed and column are one tuple, so a
    concurrent call never reads one seed's column under another seed.
    """
    entry = cols.orders.get(family)
    if entry is not None and entry[0] == seed:
        return entry[1]
    counts = cols.head[2, : cols.ncoll].tolist()
    pairs = zip(map(_KEY, plan.collectives()), counts)
    if family == "shifted":
        column = np.fromiter(
            (_rotation(_seed_of(seed, key), n) if n > 1 else 0 for key, n in pairs),
            dtype=np.int64,
            count=cols.ncoll,
        )
    else:
        column = np.fromiter(
            chain.from_iterable(
                _permutation(_seed_of(seed, key), n) if n > 1 else range(n)
                for key, n in pairs
            ),
            dtype=np.int64,
            count=cols.ranks.size,
        )
    column = _narrow(column)
    cols.orders[family] = (seed, column)
    return column


def _read_out(plan) -> _PlanColumns:
    specs = list(plan.collectives())
    p2ps = [q for q in plan.point_to_points() if q.src != q.dst]
    ncoll = len(specs)
    sizes = np.fromiter(map(len, map(_MEMBERS, specs)), dtype=np.int64, count=ncoll)
    coll = np.repeat(np.arange(ncoll, dtype=np.int64), sizes)
    ranks = np.fromiter(
        chain.from_iterable(map(_MEMBERS, specs)), dtype=np.int64, count=coll.size
    )
    roots = _column(_ROOT, specs)
    if ranks.size:
        lo = ranks.min()
        span = ranks.max() - lo + 1
        key = coll * span + (ranks - lo)
        if not (key[1:] > key[:-1]).all():
            # Participants not given sorted and distinct: sort each
            # collective's ranks and drop duplicates, as _normalize does.
            key = np.unique(key)
            coll = key // span
            ranks = key - coll * span + lo
        keep = ranks != roots[coll]
        coll, ranks = coll[keep], ranks[keep]
    entries = specs + p2ps
    head = np.stack((
        _kind_ids(list(map(_KIND, entries))),
        np.concatenate((roots, _column(_SRC, p2ps))),
        np.concatenate((np.bincount(coll, minlength=ncoll), _column(_DST, p2ps))),
    ))
    return _PlanColumns(
        ncoll, _narrow(head), _column(_NBYTES, entries), _narrow(ranks), {}
    )


class _Charger:
    """Charges one call's collectives, a chunk of slots at a time, and
    its point-to-points into one int64 table (see ``_SENT``).  Kinds are
    numbered in first-charge order; ``heavy`` gives each kind the counter
    row its kids-weighted side charges (senders of a broadcast,
    receivers of a reduction)."""

    def __init__(self, p, scheme, hybrid_threshold, heavy):
        self.p = p
        self.scheme = scheme
        self.hybrid_threshold = hybrid_threshold
        self.heavy = heavy
        self.table = np.zeros(3 * heavy.size * p, dtype=np.int64)
        self.max_degree = np.zeros(heavy.size, dtype=np.int64)
        self.chunks = 0

    def collectives(self, kind, root, nb, n, rank, order) -> None:
        """Charge one chunk: per collective its kind, root, bytes and
        non-root count ``n``; ``rank`` holds the non-root ranks.
        ``order`` is the chunk's slice of the memoized seeded order
        (see :func:`_plan_order`): one rotation offset per collective
        for shifted and hybrid, one permutation entry per slot for
        randperm, ``None`` for the unseeded schemes."""
        p = self.p
        _check_ranks(rank, p)
        ncoll = n.size
        self.chunks += 1
        coll = np.repeat(np.arange(ncoll, dtype=np.int64), n)
        # Each slot's sorted index j within its collective.
        start = np.cumsum(n) - n
        j = np.arange(coll.size, dtype=np.int64) - start[coll]
        fam = np.full(ncoll, _FAMILY_ID.get(self.scheme, 0), dtype=np.int64)
        if self.scheme == "hybrid":
            big = n + 1 > self.hybrid_threshold
            fam[big] = _FAMILY_ID["shifted"]
            order = np.where(big, order, 0)
        if self.scheme in ("shifted", "hybrid"):
            pos = (j - order[coll]) % n[coll] + 1
        elif self.scheme == "randperm":
            # Sorted participant order[q] sits at construction position q+1.
            pos = np.empty_like(j)
            pos[start[coll] + order] = j + 1
        else:
            pos = j + 1

        # One concatenated child-count table over the (family, size)
        # shapes present; position 0 of each shape is the root.
        live = np.flatnonzero(n)
        shape = fam[live] * (p + 2) + n[live] + 1
        uniq, which = np.unique(shape, return_inverse=True)
        shapes = [
            _shape(_FAMILIES[s // (p + 2)], s % (p + 2)).kids for s in uniq.tolist()
        ]
        kids = np.concatenate(shapes) if shapes else np.zeros(0, dtype=np.int64)
        lens = np.fromiter(map(len, shapes), dtype=np.int64, count=len(shapes))
        shape_base = np.cumsum(lens) - lens
        base = np.zeros(ncoll, dtype=np.int64)
        base[live] = shape_base[which]
        slot_kids = kids[base[coll] + pos]
        root_kids = kids[base[live]]

        # Per collective, the flat table offsets of its kind's rows:
        # the kids-weighted side, the once-per-participant side and the
        # message counts.
        heavy = self.heavy[kind]
        row0 = 3 * kind * p
        kids_row = row0 + heavy * p
        once_row = row0 + (_SENT + _RECV - heavy) * p
        msgs_row = row0 + _MSGS * p
        is_bcast = heavy == _SENT
        s_nb = nb[coll]
        table = self.table
        np.add.at(table, kids_row[coll] + rank, s_nb * slot_kids)
        np.add.at(table, once_row[coll] + rank, s_nb)
        np.add.at(table, msgs_row[coll] + rank, np.where(is_bcast[coll], slot_kids, 1))
        l_root = root[live]
        np.add.at(table, kids_row[live] + l_root, nb[live] * root_kids)
        np.add.at(table, msgs_row[live] + l_root, np.where(is_bcast[live], root_kids, 0))
        np.maximum.at(
            self.max_degree, kind[live], np.maximum.reduceat(kids, shape_base)[which]
        )

    def point_to_points(self, local, head, nb) -> None:
        """Charge the point-to-points: ``head`` rows are the kind id,
        source and destination, and ``local`` maps kind ids to kinds."""
        p = self.p
        kind, src, dst = head.astype(np.int64)
        kind = local[kind]
        _check_ranks(src, p)
        _check_ranks(dst, p)
        row0 = 3 * p * kind
        np.add.at(self.table, row0 + _SENT * p + src, nb)
        np.add.at(self.table, row0 + _RECV * p + dst, nb)

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

    This is the vectorized engine: each plan's participants are read out
    once into compact columns memoized on the plan, and every call
    charges them, chunk by chunk, to every tree edge with bulk numpy
    operations.  Counters are bit-identical to
    :func:`_communication_volumes_reference` (differentially tested) and
    to the discrete-event simulator.
    """
    if scheme not in TREE_SCHEMES:
        raise ValueError(
            f"unknown tree scheme {scheme!r}; expected one of {TREE_SCHEMES}"
        )
    p = grid.size
    if plans is None:
        plans = list(iter_plans(struct, grid))
    cols = [_plan_columns(plan) for plan in plans]
    # Columns run plan by plan, each plan's collectives before its
    # point-to-points: the order the reference engine creates its
    # counters in, so first occurrence gives every table's key order.
    nplans = len(cols)
    ncoll = np.fromiter((c.ncoll for c in cols), dtype=np.int64, count=nplans)
    nentry = np.fromiter((c.nbytes.size for c in cols), dtype=np.int64, count=nplans)
    is_coll = np.repeat(
        np.tile([True, False], nplans), np.column_stack((ncoll, nentry - ncoll)).ravel()
    )
    if cols:
        head = np.concatenate([c.head for c in cols], axis=1)
        nbytes = np.concatenate([c.nbytes for c in cols])
    else:
        head, nbytes = np.zeros((3, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    kinds = _first_seen(head[0] if include_cross else head[0, is_coll])
    coll_kinds = _first_seen(head[0, is_coll])
    local = np.zeros(len(_KIND_NAMES), dtype=np.int64)
    local[kinds] = np.arange(kinds.size)
    names = [_KIND_NAMES[k] for k in kinds.tolist()]
    heavy = np.array(
        [_SENT if name.endswith("bcast") else _RECV for name in names], dtype=np.int64
    )
    charger = _Charger(p, scheme, hybrid_threshold, heavy)
    np2p = 0
    if include_cross:
        p2p = ~is_coll
        np2p = int(np.count_nonzero(p2p))
        charger.point_to_points(local, head[:, p2p], nbytes[p2p])

    # The collectives' columns stay compact; each chunk widens its slice.
    kind, root, count = head[:, is_coll]
    coll_nb = nbytes[is_coll]
    del head, nbytes
    _check_ranks(root, p)
    # The seeded orders, memoized per plan: rotation offsets line up
    # with the collectives, permutations with the ranks.
    family = _ORDER_FAMILY.get(scheme)
    orders = offsets = None
    if family is not None:
        orders = [_plan_order(plan, c, family, seed) for plan, c in zip(plans, cols)]
        if family == "shifted" and orders:
            offsets = np.concatenate(orders)
    # Chunk bounds: cut after the collective whose slots reach each
    # multiple of _CHUNK_SLOTS; a chunk's ranks (and permutations) come
    # from the plans it spans.
    slot_end = np.cumsum(count, dtype=np.int64)
    nslots = int(slot_end[-1]) if slot_end.size else 0
    cuts = np.searchsorted(slot_end, np.arange(_CHUNK_SLOTS, nslots, _CHUNK_SLOTS)) + 1
    bounds = np.unique(np.concatenate(([0], cuts, [count.size]))).tolist()
    ranks = [c.ranks for c in cols]
    plan_end = np.cumsum(np.fromiter(map(len, ranks), dtype=np.int64, count=nplans))
    for c0, c1 in zip(bounds, bounds[1:]):
        s0 = int(slot_end[c0 - 1]) if c0 else 0
        s1 = int(slot_end[c1 - 1])
        if s1 == s0:
            continue
        q0 = int(np.searchsorted(plan_end, s0, side="right"))
        q1 = int(np.searchsorted(plan_end, s1)) + 1
        base = int(plan_end[q0]) - ranks[q0].size

        def slots(per_plan):
            return np.concatenate(per_plan[q0:q1])[s0 - base : s1 - base].astype(np.int64)

        order = None
        if offsets is not None:
            order = offsets[c0:c1].astype(np.int64)
        elif orders is not None:
            order = slots(orders)
        charger.collectives(
            local[kind[c0:c1]],
            root[c0:c1].astype(np.int64),
            coll_nb[c0:c1],
            count[c0:c1].astype(np.int64),
            slots(ranks),
            order,
        )

    report = VolumeReport(grid=grid, scheme=scheme)
    for k, name in enumerate(names):
        report.sent[name] = charger.counters(k, _SENT)
        report.received[name] = charger.counters(k, _RECV)
    for kid in coll_kinds.tolist():
        k = int(local[kid])
        report.messages[_KIND_NAMES[kid]] = charger.counters(k, _MSGS)
        report.max_degree[_KIND_NAMES[kid]] = int(charger.max_degree[k])

    _ENGINE_STATS["vectorized_calls"] += 1
    _ENGINE_STATS["collectives"] += count.size
    _ENGINE_STATS["point_to_points"] += np2p
    _ENGINE_STATS["chunks"] += charger.chunks
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
