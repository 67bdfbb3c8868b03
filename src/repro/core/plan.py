"""Communication plan: every restricted collective of one selected inversion.

Given the supernodal symbolic structure and a processor grid, enumerates --
deterministically, with no numeric data -- every communication event of
the PSelInv second loop (plus the first-loop diagonal broadcasts):

=================  =========================================================
event              root / endpoints, participants, payload size
=================  =========================================================
diag-bcast (K)     diag owner -> owners of ``L(I,K)`` in grid column
                   ``K mod Pc``; ``s*s`` entries (first loop of Alg. 1)
cross-send (K,I)   owner of ``L(I,K)`` -> owner of ``U(K,I)``;
                   ``s * r_I`` entries (symmetric case: ``Uhat = Lhat^T``)
col-bcast (K,I)    owner of ``U(K,I)`` -> Ainv block owners in grid column
                   ``I mod Pc``; ``s * r_I`` entries  [Table I measures this]
row-reduce (K,J)   GEMM contributions in grid row ``J mod Pr`` ->
                   owner of ``L(J,K)``; ``s * r_J`` entries [Table II]
col-reduce (K)     diagonal-update contributions in grid column
                   ``K mod Pc`` -> diag owner; ``s*s`` entries
cross-back (K,J)   owner of ``L(J,K)`` -> owner of ``U(K,J)``;
                   ``s * r_J`` entries (fills upper Ainv storage)
=================  =========================================================

Both the analytic volume model (:mod:`repro.core.volume`) and the
discrete-event PSelInv (:mod:`repro.core.pselinv`) iterate exactly this
plan, which is what lets the tests assert byte-for-byte agreement between
the two.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid

__all__ = [
    "BYTES_PER_ENTRY",
    "BlockInfo",
    "CollectiveSpec",
    "PointToPointSpec",
    "SupernodePlan",
    "supernode_plan",
    "iter_plans",
]

BYTES_PER_ENTRY = 8  # float64; the paper's matrices are real double


@dataclass(frozen=True, slots=True)
class BlockInfo:
    """One nonzero block row ``I`` of supernode ``K``'s panel."""

    snode: int  # block-row supernode index I
    nrows: int  # rows of supernode I present in K's structure (r_I)


@dataclass(frozen=True, slots=True)
class CollectiveSpec:
    """One restricted collective (broadcast or reduction)."""

    kind: str  # "diag-bcast" | "col-bcast" | "row-reduce" | "col-reduce"
    key: tuple  # unique id, e.g. ("cb", K, I)
    root: int
    participants: tuple[int, ...]  # including the root
    nbytes: int

    @property
    def size(self) -> int:
        return len(self.participants)


@dataclass(frozen=True, slots=True)
class PointToPointSpec:
    """One plain point-to-point transfer (the cross sends)."""

    kind: str  # "cross-send" | "cross-back"
    key: tuple
    src: int
    dst: int
    nbytes: int


@dataclass
class SupernodePlan:
    """All communication of one supernode ``K`` of the second loop."""

    k: int
    width: int
    blocks: list[BlockInfo]
    diag_owner: int
    diag_bcast: CollectiveSpec | None
    cross_sends: list[PointToPointSpec]
    col_bcasts: list[CollectiveSpec]
    row_reduces: list[CollectiveSpec]
    col_reduce: CollectiveSpec | None
    cross_backs: list[PointToPointSpec]
    # The volume engine's read-out of this plan, built on first use by
    # repro.core.volume (never by the planner or the DES).
    _volume_columns: object = field(init=False, repr=False, compare=False, default=None)

    def collectives(self) -> Iterator[CollectiveSpec]:
        if self.diag_bcast is not None:
            yield self.diag_bcast
        yield from self.col_bcasts
        yield from self.row_reduces
        if self.col_reduce is not None:
            yield self.col_reduce

    def point_to_points(self) -> Iterator[PointToPointSpec]:
        yield from self.cross_sends
        yield from self.cross_backs


def supernode_plan(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    k: int,
    *,
    bytes_per_entry: int = BYTES_PER_ENTRY,
) -> SupernodePlan:
    """Build the communication plan of supernode ``k``.

    ``bytes_per_entry`` is 8 for real double matrices and 16 for the
    complex matrices of PEXSI pole loops.
    """
    (blocks,) = _block_lists(struct, [k])
    return _supernode_plan(struct, grid, k, blocks, bytes_per_entry, {})


def _block_lists(
    struct: SupernodalStructure, ks: Sequence[int]
) -> list[list[BlockInfo]]:
    """The panel blocks of each supernode of ``ks``, one count per block
    row, from one whole-array pass over their ``rows_below``: a block
    starts wherever the supernode of a row, or the supernode whose
    structure holds it, changes."""
    rows = [struct.rows_below[k] for k in ks]
    lens = [len(r) for r in rows]
    if not any(lens):
        return [[] for _ in lens]
    snodes = struct.snode_of[np.concatenate(rows)]
    owner = np.repeat(np.arange(len(lens)), lens)
    start = np.ones(len(snodes), dtype=bool)
    start[1:] = (snodes[1:] != snodes[:-1]) | (owner[1:] != owner[:-1])
    at = np.flatnonzero(start)
    counts = np.diff(at, append=len(snodes)).tolist()
    first = snodes[at].tolist()
    ends = np.cumsum(np.bincount(owner[at], minlength=len(lens))).tolist()
    out = []
    lo = 0
    for hi in ends:
        out.append(list(map(BlockInfo, first[lo:hi], counts[lo:hi])))
        lo = hi
    return out


def _build_all(
    build: Callable, struct: SupernodalStructure, grid: ProcessorGrid,
    bytes_per_entry: int,
) -> list:
    """``build(struct, grid, k, blocks, bytes_per_entry, intern)`` for
    every supernode, ascending index order, sharing one ``intern`` table.

    The records are built with the cyclic collector paused, since its
    passes over freshly built records cost more than building them; the
    collector's previous state is restored before anything is returned
    (or raised).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        blocks = _block_lists(struct, range(struct.nsup))
        intern: dict[tuple, tuple] = {}
        return [
            build(struct, grid, k, bk, bytes_per_entry, intern)
            for k, bk in enumerate(blocks)
        ]
    finally:
        if enabled:
            gc.enable()


def _participant_groups(
    ranks: list[int],
    pr: int,
    pc: int,
    k: int,
    blocks: list[BlockInfo],
    intern: dict[tuple, tuple],
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """The participant tuples of supernode ``k``'s restricted collectives.

    Every collective of ``k`` spans one grid column over the grid rows
    hosting ``k`` or a block row of its panel, or one grid row over the
    grid columns hosting ``k`` or a block row.  Returns ``(col_group,
    row_group)``: ``col_group[c]`` is the sorted ranks of grid column
    ``c`` over those rows, ``row_group[r]`` the sorted ranks of grid row
    ``r`` over those columns, for every such ``c`` and ``r``.  Each tuple
    is built from the shared ``ranks`` table
    (:meth:`ProcessorGrid.rank_table`) and passed through ``intern``, so
    equal groups of different supernodes are one object; ``intern`` also
    keeps the two dicts under their ``(rows, cols)`` pair, so supernodes
    on the same grid lines share them and build no tuple.
    """
    rows = tuple(sorted({k % pr, *[b.snode % pr for b in blocks]}))
    cols = tuple(sorted({k % pc, *[b.snode % pc for b in blocks]}))
    groups = intern.get((rows, cols))
    if groups is not None:
        return groups
    offs = [r * pc for r in rows]
    col_group = {}
    for c in cols:
        t = tuple([ranks[o + c] for o in offs])
        col_group[c] = intern.setdefault(t, t)
    row_group = {}
    for r, o in zip(rows, offs):
        t = tuple([ranks[o + c] for c in cols])
        row_group[r] = intern.setdefault(t, t)
    groups = intern[(rows, cols)] = (col_group, row_group)
    return groups


def _supernode_plan(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    k: int,
    blocks: list[BlockInfo],
    bytes_per_entry: int,
    intern: dict[tuple, tuple],
) -> SupernodePlan:
    pr, pc = grid.pr, grid.pc
    ranks = grid.rank_table()
    s = struct.width(k)
    kc = k % pc
    krow = (k % pr) * pc
    diag_owner = ranks[krow + kc]
    nb_diag = s * s * bytes_per_entry

    if not blocks:
        return SupernodePlan(
            k=k,
            width=s,
            blocks=[],
            diag_owner=diag_owner,
            diag_bcast=None,
            cross_sends=[],
            col_bcasts=[],
            row_reduces=[],
            col_reduce=None,
            cross_backs=[],
        )

    col_group, row_group = _participant_groups(ranks, pr, pc, k, blocks, intern)

    # First loop: diagonal block broadcast down grid column kc to the
    # owners of the L(I,K) panel blocks.
    # Singleton collectives (all participants collapse onto one rank) are
    # kept in the plan: they carry no bytes but the simulator still needs
    # them as dataflow joints.
    diag_bcast = CollectiveSpec(
        kind="diag-bcast",
        key=("db", k),
        root=diag_owner,
        participants=col_group[kc],
        nbytes=nb_diag,
    )

    cross_sends: list[PointToPointSpec] = []
    col_bcasts: list[CollectiveSpec] = []
    row_reduces: list[CollectiveSpec] = []
    cross_backs: list[PointToPointSpec] = []

    # Records are built positionally (a keyword call costs about a third
    # more): PointToPointSpec(kind, key, src, dst, nbytes) and
    # CollectiveSpec(kind, key, root, participants, nbytes).
    for b in blocks:
        i = b.snode
        nb_panel = s * b.nrows * bytes_per_entry
        l_owner = ranks[(i % pr) * pc + kc]  # owner of L(I,K)
        u_owner = ranks[krow + i % pc]  # owner of U(K,I)
        cross_sends.append(
            PointToPointSpec("cross-send", ("cs", k, i), l_owner, u_owner, nb_panel)
        )
        # The Ainv block owners of grid column I mod Pc.
        col_bcasts.append(
            CollectiveSpec(
                "col-bcast", ("cb", k, i), u_owner, col_group[i % pc], nb_panel
            )
        )
        # GEMM contributions along grid row I mod Pr, reduced onto the
        # owner of L(I,K), which sends the result back to U(K,I).
        row_reduces.append(
            CollectiveSpec(
                "row-reduce", ("rr", k, i), l_owner, row_group[i % pr], nb_panel
            )
        )
        cross_backs.append(
            PointToPointSpec("cross-back", ("xb", k, i), l_owner, u_owner, nb_panel)
        )

    # Diagonal update: contributions live on the owners of L(J,K) (grid
    # column kc), reduced onto the diagonal owner.
    col_reduce = CollectiveSpec(
        kind="col-reduce",
        key=("cr", k),
        root=diag_owner,
        participants=col_group[kc],
        nbytes=nb_diag,
    )

    return SupernodePlan(
        k=k,
        width=s,
        blocks=blocks,
        diag_owner=diag_owner,
        diag_bcast=diag_bcast,
        cross_sends=cross_sends,
        col_bcasts=col_bcasts,
        row_reduces=row_reduces,
        col_reduce=col_reduce,
        cross_backs=cross_backs,
    )


def iter_plans(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    *,
    bytes_per_entry: int = BYTES_PER_ENTRY,
) -> Iterator[SupernodePlan]:
    """Plans for every supernode, ascending index order.

    Equal participant tuples are shared across supernodes.  The plans
    are all built before the first is yielded.
    """
    yield from _build_all(_supernode_plan, struct, grid, bytes_per_entry)
