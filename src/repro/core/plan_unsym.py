"""Communication plan for the unsymmetric parallel selected inversion.

The paper's conclusion names the extension to asymmetric matrices as work
in progress; this is that extension.  Without ``Uhat = Lhat^T``, the U
panels must be normalized and moved on their own, which mirrors every
L-side communication with a transposed counterpart:

=================  =========================================================
event              root / endpoints, participants, payload size
=================  =========================================================
diag-bcast (K)     diag owner -> L(I,K) owners down grid column K mod Pc
diag-rbcast (K)    diag owner -> U(K,I) owners along grid row K mod Pr
cross-l2u (K,I)    owner of L(I,K) -> owner of U(K,I): Lhat(I,K)
col-bcast (K,I)    owner of U(K,I) -> Ainv(J,I) owners, grid col I mod Pc
cross-u2l (K,I)    owner of U(K,I) -> owner of L(I,K): Uhat(K,I)
row-bcast (K,I)    owner of L(I,K) -> Ainv(I,J) owners, grid row I mod Pr
row-reduce (K,J)   GEMM-L partial sums -> owner of L(J,K): Ainv(J,K)
col-ureduce (K,J)  GEMM-U partial sums -> owner of U(K,J): Ainv(K,J)
diag-rreduce (K)   Ainv(K,J) Lhat(J,K) contributions along grid row
                   K mod Pr -> diag owner: Ainv(K,K)
=================  =========================================================

Unlike the symmetric flow there are no cross-backs: the upper-triangle
``Ainv(K, C)`` blocks are *computed* at their owners (the U side) by the
GEMM-U pipeline instead of being transposed copies of the lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import (
    BYTES_PER_ENTRY,
    BlockInfo,
    CollectiveSpec,
    PointToPointSpec,
    _block_lists,
    _build_all,
    _participant_groups,
)

__all__ = ["UnsymSupernodePlan", "unsym_supernode_plan", "iter_unsym_plans"]


@dataclass
class UnsymSupernodePlan:
    """All communication of one supernode in the unsymmetric algorithm."""

    k: int
    width: int
    blocks: list[BlockInfo]
    diag_owner: int
    diag_bcast: CollectiveSpec | None
    diag_rbcast: CollectiveSpec | None
    cross_l2u: list[PointToPointSpec]
    cross_u2l: list[PointToPointSpec]
    col_bcasts: list[CollectiveSpec]
    row_bcasts: list[CollectiveSpec]
    row_reduces: list[CollectiveSpec]
    col_ureduces: list[CollectiveSpec]
    diag_rreduce: CollectiveSpec | None
    # The volume engine's read-out of this plan, built on first use by
    # repro.core.volume (never by the planner or the DES).
    _volume_columns: object = field(init=False, repr=False, compare=False, default=None)

    def collectives(self) -> Iterator[CollectiveSpec]:
        for spec in (self.diag_bcast, self.diag_rbcast, self.diag_rreduce):
            if spec is not None:
                yield spec
        yield from self.col_bcasts
        yield from self.row_bcasts
        yield from self.row_reduces
        yield from self.col_ureduces

    def point_to_points(self) -> Iterator[PointToPointSpec]:
        yield from self.cross_l2u
        yield from self.cross_u2l


def unsym_supernode_plan(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    k: int,
    *,
    bytes_per_entry: int = BYTES_PER_ENTRY,
) -> UnsymSupernodePlan:
    """Build the unsymmetric communication plan of supernode ``k``."""
    (blocks,) = _block_lists(struct, [k])
    return _unsym_supernode_plan(struct, grid, k, blocks, bytes_per_entry, {})


def _unsym_supernode_plan(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    k: int,
    blocks: list[BlockInfo],
    bytes_per_entry: int,
    intern: dict[tuple, tuple],
) -> UnsymSupernodePlan:
    pr, pc = grid.pr, grid.pc
    ranks = grid.rank_table()
    s = struct.width(k)
    kr, kc = k % pr, k % pc
    krow = kr * pc
    diag_owner = ranks[krow + kc]
    nb_diag = s * s * bytes_per_entry

    if not blocks:
        return UnsymSupernodePlan(
            k=k, width=s, blocks=[], diag_owner=diag_owner,
            diag_bcast=None, diag_rbcast=None,
            cross_l2u=[], cross_u2l=[], col_bcasts=[], row_bcasts=[],
            row_reduces=[], col_ureduces=[], diag_rreduce=None,
        )

    col_group, row_group = _participant_groups(ranks, pr, pc, k, blocks, intern)

    diag_bcast = CollectiveSpec(
        kind="diag-bcast",
        key=("db", k),
        root=diag_owner,
        participants=col_group[kc],
        nbytes=nb_diag,
    )
    diag_rbcast = CollectiveSpec(
        kind="diag-rbcast",
        key=("dr", k),
        root=diag_owner,
        participants=row_group[kr],
        nbytes=nb_diag,
    )

    cross_l2u: list[PointToPointSpec] = []
    cross_u2l: list[PointToPointSpec] = []
    col_bcasts: list[CollectiveSpec] = []
    row_bcasts: list[CollectiveSpec] = []
    row_reduces: list[CollectiveSpec] = []
    col_ureduces: list[CollectiveSpec] = []

    # Positional records, as in the symmetric planner:
    # PointToPointSpec(kind, key, src, dst, nbytes) and
    # CollectiveSpec(kind, key, root, participants, nbytes).
    for b in blocks:
        i = b.snode
        nb_panel = s * b.nrows * bytes_per_entry
        l_owner = ranks[(i % pr) * pc + kc]  # owner of L(I,K)
        u_owner = ranks[krow + i % pc]  # owner of U(K,I)
        col_group_i, row_group_i = col_group[i % pc], row_group[i % pr]
        cross_l2u.append(
            PointToPointSpec("cross-l2u", ("cl", k, i), l_owner, u_owner, nb_panel)
        )
        cross_u2l.append(
            PointToPointSpec("cross-u2l", ("cu", k, i), u_owner, l_owner, nb_panel)
        )
        col_bcasts.append(
            CollectiveSpec("col-bcast", ("cb", k, i), u_owner, col_group_i, nb_panel)
        )
        row_bcasts.append(
            CollectiveSpec("row-bcast", ("rb", k, i), l_owner, row_group_i, nb_panel)
        )
        # The GEMM-L sums reduce onto L(I,K), the GEMM-U sums onto U(K,I).
        row_reduces.append(
            CollectiveSpec("row-reduce", ("rr", k, i), l_owner, row_group_i, nb_panel)
        )
        col_ureduces.append(
            CollectiveSpec("col-ureduce", ("cu2", k, i), u_owner, col_group_i, nb_panel)
        )

    diag_rreduce = CollectiveSpec(
        kind="diag-rreduce",
        key=("dq", k),
        root=diag_owner,
        participants=row_group[kr],
        nbytes=nb_diag,
    )

    return UnsymSupernodePlan(
        k=k, width=s, blocks=blocks, diag_owner=diag_owner,
        diag_bcast=diag_bcast, diag_rbcast=diag_rbcast,
        cross_l2u=cross_l2u, cross_u2l=cross_u2l,
        col_bcasts=col_bcasts, row_bcasts=row_bcasts,
        row_reduces=row_reduces, col_ureduces=col_ureduces,
        diag_rreduce=diag_rreduce,
    )


def iter_unsym_plans(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    *,
    bytes_per_entry: int = BYTES_PER_ENTRY,
) -> Iterator[UnsymSupernodePlan]:
    """Unsymmetric plans for every supernode, ascending index order.

    Equal participant tuples are shared across supernodes.  The plans
    are all built before the first is yielded.
    """
    yield from _build_all(_unsym_supernode_plan, struct, grid, bytes_per_entry)
