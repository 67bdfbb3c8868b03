"""2D processor grid and block-cyclic mapping (paper §II-B, Fig. 1).

PSelInv inherits SuperLU_DIST's layout: supernodal blocks ``(I, J)`` are
mapped cyclically onto a virtual ``Pr x Pc`` grid, block row ``I`` to grid
row ``I mod Pr`` and block column ``J`` to grid column ``J mod Pc``.
Ranks number the grid row-major (Fig. 1(a)): consecutive MPI ranks walk
along a grid row, which -- combined with MPI's fill-a-node-first placement
-- makes grid-row neighbours physically close and grid-column neighbours
``Pc`` ranks apart.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["ProcessorGrid", "square_grids"]

# One int object per rank number, shared by every grid in the process and
# grown on demand by ``ProcessorGrid.rank`` (under the lock, so ``_RANKS[r]``
# is always ``r``).  CPython caches only the ints up to 256; without this,
# every rank a plan stores (roots, endpoints, participants) would be its
# own 32-byte object.
_RANKS: list[int] = []
_RANKS_GROW = threading.Lock()


@dataclass(frozen=True)
class ProcessorGrid:
    """A ``pr x pc`` virtual processor grid."""

    pr: int
    pc: int

    def __post_init__(self) -> None:
        if self.pr < 1 or self.pc < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def size(self) -> int:
        return self.pr * self.pc

    def rank(self, row: int, col: int) -> int:
        """Rank at grid coordinates (row-major numbering).

        Equal ranks are one shared int object (see ``_RANKS``).
        """
        if not (0 <= row < self.pr and 0 <= col < self.pc):
            raise ValueError(f"grid coordinate ({row}, {col}) out of range")
        r = row * self.pc + col
        try:
            return _RANKS[r]
        except IndexError:
            with _RANKS_GROW:
                _RANKS.extend(range(len(_RANKS), r + 1))
            return _RANKS[r]

    def rank_table(self) -> list[int]:
        """The shared rank ints, at least ``size`` long: ``rank(row, col)``
        is ``rank_table()[row * pc + col]``, unchecked.  Read only."""
        self.rank(self.pr - 1, self.pc - 1)
        return _RANKS

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates of ``rank``."""
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range")
        return divmod(rank, self.pc)

    def owner(self, block_row: int, block_col: int) -> int:
        """Rank owning supernodal block ``(block_row, block_col)``."""
        return self.rank(block_row % self.pr, block_col % self.pc)

    def row_ranks(self, grid_row: int) -> np.ndarray:
        """All ranks in one grid row (a row communication group)."""
        if not 0 <= grid_row < self.pr:
            raise ValueError(f"grid row {grid_row} out of range")
        return np.arange(grid_row * self.pc, (grid_row + 1) * self.pc)

    def col_ranks(self, grid_col: int) -> np.ndarray:
        """All ranks in one grid column (a column communication group)."""
        if not 0 <= grid_col < self.pc:
            raise ValueError(f"grid column {grid_col} out of range")
        return np.arange(grid_col, self.size, self.pc)

    def volume_heatmap(self, per_rank: np.ndarray) -> np.ndarray:
        """Reshape a per-rank vector into the (pr, pc) grid layout used by
        the paper's heat-map figures."""
        per_rank = np.asarray(per_rank)
        if per_rank.shape != (self.size,):
            raise ValueError("per-rank vector length must equal grid size")
        return per_rank.reshape(self.pr, self.pc)


def square_grids(max_procs: int) -> list[ProcessorGrid]:
    """All square grids with ``p^2 <= max_procs`` (the paper's sweep uses
    square or near-square grids: 64, 121, 256, ..., 12100)."""
    out = []
    p = 1
    while p * p <= max_procs:
        out.append(ProcessorGrid(p, p))
        p += 1
    return out
