"""End-to-end analysis driver for the sparse substrate.

Chains the preprocessing pipeline every experiment starts from:

    symmetrize -> fill-reducing ordering -> symmetric permutation ->
    elimination tree -> postorder relabeling (of the matrix and of its
    tree) -> column counts -> supernode partition -> supernodal symbolic
    structure

and returns an :class:`AnalyzedProblem` that downstream layers (numeric
factorization, sequential selected inversion, the parallel simulator and
the communication-volume models) all consume.  The composed permutation is
retained so results can be mapped back to original indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import ordering as _ordering
from .etree import elimination_tree, postorder, relabel_tree
from .factor import SupernodalFactor, factorize
from .matrix import SparseMatrix, permute_symmetric, symmetrize_pattern
from .selinv import SelectedInverse, normalize, selected_inversion
from .supernodes import SupernodalStructure, supernodal_structure
from .symbolic import column_counts

__all__ = ["AnalyzedProblem", "analyze", "selinv_sequential"]

OrderingName = Literal["amd", "nd", "rcm", "natural"]

_ORDERINGS: dict[str, Callable[[SparseMatrix], np.ndarray]] = {
    "amd": _ordering.minimum_degree,
    "nd": _ordering.nested_dissection,
    "rcm": _ordering.reverse_cuthill_mckee,
    "natural": _ordering.natural_order,
}


@dataclass
class AnalyzedProblem:
    """A matrix prepared for factorization and selected inversion.

    Attributes
    ----------
    matrix:
        The symmetrized, permuted, topologically ordered matrix.
    struct:
        Its supernodal symbolic structure.
    perm:
        Composite permutation, ``perm[new] = old`` w.r.t. the original
        input indices.
    parent:
        Column elimination tree of ``matrix``.
    """

    matrix: SparseMatrix
    struct: SupernodalStructure
    perm: np.ndarray
    parent: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.n

    def stats(self) -> dict[str, float]:
        """Workload statistics in the format of the paper's Table II."""
        nnz_l = self.struct.factor_nnz()
        return {
            "n": self.n,
            "nnz_a": self.matrix.nnz,
            "nnz_lu": self.struct.factor_nnz_lu(),
            "nnz_l": nnz_l,
            "nsup": self.struct.nsup,
            "fill_ratio": self.struct.factor_nnz_lu() / max(self.matrix.nnz, 1),
        }


def analyze(
    a: SparseMatrix,
    *,
    ordering: OrderingName | np.ndarray = "nd",
    relax: bool = True,
    max_supernode: int = 64,
    validate: bool = False,
) -> AnalyzedProblem:
    """Run the preprocessing pipeline on ``a``.

    Parameters
    ----------
    a:
        Any square sparse matrix; the pattern is symmetrized first.
    ordering:
        A named fill-reducing ordering (``"amd"``, ``"nd"``, ``"rcm"``,
        ``"natural"``) or an explicit permutation array
        (``perm[new] = old``).
    relax:
        Apply relaxed supernode amalgamation (on by default, matching
        production solvers).
    max_supernode:
        Upper bound on supernode width after relaxation.
    validate:
        Run the (quadratic) structural invariant checks; meant for tests.
    """
    sym = symmetrize_pattern(a)
    if isinstance(ordering, np.ndarray):
        perm0 = np.asarray(ordering, dtype=np.int64)
    else:
        try:
            fn = _ORDERINGS[ordering]
        except KeyError:
            raise ValueError(
                f"unknown ordering {ordering!r}; expected one of {sorted(_ORDERINGS)}"
            ) from None
        perm0 = fn(sym)
    m1 = permute_symmetric(sym, perm0)
    parent1 = elimination_tree(m1)
    post = postorder(parent1)
    perm = perm0[post]
    matrix = permute_symmetric(sym, perm)
    parent = relabel_tree(parent1, post)
    counts = column_counts(matrix, parent)
    struct = supernodal_structure(
        matrix,
        parent=parent,
        counts=counts,
        relax=relax,
        max_size=max_supernode,
    )
    if validate:
        struct.validate()
    return AnalyzedProblem(matrix=matrix, struct=struct, perm=perm, parent=parent)


def selinv_sequential(
    problem: AnalyzedProblem,
) -> tuple[SupernodalFactor, SelectedInverse]:
    """Factorize, normalize, and run sequential selected inversion.

    Returns the (normalized) factor and the selected inverse, both in the
    problem's permuted index space.
    """
    factor = factorize(problem.matrix, problem.struct)
    normalize(factor)
    inv = selected_inversion(factor)
    return factor, inv
