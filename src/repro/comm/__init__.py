"""Restricted collective communication (the paper's contribution layer)."""

from .trees import (
    TREE_SCHEMES,
    CommTree,
    binary_tree,
    binomial_tree,
    build_tree,
    derive_seed,
    flat_tree,
    hybrid_tree,
    permutation_indices,
    random_perm_tree,
    rotation_offset,
    shifted_binary_tree,
    structure_tree_key,
    tree_cache_clear,
    tree_cache_info,
    tree_cache_reset_counters,
)

__all__ = [
    "TREE_SCHEMES",
    "CommTree",
    "binary_tree",
    "binomial_tree",
    "build_tree",
    "derive_seed",
    "flat_tree",
    "hybrid_tree",
    "permutation_indices",
    "random_perm_tree",
    "rotation_offset",
    "shifted_binary_tree",
    "structure_tree_key",
    "tree_cache_clear",
    "tree_cache_info",
    "tree_cache_reset_counters",
]
