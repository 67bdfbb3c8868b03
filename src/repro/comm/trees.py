"""Communication-tree construction for restricted collectives (paper §III).

A *restricted collective* involves an arbitrary subset of the ranks in a
row/column group of the 2D processor grid -- one subset per supernode and
block, tens of thousands of them per selected inversion, far beyond what
MPI communicators can be pre-created for.  Each collective is therefore
realized over asynchronous point-to-point messages routed along a tree
built here.  Five schemes:

* :func:`flat_tree` -- the root sends to every participant directly
  (PSelInv v0.7.3 behaviour; ``p - 1`` root messages).
* :func:`binary_tree` -- participants sorted ascending after the root; the
  list is split recursively in two halves whose heads become children
  (Fig. 3(b)).  Root degree <= 2, depth ~ log2(p), but the *lowest* rank
  of a group is picked as an internal node by every broadcast that it
  participates in -- the striped hot spots of Fig. 5(b).
* :func:`shifted_binary_tree` -- **the paper's contribution**: a seeded
  random circular shift of the sorted participant list before the binary
  construction (Fig. 3(c)), so different collectives pick different
  internal nodes and the forwarding load spreads across the group.
* :func:`random_perm_tree` -- full random permutation instead of a shift;
  implemented because the paper *rejects* it (worse locality and, in
  their experiments, worse balance) and our ablation benchmarks test that
  claim.
* :func:`hybrid_tree` -- flat below a participant-count threshold and
  shifted-binary above, the "future work" scheme suggested in §IV-B for
  exploiting cheap intra-node flat broadcasts.

Trees are direction-agnostic: a broadcast pushes data root -> leaves along
child edges, a reduction pulls contributions leaves -> root along the same
edges reversed, exactly as MPI_Bcast/MPI_Reduce share tree shapes.

Every scheme wires a positional *shape* (one per family -- flat, binary,
binomial -- and participant count, memoized in ``_shape``) over a seeded
construction *order* of the ranks (``_order``).  :func:`compiled_tree`
(the simulator's list form) and :func:`build_tree` (the dict-based
:class:`CommTree` of the plan checker, ``repro check`` and the reference
volume engine) are two views of that one order; the per-scheme
constructors above remain the spec both are tested against.  The
vectorized volume engine reads the shapes' child counts directly.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CommTree",
    "CompiledTree",
    "compiled_tree",
    "flat_tree",
    "binary_tree",
    "binomial_tree",
    "shifted_binary_tree",
    "random_perm_tree",
    "hybrid_tree",
    "build_tree",
    "structure_tree_key",
    "rotation_offset",
    "permutation_indices",
    "tree_cache_info",
    "tree_cache_clear",
    "tree_cache_reset_counters",
    "derive_seed",
    "TREE_SCHEMES",
]


@dataclass
class CommTree:
    """An oriented communication tree over a set of ranks.

    ``order`` is the construction order (root first); ``parent`` and
    ``children`` describe the edges.  Invariants (enforced in tests): the
    edges span exactly the participant set, the root has no parent, and
    every other rank has exactly one parent.
    """

    root: int
    order: tuple[int, ...]
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        # Reject the two malformations a caller can introduce through the
        # participant list (a duplicated rank silently double-receives, a
        # root outside the set silently never sends); the deeper shape
        # invariants are checked by ``repro.check.plan_lint.lint_tree``.
        if len(set(self.order)) != len(self.order):
            seen: set[int] = set()
            dupes: set[int] = set()
            for r in self.order:
                (dupes if r in seen else seen).add(r)
            raise ValueError(
                f"CommTree: duplicate participants {sorted(dupes)}"
            )
        if self.root not in set(self.order):
            raise ValueError(
                f"CommTree: root {self.root} is not in the participant "
                f"list {self.order}"
            )

    @property
    def size(self) -> int:
        return len(self.order)

    def ranks(self) -> tuple[int, ...]:
        return self.order

    def child_count(self, rank: int) -> int:
        return len(self.children.get(rank, ()))

    def is_leaf(self, rank: int) -> bool:
        return self.child_count(rank) == 0

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges."""
        depths = {self.root: 0}
        best = 0
        for r in self.order[1:]:
            d = depths[self.parent[r]] + 1
            depths[r] = d
            best = max(best, d)
        return best

    def internal_ranks(self) -> list[int]:
        """Ranks that forward data (have at least one child)."""
        return [r for r in self.order if self.child_count(r) > 0]


def _normalize(root: int, participants: Iterable[int]) -> list[int]:
    """Sorted, deduplicated non-root participant list."""
    s = set(map(int, participants))
    s.discard(int(root))
    return sorted(s)


@lru_cache(maxsize=1 << 18)
def rotation_offset(seed: int, n: int) -> int:
    """Rotation offset of :func:`shifted_binary_tree` for ``n`` non-root
    participants under ``seed``.

    Memoized so repeated tree builds (the analytic model, the simulator,
    and scheme sweeps all derive identical per-collective seeds) do not
    pay for a fresh ``np.random.default_rng`` Generator each time.  The
    value is exactly ``default_rng(seed).integers(n)``.
    """
    if n <= 1:
        return 0
    return int(np.random.default_rng(seed).integers(n))


@lru_cache(maxsize=1 << 16)
def permutation_indices(seed: int, n: int) -> tuple[int, ...]:
    """Memoized full permutation of ``range(n)`` for
    :func:`random_perm_tree` (exactly ``default_rng(seed).permutation(n)``)."""
    if n <= 1:
        return tuple(range(n))
    return tuple(int(i) for i in np.random.default_rng(seed).permutation(n))


def _binary_from_order(order: Sequence[int]) -> CommTree:
    """Build the recursive-halving binary tree from an ordered rank list.

    ``order[0]`` is the root.  Each node owns a contiguous sublist; its
    tail is split into two halves (first half gets the ceiling) whose
    heads become its children.  Reproduces the paper's Fig. 3(b)/(c).
    """
    root = int(order[0])
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {r: [] for r in order}
    # Work list of (owner, sublist) where sublist excludes the owner.
    stack: list[tuple[int, Sequence[int]]] = [(root, order[1:])]
    while stack:
        owner, rest = stack.pop()
        m = len(rest)
        if m == 0:
            continue
        half = (m + 1) // 2
        left, right = rest[:half], rest[half:]
        for part in (left, right):
            if part:
                head = int(part[0])
                parent[head] = owner
                children[owner].append(head)
                stack.append((head, part[1:]))
    return CommTree(
        root=root,
        order=tuple(int(r) for r in order),
        parent=parent,
        children={r: tuple(c) for r, c in children.items()},
    )


def flat_tree(root: int, participants: Iterable[int]) -> CommTree:
    """Centralized star: the root is parent of every other participant."""
    others = _normalize(root, participants)
    return CommTree(
        root=int(root),
        order=(int(root), *others),
        parent={r: int(root) for r in others},
        children={int(root): tuple(others), **{r: () for r in others}},
    )


def binary_tree(root: int, participants: Iterable[int]) -> CommTree:
    """Recursive-halving binary tree over the sorted participant list."""
    others = _normalize(root, participants)
    return _binary_from_order([int(root), *others])


def shifted_binary_tree(
    root: int, participants: Iterable[int], seed: int
) -> CommTree:
    """Binary tree over a randomly *rotated* sorted participant list.

    The rotation offset is drawn from ``seed``; all ranks of a collective
    derive the same seed in the preprocessing step (see
    :func:`derive_seed`), so no extra synchronization is needed -- the
    property the paper highlights at the end of §III.
    """
    others = _normalize(root, participants)
    if len(others) > 1:
        k = rotation_offset(seed, len(others))
        others = others[k:] + others[:k]
    return _binary_from_order([int(root), *others])


def binomial_tree(root: int, participants: Iterable[int]) -> CommTree:
    """Binomial tree over the sorted participant list.

    The shape production MPI libraries actually use for ``MPI_Bcast`` on
    short messages: in round ``j`` every rank at relative position
    ``r < 2^j`` forwards to position ``r + 2^j``.  Root degree is
    ``ceil(log2 p)`` (vs 2 for the recursive-halving binary tree), depth
    ``ceil(log2 p)``.  Shares the binary tree's pathology: with the
    sorted ordering the same low-position ranks forward in every
    collective they join.
    """
    others = _normalize(root, participants)
    order = [int(root), *others]
    p = len(order)
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {r: [] for r in order}
    for r in range(1, p):
        # Parent: clear the highest set bit of the relative position.
        pr_pos = r - (1 << (r.bit_length() - 1))
        parent[order[r]] = order[pr_pos]
        children[order[pr_pos]].append(order[r])
    return CommTree(
        root=int(root),
        order=tuple(order),
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
    )


def random_perm_tree(
    root: int, participants: Iterable[int], seed: int
) -> CommTree:
    """Binary tree over a fully permuted participant list (rejected
    alternative -- destroys rank locality; kept for the ablation study)."""
    others = _normalize(root, participants)
    if len(others) > 1:
        perm = permutation_indices(seed, len(others))
        others = [others[i] for i in perm]
    return _binary_from_order([int(root), *others])


def hybrid_tree(
    root: int,
    participants: Iterable[int],
    seed: int,
    *,
    threshold: int = 8,
) -> CommTree:
    """Flat for small groups, shifted-binary for large ones (§IV-B).

    Small restricted collectives often fit in one node where a flat send
    is memcpy-cheap and cache-friendly; large ones need the tree.
    """
    others = _normalize(root, participants)
    if len(others) + 1 <= threshold:
        return flat_tree(root, others)
    return shifted_binary_tree(root, others, seed)


TREE_SCHEMES = ("flat", "binary", "shifted", "randperm", "hybrid", "binomial")

# Positional-shape family per resolved scheme: shifted and randperm
# trees only reorder the ranks laid onto the binary shape (hybrid
# resolves to flat or shifted by group size, see _resolve_scheme).
_FAMILY_OF = {
    "flat": "flat",
    "binary": "binary",
    "binomial": "binomial",
    "shifted": "binary",
    "randperm": "binary",
}


# ---------------------------------------------------------------------------
# Shapes and orders
#
# Every scheme above is "pick a construction order, then wire edges by
# *position* in that order".  The positional shape therefore depends only
# on the family and the participant count -- one small, heavily reused
# record per (family, p) -- and a concrete tree is that shape laid over
# one seeded order of the ranks.
# ---------------------------------------------------------------------------


class _Shape(NamedTuple):
    """One positional shape (position 0 is the root).

    ``kids`` is the read-only child-count array the volume engine
    indexes.  The list forms serve the DES: ``parents`` (the root's is
    -1), ``counts``, the CSR adjacency ``indptr``/``childpos`` with each
    position's children in ascending position (the append order of the
    per-scheme constructors), and ``depth``, the longest root-to-leaf
    path in edges.
    """

    kids: np.ndarray
    parents: list[int]
    counts: list[int]
    indptr: list[int]
    childpos: list[int]
    depth: int


@lru_cache(maxsize=4096)
def _shape(family: str, p: int) -> _Shape:
    """The shape of ``family`` over ``p`` ranks: the per-scheme
    constructors with each rank replaced by its construction-order
    position."""
    parents = [-1] * p
    if family == "flat":
        parents[1:] = [0] * (p - 1)
    elif family == "binary":
        # _binary_from_order over positions: (owner, lo, hi) sublists.
        stack = [(0, 1, p)]
        while stack:
            owner, lo, hi = stack.pop()
            half = (hi - lo + 1) // 2
            for a, b in ((lo, lo + half), (lo + half, hi)):
                if b > a:
                    parents[a] = owner
                    stack.append((a, a + 1, b))
    elif family == "binomial":
        for r in range(1, p):
            parents[r] = r - (1 << (r.bit_length() - 1))
    else:
        raise ValueError(f"unknown tree family {family!r}")
    # Every parent precedes its children, so one ascending pass fills
    # the counts, the depths and the CSR slots.
    counts = [0] * p
    depths = [0] * p
    for i in range(1, p):
        counts[parents[i]] += 1
        depths[i] = depths[parents[i]] + 1
    indptr = [0, *accumulate(counts)]
    childpos = [0] * max(p - 1, 0)
    cursor = indptr[:p]
    for i in range(1, p):
        childpos[cursor[parents[i]]] = i
        cursor[parents[i]] += 1
    kids = np.array(counts, dtype=np.int64)
    kids.setflags(write=False)
    return _Shape(kids, parents, counts, indptr, childpos, max(depths, default=0))


class _TreeLRU:
    """LRU of structural keys (see :func:`structure_tree_key`) with
    hit/miss/eviction counters.

    A key carries the resolved scheme, the participant count and the
    rotation offset or permutation -- never absolute ranks -- so it *is*
    the tree's structure: :func:`_order` lays the ranks out from the key
    itself, and the cache stores only keys, counting how often
    collectives over any rank sets share one structure.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._keys: OrderedDict[tuple, None] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def touch(self, key: tuple) -> None:
        """Count one lookup of ``key``, inserting it on a miss."""
        keys = self._keys
        try:
            keys.move_to_end(key)
        except KeyError:
            self.misses += 1
            keys[key] = None
            if len(keys) > self.maxsize:
                keys.popitem(last=False)
                self.evictions += 1
        else:
            self.hits += 1

    def clear(self) -> None:
        self._keys.clear()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def info(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._keys),
            "maxsize": self.maxsize,
        }


_TREE_CACHE = _TreeLRU(1 << 16)


def tree_cache_info() -> dict[str, int]:
    """Hit/miss/eviction counters of the shared tree-structure cache."""
    return _TREE_CACHE.info()


def tree_cache_clear() -> None:
    """Drop all cached tree structures and reset the counters."""
    _TREE_CACHE.clear()


def tree_cache_reset_counters() -> None:
    """Zero the hit/miss/eviction counters but keep the cached entries.

    Benchmarks use this between sections so each section reports its own
    stats (a warm section's hit rate is not diluted by the cold section's
    compulsory misses) without giving up the warmed cache.
    """
    _TREE_CACHE.reset_counters()


def _resolve_scheme(scheme: str, n_others: int, hybrid_threshold: int) -> str:
    """Collapse ``hybrid`` onto the branch it takes for this group size."""
    if scheme == "hybrid":
        return "flat" if n_others + 1 <= hybrid_threshold else "shifted"
    return scheme


def structure_tree_key(
    scheme: str,
    n_others: int,
    seed: int,
    *,
    hybrid_threshold: int = 8,
) -> tuple:
    """Structural cache key: ``(resolved scheme, p, offset/perm)``.

    The tree *shape* depends only on the scheme family and participant
    count, and the rank ordering only on the rotation offset (shifted) or
    permutation (randperm) -- never on the absolute ranks.  Keying the
    cache on this collapses every collective over any rank set of the
    same size onto one entry: cardinality is O(distinct participant
    counts x distinct offsets), hundreds of keys on the paper-tier sweeps
    versus hundreds of thousands of lookups.
    """
    scheme = _resolve_scheme(scheme, n_others, hybrid_threshold)
    p = n_others + 1
    if scheme == "shifted":
        return ("shifted", p, rotation_offset(seed, n_others))
    if scheme == "randperm":
        return ("randperm", p, permutation_indices(seed, n_others))
    if scheme in ("flat", "binary", "binomial"):
        return (scheme, p, None)
    raise ValueError(
        f"unknown tree scheme {scheme!r}; expected one of {TREE_SCHEMES}"
    )


def _order(
    scheme: str,
    root: int,
    participants: Iterable[int],
    seed: int,
    hybrid_threshold: int,
) -> tuple[str, list[int]]:
    """One collective's shape family and seeded construction order.

    The order is the root, then the sorted, distinct non-root
    participants (the root is a participant whether or not it is
    listed), rotated or permuted as the structural key says: the order
    of the per-scheme constructors, bit for bit.  Counts one lookup in
    the tree-structure cache.
    """
    root = int(root)
    others = _normalize(root, participants)
    key = structure_tree_key(
        scheme, len(others), seed, hybrid_threshold=hybrid_threshold
    )
    _TREE_CACHE.touch(key)
    resolved, _, extra = key
    if resolved == "shifted" and extra:
        others = others[extra:] + others[:extra]
    elif resolved == "randperm":
        others = [others[i] for i in extra]
    return _FAMILY_OF[resolved], [root, *others]


class CompiledTree:
    """One tree compiled for the vectorized collective state machines.

    The DES hot-path format: plain Python lists indexed by
    construction-order position, sharing its shape's CSR adjacency,
    parent positions and child counts with every tree of the same
    family and size.  ``ranks[i]`` is the rank at position ``i`` (root
    at position 0); ``indptr``/``childpos`` give each position's
    children in ascending position -- the exact forwarding order of the
    per-scheme constructors.
    """

    __slots__ = (
        "root",
        "ranks",
        "size",
        "family",
        "indptr",
        "childpos",
        "parentpos",
        "child_counts",
    )

    def __init__(
        self,
        root: int,
        ranks: list[int],
        family: str,
    ) -> None:
        p = len(ranks)
        shape = _shape(family, p)
        self.root = root
        self.ranks = ranks
        self.size = p
        self.family = family
        self.indptr = shape.indptr
        self.childpos = shape.childpos
        self.parentpos = shape.parents
        self.child_counts = shape.counts

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges."""
        return _shape(self.family, self.size).depth


def compiled_tree(
    scheme: str,
    root: int,
    participants: Iterable[int],
    seed: int = 0,
    *,
    hybrid_threshold: int = 8,
) -> CompiledTree:
    """:class:`CompiledTree` for one collective (any scheme): the DES's
    view of the seeded construction order, which it shares with
    :func:`build_tree` (same tree, same cache lookup, on any
    participant list)."""
    family, order = _order(scheme, root, participants, seed, hybrid_threshold)
    return CompiledTree(order[0], order, family)


def build_tree(
    scheme: str,
    root: int,
    participants: Iterable[int],
    seed: int = 0,
    *,
    hybrid_threshold: int = 8,
) -> CommTree:
    """Dict-based tree for the plan checker, the happens-before model of
    ``repro check`` and the reference volume engine: the seeded
    construction order wired by its shape's parent positions.

    Identical to the per-scheme constructors above, which remain the
    spec (pinned by tests), and to :func:`compiled_tree`.
    """
    family, order = _order(scheme, root, participants, seed, hybrid_threshold)
    parents = _shape(family, len(order)).parents
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {r: [] for r in order}
    for i in range(1, len(order)):
        up = order[parents[i]]
        parent[order[i]] = up
        children[up].append(order[i])
    return CommTree(
        root=order[0],
        order=tuple(order),
        parent=parent,
        children={r: tuple(c) for r, c in children.items()},
    )


def derive_seed(global_seed: int, *components: int) -> int:
    """Deterministic per-collective seed from the preprocessing-step seed.

    Stable across processes and Python runs (CRC-based, not ``hash()``),
    mirroring how the paper communicates the random seed once during
    preprocessing and then builds identical trees on every rank.
    """
    # struct.pack with native order/size produces the identical byte
    # string np.asarray(..., dtype=np.int64).tobytes() used to, several
    # times faster (this runs once per collective per preprocessing).
    buf = struct.pack(f"={len(components) + 1}q", global_seed, *components)
    return zlib.crc32(buf) & 0x7FFFFFFF
