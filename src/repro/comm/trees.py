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
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CommTree",
    "CompiledTree",
    "TreeArrays",
    "compiled_tree",
    "flat_tree",
    "binary_tree",
    "binomial_tree",
    "shifted_binary_tree",
    "random_perm_tree",
    "hybrid_tree",
    "build_tree",
    "tree_arrays",
    "canonical_tree_key",
    "structure_tree_key",
    "rotation_offset",
    "permutation_indices",
    "tree_cache_info",
    "tree_cache_clear",
    "tree_cache_reset_counters",
    "tree_cache_resize",
    "tree_cache_hit_rate",
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
    """Sorted, deduplicated non-root participant list (root validated in)."""
    s = set(int(p) for p in participants)
    s.add(int(root))
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


# ---------------------------------------------------------------------------
# Array-based fast path
#
# Every scheme above is "pick a construction order, then wire edges by
# *position* in that order".  The per-position shape (child counts and
# parent positions) therefore depends only on the scheme family and the
# participant count -- tiny, heavily reused arrays -- while a concrete tree
# is that shape composed with a rank ordering.  The vectorized volume
# engine (repro.core.volume) looks child counts up in these shapes by
# position, without building any tree or consulting the cache below.
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=4096)
def _flat_positions(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(child_counts, parent_pos) per construction-order position, star."""
    kids = np.zeros(p, dtype=np.int64)
    par = np.full(p, -1, dtype=np.int64)
    if p > 1:
        kids[0] = p - 1
        par[1:] = 0
    return _freeze(kids), _freeze(par)


@lru_cache(maxsize=4096)
def _binary_positions(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positional shape of the recursive-halving binary tree over ``p``
    ranks (position 0 = root).  Mirrors :func:`_binary_from_order` with
    ranks replaced by their position in the construction order."""
    kids = np.zeros(p, dtype=np.int64)
    par = np.full(p, -1, dtype=np.int64)
    stack: list[tuple[int, int, int]] = [(0, 1, p)]  # (owner, lo, hi)
    while stack:
        owner, lo, hi = stack.pop()
        m = hi - lo
        if m == 0:
            continue
        half = (m + 1) // 2
        for a, b in ((lo, lo + half), (lo + half, hi)):
            if b > a:
                par[a] = owner
                kids[owner] += 1
                stack.append((a, a + 1, b))
    return _freeze(kids), _freeze(par)


@lru_cache(maxsize=4096)
def _binomial_positions(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Positional shape of the binomial tree over ``p`` ranks."""
    kids = np.zeros(p, dtype=np.int64)
    par = np.full(p, -1, dtype=np.int64)
    for r in range(1, p):
        pr_pos = r - (1 << (r.bit_length() - 1))
        par[r] = pr_pos
        kids[pr_pos] += 1
    return _freeze(kids), _freeze(par)


_POSITION_SHAPES = {
    "flat": _flat_positions,
    "binary": _binary_positions,
    "binomial": _binomial_positions,
}


@lru_cache(maxsize=4096)
def _children_csr(family: str, p: int) -> tuple[list[int], list[int]]:
    """CSR adjacency (indptr, child positions) of one positional shape.

    Plain Python lists: the compiled collectives index them per
    forwarded message.  Children appear in ascending position, matching the
    append order of the dict-based tree builders bit for bit.
    """
    kids, par = _POSITION_SHAPES[family](p)
    counts = kids.tolist()
    parents = par.tolist()
    indptr = [0] * (p + 1)
    for i in range(p):
        indptr[i + 1] = indptr[i] + counts[i]
    childpos = [0] * (p - 1 if p > 0 else 0)
    cursor = indptr[:p]
    for i in range(1, p):
        pp = parents[i]
        childpos[cursor[pp]] = i
        cursor[pp] += 1
    return indptr, childpos


@lru_cache(maxsize=4096)
def _parent_positions(family: str, p: int) -> list[int]:
    """Parent position per position (root -1) as a plain Python list."""
    _, par = _POSITION_SHAPES[family](p)
    return par.tolist()


@lru_cache(maxsize=4096)
def _shape_depth(family: str, p: int) -> int:
    """Longest root-to-leaf path (edges) of one positional shape."""
    _, par = _POSITION_SHAPES[family](p)
    parents = par.tolist()
    depths = [0] * p
    best = 0
    for i in range(1, p):
        d = depths[parents[i]] + 1
        depths[i] = d
        if d > best:
            best = d
    return best


@dataclass(frozen=True)
class TreeArrays:
    """Array view of one communication tree (what :func:`build_tree` wires).

    ``ranks[i]`` is the rank at construction-order position ``i``
    (``ranks[0]`` is the root); ``parent_pos[i]`` indexes ``ranks``
    (-1 for the root) and ``child_counts[i]`` is position ``i``'s
    out-degree.  Arrays are read-only: the shape arrays
    (``parent_pos``/``child_counts``) are shared across every tree of the
    same family and size via the structure cache.
    """

    root: int
    ranks: np.ndarray
    parent_pos: np.ndarray
    child_counts: np.ndarray
    # Largest out-degree, precomputed once per cached structure.
    max_degree: int
    # Positional-shape family ("flat" / "binary" / "binomial"; the
    # shifted and randperm schemes reuse the binary shape).
    family: str = "binary"

    @property
    def size(self) -> int:
        return len(self.ranks)

    def to_comm_tree(self) -> CommTree:
        """Materialize the dict-based :class:`CommTree` view.

        Child lists are filled in ascending construction-order position,
        which reproduces the append order of the original dict-based
        builders exactly.
        """
        ranks = self.ranks
        order = tuple(int(r) for r in ranks)
        parent: dict[int, int] = {}
        children: dict[int, list[int]] = {r: [] for r in order}
        ppos = self.parent_pos
        for i in range(1, len(order)):
            p = order[ppos[i]]
            parent[order[i]] = p
            children[p].append(order[i])
        return CommTree(
            root=self.root,
            order=order,
            parent=parent,
            children={r: tuple(c) for r, c in children.items()},
        )


@dataclass(frozen=True)
class _TreeStructure:
    """One cached tree *structure*: everything about a tree except which
    concrete ranks sit at its positions.

    The positional shape (``child_counts``/``parent_pos``) is shared with
    the per-family memos; ``offset``/``perm`` record the relative
    reordering of the sorted non-root participants (rotation for shifted
    trees, full permutation for randperm, identity otherwise).  A
    concrete :class:`TreeArrays` is produced by :meth:`relabel`, which
    only has to lay the caller's ranks onto the cached structure.
    """

    family: str
    size: int
    child_counts: np.ndarray
    parent_pos: np.ndarray
    max_degree: int
    offset: int = 0
    perm: tuple[int, ...] | None = None

    def order(self, root: int, others: Sequence[int]) -> list[int]:
        """Construction order over a concrete rank set.

        Reproduces the construction order of the dict-based builders bit
        for bit: root first, then the sorted non-root participants under
        the structure's rotation/permutation.
        """
        if self.offset:
            k = self.offset
            return [root, *others[k:], *others[:k]]
        if self.perm is not None:
            return [root, *(others[i] for i in self.perm)]
        return [root, *others]

    def relabel(self, root: int, others: tuple[int, ...]) -> TreeArrays:
        """Compose this structure with a concrete rank set (ndarray view)."""
        return TreeArrays(
            root=root,
            ranks=_freeze(np.asarray(self.order(root, others), dtype=np.int64)),
            parent_pos=self.parent_pos,
            child_counts=self.child_counts,
            max_degree=self.max_degree,
            family=self.family,
        )


class _TreeLRU:
    """Small LRU cache for :class:`_TreeStructure` with hit/miss counters.

    Keys are *structural* (see :func:`structure_tree_key`): they carry
    the resolved scheme, the participant count, and the relative
    rotation/permutation -- never absolute ranks.  The keyspace is
    therefore O(distinct participant counts x offsets), thousands of
    times smaller than the per-collective (root, participants) space that
    used to thrash this cache, and every collective over *any* rank set
    of the same size and rotation shares one entry.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._data: OrderedDict[tuple, _TreeStructure] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> _TreeStructure | None:
        struct = self._data.get(key)
        if struct is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return struct

    def put(self, key: tuple, struct: _TreeStructure) -> None:
        self._data[key] = struct
        self._data.move_to_end(key)
        self._evict_over_capacity()

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries when shrinking.

        The single eviction path (shared with :meth:`put`) keeps the
        eviction counter consistent no matter how the cache shrinks.
        """
        if maxsize < 1:
            raise ValueError("tree cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        data = self._data
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def info(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


_DEFAULT_TREE_CACHE_SIZE = 1 << 16
_TREE_CACHE: _TreeLRU | None = None


def _env_cache_size() -> int:
    """Capacity from ``REPRO_TREE_CACHE_SIZE`` (validated, with a clear
    error naming the knob instead of a bare int() traceback)."""
    raw = os.environ.get("REPRO_TREE_CACHE_SIZE")
    if raw is None or not raw.strip():
        return _DEFAULT_TREE_CACHE_SIZE
    try:
        size = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TREE_CACHE_SIZE={raw!r} is not a valid tree-cache "
            "capacity; expected a positive integer (number of cached "
            "tree structures)"
        ) from None
    if size < 1:
        raise ValueError(
            f"REPRO_TREE_CACHE_SIZE={raw!r} must be a positive integer"
        )
    return size


def _cache() -> _TreeLRU:
    """The shared structure cache, created on first use.

    Lazy so a malformed ``REPRO_TREE_CACHE_SIZE`` surfaces as a clear
    :class:`ValueError` at the first cache operation rather than as an
    opaque crash at ``import repro`` time.
    """
    global _TREE_CACHE
    c = _TREE_CACHE
    if c is None:
        c = _TREE_CACHE = _TreeLRU(_env_cache_size())
    return c


def tree_cache_info() -> dict[str, int]:
    """Hit/miss/eviction counters of the shared tree-structure cache."""
    return _cache().info()


def tree_cache_clear() -> None:
    """Drop all cached tree structures and reset the counters."""
    _cache().clear()


def tree_cache_reset_counters() -> None:
    """Zero the hit/miss/eviction counters but keep the cached entries.

    Benchmarks use this between sections so each section reports its own
    stats (a warm section's hit rate is not diluted by the cold section's
    compulsory misses) without giving up the warmed cache.
    """
    _cache().reset_counters()


def tree_cache_resize(maxsize: int) -> None:
    """Change the cache capacity (evicts LRU entries if shrinking)."""
    _cache().resize(maxsize)


def tree_cache_hit_rate() -> float:
    """Lifetime hit rate of the shared cache (0.0 when never consulted)."""
    c = _cache()
    lookups = c.hits + c.misses
    return c.hits / lookups if lookups else 0.0


def _resolve_scheme(scheme: str, n_others: int, hybrid_threshold: int) -> str:
    """Collapse ``hybrid`` onto the branch it takes for this group size."""
    if scheme == "hybrid":
        return "flat" if n_others + 1 <= hybrid_threshold else "shifted"
    return scheme


def canonical_tree_key(
    scheme: str,
    root: int,
    others: tuple[int, ...],
    seed: int,
    *,
    hybrid_threshold: int = 8,
) -> tuple:
    """Canonical identity of one concrete tree: two collectives with the
    same key build the same tree.

    ``others`` is the sorted non-root participant tuple.  For ``shifted``
    the seed only matters through the rotation offset; for ``randperm``
    through the permutation; the deterministic schemes drop it entirely.

    Compatibility shim: this is no longer the *cache* key (which would
    make the keyspace scale with the number of distinct (root,
    participants) pairs and thrash the LRU) -- the cache keys on
    :func:`structure_tree_key`, which drops the absolute ranks.  This
    function remains the equality predicate for "would these two calls
    return the same tree", which planners and tests still rely on.
    """
    scheme = _resolve_scheme(scheme, len(others), hybrid_threshold)
    if scheme == "shifted":
        return ("shifted", root, others, rotation_offset(seed, len(others)))
    if scheme == "randperm":
        return ("randperm", root, others, permutation_indices(seed, len(others)))
    if scheme in ("flat", "binary", "binomial"):
        return (scheme, root, others)
    raise ValueError(
        f"unknown tree scheme {scheme!r}; expected one of {TREE_SCHEMES}"
    )


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


# Positional-shape family per resolved scheme (shifted/randperm only
# reorder the ranks laid onto the binary shape).
_FAMILY_OF = {
    "flat": "flat",
    "binary": "binary",
    "binomial": "binomial",
    "shifted": "binary",
    "randperm": "binary",
}


def _build_structure(key: tuple) -> _TreeStructure:
    """Construct the rank-free structure for a structural key (miss path)."""
    scheme, p, extra = key
    family = _FAMILY_OF[scheme]
    kids, par = _POSITION_SHAPES[family](p)
    return _TreeStructure(
        family=family,
        size=p,
        child_counts=kids,
        parent_pos=par,
        max_degree=int(kids.max()) if p else 0,
        offset=extra if scheme == "shifted" else 0,
        perm=extra if scheme == "randperm" else None,
    )


def tree_arrays(
    scheme: str,
    root: int,
    participants: Iterable[int],
    seed: int = 0,
    *,
    hybrid_threshold: int = 8,
) -> TreeArrays:
    """Cached array view of one communication tree (any scheme).

    The path :func:`build_tree` goes through (the unsymmetric driver's
    tag dispatch, the plan checker and the reference volume engine).  The cache holds
    rank-free :class:`_TreeStructure` entries keyed by
    :func:`structure_tree_key`; the caller's concrete ranks are laid onto
    the cached structure by a cheap relabeling step.  Bit-identical in shape to the dict-based
    scheme constructors (pinned by regression tests); repeated calls with
    the same arguments return equal ``TreeArrays`` whose shape arrays
    (``parent_pos``/``child_counts``) are shared instances.
    """
    root = int(root)
    others = tuple(_normalize(root, participants))
    key = structure_tree_key(
        scheme, len(others), seed, hybrid_threshold=hybrid_threshold
    )
    cache = _cache()
    struct_ = cache.get(key)
    if struct_ is None:
        struct_ = _build_structure(key)
        cache.put(key, struct_)
    return struct_.relabel(root, others)


@lru_cache(maxsize=4096)
def _child_counts_list(family: str, p: int) -> list[int]:
    """Per-position out-degrees of one positional shape as a plain list.

    The vectorized reduce state machines copy this once per collective to
    seed their pending counters; sharing the memo keeps that copy a C-level
    ``list()`` call instead of an ndarray round trip.
    """
    kids, _ = _POSITION_SHAPES[family](p)
    return kids.tolist()


class CompiledTree:
    """One tree compiled for the vectorized collective state machines.

    Where :class:`TreeArrays` is an ndarray view (behind
    :func:`build_tree`), this is the DES hot-path format: plain Python
    lists indexed by construction-order position, sharing the per-shape
    CSR adjacency, parent-position, and child-count memos across every
    tree of the same family and size.  ``ranks[i]`` is the rank at position ``i`` (root at
    position 0); ``indptr``/``childpos`` give each position's children in
    ascending position -- the exact forwarding order of the dict-based
    builders.
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
        self.root = root
        self.ranks = ranks
        self.size = p
        self.family = family
        self.indptr, self.childpos = _children_csr(family, p)
        self.parentpos = _parent_positions(family, p)
        self.child_counts = _child_counts_list(family, p)

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges."""
        return _shape_depth(self.family, self.size)


def compiled_tree(
    scheme: str,
    root: int,
    participants: Sequence[int],
    seed: int = 0,
    *,
    hybrid_threshold: int = 8,
) -> CompiledTree:
    """Cached :class:`CompiledTree` for one collective (any scheme).

    ``participants`` is expected in the planner's canonical form: a
    sorted tuple that includes the root (``CollectiveSpec.participants``).
    The structure comes from the same :func:`structure_tree_key` cache as
    :func:`tree_arrays` (so DES lookups show in :func:`tree_cache_info`),
    and the orderings produced are bit-identical to :func:`tree_arrays` /
    :func:`build_tree` for the same arguments (pinned by tests); only the
    container types differ.
    """
    root = int(root)
    i = participants.index(root)
    others = participants[:i] + participants[i + 1 :]
    key = structure_tree_key(
        scheme, len(others), seed, hybrid_threshold=hybrid_threshold
    )
    cache = _cache()
    struct_ = cache.get(key)
    if struct_ is None:
        struct_ = _build_structure(key)
        cache.put(key, struct_)
    return CompiledTree(root, struct_.order(root, others), struct_.family)


def build_tree(
    scheme: str,
    root: int,
    participants: Iterable[int],
    seed: int = 0,
    *,
    hybrid_threshold: int = 8,
) -> CommTree:
    """Dict-based tree for the unsymmetric driver's tag dispatch, the plan
    checker and the reference volume engine.

    Goes through the shared :func:`tree_arrays` cache and materializes the
    dict-based :class:`CommTree` view on top (identical trees to the
    per-scheme constructors above, which remain the spec).
    """
    return tree_arrays(
        scheme, root, participants, seed, hybrid_threshold=hybrid_threshold
    ).to_comm_tree()


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
