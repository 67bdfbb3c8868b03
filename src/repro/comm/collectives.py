"""Asynchronous restricted collectives over point-to-point messages.

State machines that move data along a :class:`~repro.comm.trees.CommTree`
using only the machine's non-blocking sends -- the software equivalent of
building ``MPI_Bcast`` / ``MPI_Reduce`` out of ``MPI_Isend`` /
``MPI_Irecv`` as the paper does.  Any number of instances can be in
flight simultaneously; progress is purely message-driven, which is what
lets PSelInv pipeline supernodes without barriers.

In numeric mode payloads are ndarrays and reductions really sum; in
symbolic (timing/volume-only) mode payloads are ``None`` and reductions
just count.

Two implementations of the same state machines:

* :class:`VecBroadcast` / :class:`VecReduce`, compiled against
  :class:`~repro.comm.trees.CompiledTree` tables and driven through the
  machine's point route (``send_pt``).  The symmetric protocol runs on
  them on both engines.
* :class:`TreeBroadcast` / :class:`TreeReduce` over dict-based
  :class:`~repro.comm.trees.CommTree` trees and
  :class:`~repro.simulate.machine.Message` handlers: the per-rank tag
  dispatch of the unsymmetric driver, on the heapq machine only.
"""

from __future__ import annotations

from typing import Any, Callable

from ..simulate.machine import Machine, Message
from .trees import CommTree, CompiledTree, _child_counts_list, _shape_depth

__all__ = [
    "TreeBroadcast",
    "TreeReduce",
    "VecBroadcast",
    "VecReduce",
    "record_shapes",
]


def _require_hashable_tag(tag: Any) -> Any:
    """Fail fast on unhashable tags.

    Tags key the machine's channel bookkeeping and the protocol layers'
    collective registries; an unhashable tag would otherwise surface as
    an opaque ``dict`` TypeError deep inside :class:`Machine` on the
    first forwarded message.
    """
    try:
        hash(tag)
    except TypeError:
        raise TypeError(
            f"collective tag must be hashable, got {type(tag).__name__}: "
            f"{tag!r}"
        ) from None
    return tag


class TreeBroadcast:
    """One restricted broadcast: root pushes, internal nodes forward.

    ``on_delivery(rank, payload)`` fires on every participant (including
    the root) once the data is locally available.  Forwarding costs the
    forwarder NIC time via :meth:`Machine.post_send`; the receive-side
    overhead is charged by the machine itself.
    """

    def __init__(
        self,
        machine: Machine,
        tree: CommTree,
        tag: Any,
        nbytes: int,
        category: str,
        on_delivery: Callable[[int, Any], None],
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = _require_hashable_tag(tag)
        self.nbytes = int(nbytes)
        self.category = category
        self.on_delivery = on_delivery
        self._started = False

    def start(self, payload: Any = None) -> None:
        """Called (once) on the root when its data is ready."""
        if self._started:
            raise RuntimeError(f"broadcast {self.tag!r} started twice")
        self._started = True
        self._forward(self.tree.root, payload)

    def on_message(self, msg: Message) -> None:
        """Handler entry point: a tree parent forwarded us the payload."""
        self._forward(msg.dst, msg.payload)

    def _forward(self, rank: int, payload: Any) -> None:
        for child in self.tree.children.get(rank, ()):
            self.machine.post_send(
                rank, child, self.tag, self.nbytes, self.category, payload
            )
        self.on_delivery(rank, payload)


class TreeReduce:
    """One restricted reduction: contributions combine leaves -> root.

    Every rank in ``contributors`` must eventually call
    :meth:`contribute` exactly once; tree-internal ranks combine child
    messages with their own contribution (if any) and send the partial
    result to their parent.  ``on_complete(value)`` fires on the root.

    ``combine`` defaults to ``+`` for ndarray payloads and is skipped for
    ``None`` payloads (symbolic mode).
    """

    def __init__(
        self,
        machine: Machine,
        tree: CommTree,
        tag: Any,
        nbytes: int,
        category: str,
        contributors: set[int],
        on_complete: Callable[[Any], None],
        combine: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = _require_hashable_tag(tag)
        self.nbytes = int(nbytes)
        self.category = category
        self.contributors = set(int(r) for r in contributors)
        self.on_complete = on_complete
        self.combine = combine
        unknown = self.contributors - set(tree.ranks())
        if unknown:
            raise ValueError(
                f"reduce {self.tag!r}: contributors {sorted(unknown)} "
                "not in the tree"
            )
        # Per-rank progress: how many inputs are still outstanding and the
        # running partial value.
        self._pending: dict[int, int] = {}
        self._value: dict[int, Any] = {}
        self._done: dict[int, bool] = {}
        for r in tree.ranks():
            expected = tree.child_count(r) + (1 if r in self.contributors else 0)
            self._pending[r] = expected
            self._value[r] = None
            self._done[r] = False
            if expected == 0:
                # A pure relay with no children and no contribution can
                # only happen for a degenerate tree; fire immediately.
                self._finish(r)

    def contribute(self, rank: int, value: Any = None) -> None:
        """Provide ``rank``'s local contribution (exactly once)."""
        if rank not in self.contributors:
            raise ValueError(
                f"reduce {self.tag!r}: rank {rank} is not a contributor"
            )
        self._absorb(rank, value)

    def on_message(self, msg: Message) -> None:
        """Handler entry point: a child sent us its partial result."""
        self._absorb(msg.dst, msg.payload)

    def _absorb(self, rank: int, value: Any) -> None:
        if self._done[rank]:
            raise RuntimeError(
                f"reduce {self.tag!r}: input after completion at rank {rank}"
            )
        cur = self._value[rank]
        if cur is None:
            self._value[rank] = value
        elif value is not None:
            fn = self.combine if self.combine is not None else (lambda a, b: a + b)
            self._value[rank] = fn(cur, value)
        self._pending[rank] -= 1
        if self._pending[rank] == 0:
            self._finish(rank)

    def _finish(self, rank: int) -> None:
        self._done[rank] = True
        if rank == self.tree.root:
            self.on_complete(self._value[rank])
        else:
            self.machine.post_send(
                rank,
                self.tree.parent[rank],
                self.tag,
                self.nbytes,
                self.category,
                self._value[rank],
            )


# ---------------------------------------------------------------------------
# Compiled collectives (the symmetric protocol's layer, on both engines)
#
# The same state machines as above, compiled against a
# :class:`~repro.comm.trees.CompiledTree`:
#
# * positions, adjacency and child counts come straight from the
#   per-shape memos (shared across every tree of the same family and
#   size);
# * forwarded messages travel on the machine's point route
#   (:meth:`~repro.simulate.machine.Machine.send_pt`) with the
#   receiver's tree position in ``aux`` and a direct delivery callback,
#   so a delivery routes straight back into the collective without any
#   per-rank tag dispatch;
# * completion callbacks receive a caller-supplied ``ctx`` object, so the
#   protocol layer binds no lambdas per collective;
# * reductions are driven by contributor *positions* precomputed by the
#   protocol (:meth:`VecReduce.contribute_pos`), with no per-call rank ->
#   position lookup;
# * every fan-out, flat and hybrid trees' wide ones included, is one
#   point send per child, in ascending child position;
# * the ``coll.*`` telemetry series come from the tree shapes: with
#   metrics attached, each collective bumps one
#   ``(op, category, family, size, nbytes)`` count in the machine's
#   ``coll_shapes`` dict when it is built, and :func:`record_shapes`
#   turns the counts into series after the drain.  A run that returns
#   has completed every collective, so the totals equal per-message
#   tallies (all ints, so exactly).
#
# Send order, combine order, finish order and degenerate-tree behavior
# match the dict-based classes (children forward in ascending position =
# the dict builders' append order; zero-input positions finish at
# construction in ascending position).
# ---------------------------------------------------------------------------

def record_shapes(metrics, counts: dict) -> None:
    """Emit the ``coll.*`` series of every counted collective shape: the
    depth, one fan-out observation per position, and one forwarded
    message of ``nbytes`` per tree edge, each times the shape's count."""
    for (op, category, family, size, nbytes), n in counts.items():
        metrics.histogram("coll.depth", op=op, category=category).observe(
            _shape_depth(family, size), n
        )
        fanout = metrics.histogram("coll.fanout", op=op, category=category)
        degrees: dict[int, int] = {}
        for c in _child_counts_list(family, size):
            degrees[c] = degrees.get(c, 0) + 1
        for c, m in degrees.items():
            fanout.observe(c, m * n)
        edges = (size - 1) * n
        metrics.counter("coll.forwarded_messages", op=op, category=category).inc(
            edges
        )
        metrics.counter("coll.forwarded_bytes", op=op, category=category).inc(
            edges * nbytes
        )


def _count_shape(counts: dict, op: str, category: str, tree: CompiledTree,
                 nbytes: int) -> None:
    key = (op, category, tree.family, tree.size, nbytes)
    counts[key] = counts.get(key, 0) + 1


class VecBroadcast:
    """Restricted broadcast over a :class:`CompiledTree`.

    ``on_delivery(ctx, rank, payload)`` fires on every participant
    (including the root) once the data is locally available.
    """

    __slots__ = (
        "machine",
        "tree",
        "tag",
        "nbytes",
        "cid",
        "on_delivery",
        "ctx",
        "_started",
        "_ranks",
        "_indptr",
        "_childpos",
        "_send",
    )

    def __init__(
        self,
        machine,
        tree: CompiledTree,
        tag: Any,
        nbytes: int,
        category: str,
        on_delivery: Callable[[Any, int, Any], None],
        ctx: Any,
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = tag
        self.nbytes = int(nbytes)
        self.cid = machine.category_id(category)
        self.on_delivery = on_delivery
        self.ctx = ctx
        self._started = False
        self._ranks = tree.ranks
        self._indptr = tree.indptr
        self._childpos = tree.childpos
        # The machine's send closures exist before any collective does,
        # so they can be captured once per collective instead of looked
        # up per forwarded message.  The delivery callback is bound per
        # send instead: a cached bound method would be a reference cycle
        # that keeps every finished collective alive while the drain
        # pauses the cyclic collector.
        self._send = machine.send_pt
        if machine.coll_shapes is not None:
            _count_shape(machine.coll_shapes, "bcast", category, tree, self.nbytes)

    def start(self, payload: Any = None) -> None:
        """Called (once) on the root when its data is ready."""
        if self._started:
            raise RuntimeError(f"broadcast {self.tag!r} started twice")
        self._started = True
        self.on_message(self._ranks[0], payload, 0)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a tree parent forwarded us the payload."""
        indptr = self._indptr
        lo = indptr[aux]
        hi = indptr[aux + 1]
        if hi > lo:
            ranks = self._ranks
            childpos = self._childpos
            send = self._send
            tag = self.tag
            nbytes = self.nbytes
            cid = self.cid
            om = self.on_message
            for ci in range(lo, hi):
                child = childpos[ci]
                send(dst, ranks[child], tag, nbytes, cid, om, child, payload)
        self.on_delivery(self.ctx, dst, payload)


class VecReduce:
    """Restricted reduction over a :class:`CompiledTree`.

    The protocol layer supplies contributor *positions* up front and
    drives progress through :meth:`contribute_pos`; per-position pending
    counters start from the shared child-count list.  Values (numeric
    mode) combine with ``+`` in arrival order, exactly like
    :class:`TreeReduce`; ``None`` values (symbolic mode) only count.
    ``on_complete(ctx, value)`` fires on the root.  Zero-input positions
    (degenerate trees) finish at construction in ascending position
    order.
    """

    __slots__ = (
        "machine",
        "tree",
        "tag",
        "nbytes",
        "cid",
        "on_complete",
        "ctx",
        "_ranks",
        "_parents",
        "_pending",
        "_value",
        "_send",
    )

    def __init__(
        self,
        machine,
        tree: CompiledTree,
        tag: Any,
        nbytes: int,
        category: str,
        contributor_pos,
        on_complete: Callable[[Any, Any], None],
        ctx: Any,
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = tag
        self.nbytes = int(nbytes)
        self.cid = machine.category_id(category)
        self.on_complete = on_complete
        self.ctx = ctx
        self._ranks = tree.ranks
        self._parents = tree.parentpos
        pending = list(tree.child_counts)
        for p in contributor_pos:
            pending[p] += 1
        self._pending = pending
        # Partial value per position, allocated by the first value.
        self._value: list[Any] | None = None
        self._send = machine.send_pt
        if machine.coll_shapes is not None:
            _count_shape(machine.coll_shapes, "reduce", category, tree, self.nbytes)
        for i, expected in enumerate(pending):
            if expected == 0:
                # A pure relay with no children and no contribution can
                # only happen for a degenerate tree; fire immediately.
                self._finish(i)

    def contribute_pos(self, pos: int, value: Any = None) -> None:
        """Provide the contribution of the rank at ``pos`` (exactly once)."""
        if value is not None:
            self._combine(pos, value)
        pending = self._pending
        n = pending[pos] - 1
        pending[pos] = n
        if n == 0:
            self._finish(pos)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a child sent us its partial result."""
        if payload is not None:
            self._combine(aux, payload)
        pending = self._pending
        n = pending[aux] - 1
        pending[aux] = n
        if n == 0:
            self._finish(aux)

    def _combine(self, pos: int, value: Any) -> None:
        vals = self._value
        if vals is None:
            vals = self._value = [None] * len(self._pending)
        cur = vals[pos]
        vals[pos] = value if cur is None else cur + value

    def _finish(self, pos: int) -> None:
        vals = self._value
        value = None if vals is None else vals[pos]
        if pos:
            parent = self._parents[pos]
            ranks = self._ranks
            self._send(
                ranks[pos],
                ranks[parent],
                self.tag,
                self.nbytes,
                self.cid,
                self.on_message,
                parent,
                value,
            )
        else:
            self.on_complete(self.ctx, value)
