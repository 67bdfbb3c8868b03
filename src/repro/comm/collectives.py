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
"""

from __future__ import annotations

from typing import Any, Callable

from ..simulate.machine import Machine, Message
from .trees import CommTree, CompiledTree, TreeArrays

__all__ = ["TreeBroadcast", "TreeReduce", "ArrayBroadcast", "ArrayReduce"]


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
        # Telemetry instruments, cached once per collective (the machine
        # carries the registry; None disables at one attribute test).
        metrics = machine.metrics
        if metrics is not None:
            metrics.histogram("coll.depth", op="bcast", category=category).observe(
                tree.depth()
            )
            self._fanout = metrics.histogram(
                "coll.fanout", op="bcast", category=category
            )
            self._forwards = metrics.counter(
                "coll.forwarded_messages", op="bcast", category=category
            )
            self._forward_bytes = metrics.counter(
                "coll.forwarded_bytes", op="bcast", category=category
            )
        else:
            self._fanout = None
            self._forwards = None
            self._forward_bytes = None

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
        children = self.tree.children.get(rank, ())
        for child in children:
            self.machine.post_send(
                rank, child, self.tag, self.nbytes, self.category, payload
            )
        if self._fanout is not None:
            self._fanout.observe(len(children))
            if children:
                self._forwards.inc(len(children))
                self._forward_bytes.inc(len(children) * self.nbytes)
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
        metrics = machine.metrics
        if metrics is not None:
            metrics.histogram("coll.depth", op="reduce", category=category).observe(
                tree.depth()
            )
            self._fanin = metrics.histogram(
                "coll.fanout", op="reduce", category=category
            )
            self._forwards = metrics.counter(
                "coll.forwarded_messages", op="reduce", category=category
            )
            self._forward_bytes = metrics.counter(
                "coll.forwarded_bytes", op="reduce", category=category
            )
        else:
            self._fanin = None
            self._forwards = None
            self._forward_bytes = None
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
        if self._fanin is not None:
            # Fan-in degree: messages this rank absorbed from children.
            self._fanin.observe(self.tree.child_count(rank))
        if rank == self.tree.root:
            self.on_complete(self._value[rank])
        else:
            if self._forwards is not None:
                self._forwards.inc()
                self._forward_bytes.inc(self.nbytes)
            self.machine.post_send(
                rank,
                self.tree.parent[rank],
                self.tag,
                self.nbytes,
                self.category,
                self._value[rank],
            )


# ---------------------------------------------------------------------------
# Array-based collectives (the batch engine's protocol layer)
#
# Same state machines as above, but over a positional tree view
# (:class:`~repro.comm.trees.TreeArrays`, or the
# :class:`~repro.comm.trees.CompiledTree` the vectorized engine caches --
# both answer the same four accessors): ranks are looked up by
# construction-order *position*, adjacency comes from the shared per-shape
# CSR memo (no per-tree dicts), and every forwarded message carries the
# receiver's position in the machine's ``aux`` slot together with a direct
# delivery callback -- so a delivery routes straight back into the
# collective without any per-rank tag dispatch.  Send order, combine
# order, and error behavior replicate the dict-based classes exactly
# (children forward in ascending position = the dict builders' append
# order), which is what keeps batch-engine runs bit-identical.
# ---------------------------------------------------------------------------


class ArrayBroadcast:
    """Restricted broadcast over a :class:`TreeArrays` shape.

    The batch-engine counterpart of :class:`TreeBroadcast`: messages
    carry the child's tree position in ``aux`` and deliver through
    :meth:`on_message` directly, so forwarding is three list indexings
    and a fast-path send per child.
    """

    __slots__ = (
        "machine",
        "arrays",
        "tag",
        "nbytes",
        "category",
        "cid",
        "on_delivery",
        "_started",
        "_ranks",
        "_indptr",
        "_childpos",
        "_fanout",
        "_forwards",
        "_forward_bytes",
    )

    def __init__(
        self,
        machine,
        arrays: TreeArrays | CompiledTree,
        tag: Any,
        nbytes: int,
        category: str,
        on_delivery: Callable[[int, Any], None],
    ) -> None:
        self.machine = machine
        self.arrays = arrays
        self.tag = _require_hashable_tag(tag)
        self.nbytes = int(nbytes)
        self.category = category
        self.cid = machine.category_id(category)
        self.on_delivery = on_delivery
        self._started = False
        self._ranks = arrays.ranks_list()
        self._indptr, self._childpos = arrays.children_csr()
        metrics = machine.metrics
        if metrics is not None:
            metrics.histogram("coll.depth", op="bcast", category=category).observe(
                arrays.depth()
            )
            self._fanout = metrics.histogram(
                "coll.fanout", op="bcast", category=category
            )
            self._forwards = metrics.counter(
                "coll.forwarded_messages", op="bcast", category=category
            )
            self._forward_bytes = metrics.counter(
                "coll.forwarded_bytes", op="bcast", category=category
            )
        else:
            self._fanout = None
            self._forwards = None
            self._forward_bytes = None

    def start(self, payload: Any = None) -> None:
        """Called (once) on the root when its data is ready."""
        if self._started:
            raise RuntimeError(f"broadcast {self.tag!r} started twice")
        self._started = True
        self._forward_pos(0, payload)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a tree parent forwarded us the payload."""
        self._forward_pos(aux, payload)

    def _forward_pos(self, pos: int, payload: Any) -> None:
        indptr = self._indptr
        lo = indptr[pos]
        hi = indptr[pos + 1]
        ranks = self._ranks
        rank = ranks[pos]
        if hi > lo:
            send = self.machine.send
            childpos = self._childpos
            tag = self.tag
            nbytes = self.nbytes
            cid = self.cid
            om = self.on_message
            for ci in range(lo, hi):
                child = childpos[ci]
                send(rank, ranks[child], tag, nbytes, cid, payload, om, child)
        if self._fanout is not None:
            self._fanout.observe(hi - lo)
            if hi > lo:
                self._forwards.inc(hi - lo)
                self._forward_bytes.inc((hi - lo) * self.nbytes)
        self.on_delivery(rank, payload)


class ArrayReduce:
    """Restricted reduction over a :class:`TreeArrays` shape.

    The batch-engine counterpart of :class:`TreeReduce`: per-position
    progress lives in flat lists, partials flow child -> parent with the
    parent's position in ``aux``, and only :meth:`contribute` pays for a
    rank -> position lookup (one small dict per collective).
    """

    __slots__ = (
        "machine",
        "arrays",
        "tag",
        "nbytes",
        "category",
        "cid",
        "contributors",
        "on_complete",
        "combine",
        "_ranks",
        "_pos_of",
        "_indptr",
        "_parents",
        "_pending",
        "_value",
        "_done",
        "_fanin",
        "_forwards",
        "_forward_bytes",
    )

    def __init__(
        self,
        machine,
        arrays: TreeArrays | CompiledTree,
        tag: Any,
        nbytes: int,
        category: str,
        contributors: set[int],
        on_complete: Callable[[Any], None],
        combine: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        self.machine = machine
        self.arrays = arrays
        self.tag = _require_hashable_tag(tag)
        self.nbytes = int(nbytes)
        self.category = category
        self.cid = machine.category_id(category)
        self.contributors = set(int(r) for r in contributors)
        self.on_complete = on_complete
        self.combine = combine
        ranks = arrays.ranks_list()
        self._ranks = ranks
        self._pos_of = {r: i for i, r in enumerate(ranks)}
        self._indptr, _ = arrays.children_csr()
        self._parents = arrays.parent_positions()
        metrics = machine.metrics
        if metrics is not None:
            metrics.histogram("coll.depth", op="reduce", category=category).observe(
                arrays.depth()
            )
            self._fanin = metrics.histogram(
                "coll.fanout", op="reduce", category=category
            )
            self._forwards = metrics.counter(
                "coll.forwarded_messages", op="reduce", category=category
            )
            self._forward_bytes = metrics.counter(
                "coll.forwarded_bytes", op="reduce", category=category
            )
        else:
            self._fanin = None
            self._forwards = None
            self._forward_bytes = None
        unknown = self.contributors - set(ranks)
        if unknown:
            raise ValueError(
                f"reduce {self.tag!r}: contributors {sorted(unknown)} "
                "not in the tree"
            )
        p = len(ranks)
        indptr = self._indptr
        contrib = self.contributors
        pending = [0] * p
        self._pending = pending
        self._value: list[Any] = [None] * p
        self._done = [False] * p
        for i in range(p):
            expected = indptr[i + 1] - indptr[i] + (1 if ranks[i] in contrib else 0)
            pending[i] = expected
            if expected == 0:
                # A pure relay with no children and no contribution can
                # only happen for a degenerate tree; fire immediately.
                self._finish(i)

    def contribute(self, rank: int, value: Any = None) -> None:
        """Provide ``rank``'s local contribution (exactly once)."""
        if rank not in self.contributors:
            raise ValueError(
                f"reduce {self.tag!r}: rank {rank} is not a contributor"
            )
        self._absorb(self._pos_of[rank], value)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a child sent us its partial result."""
        self._absorb(aux, payload)

    def _absorb(self, pos: int, value: Any) -> None:
        if self._done[pos]:
            raise RuntimeError(
                f"reduce {self.tag!r}: input after completion at rank "
                f"{self._ranks[pos]}"
            )
        cur = self._value[pos]
        if cur is None:
            self._value[pos] = value
        elif value is not None:
            fn = self.combine if self.combine is not None else (lambda a, b: a + b)
            self._value[pos] = fn(cur, value)
        pending = self._pending
        pending[pos] -= 1
        if pending[pos] == 0:
            self._finish(pos)

    def _finish(self, pos: int) -> None:
        self._done[pos] = True
        if self._fanin is not None:
            indptr = self._indptr
            self._fanin.observe(indptr[pos + 1] - indptr[pos])
        if pos == 0:
            self.on_complete(self._value[0])
        else:
            if self._forwards is not None:
                self._forwards.inc()
                self._forward_bytes.inc(self.nbytes)
            parent = self._parents[pos]
            ranks = self._ranks
            self.machine.send(
                ranks[pos],
                ranks[parent],
                self.tag,
                self.nbytes,
                self.cid,
                self._value[pos],
                self.on_message,
                parent,
            )
