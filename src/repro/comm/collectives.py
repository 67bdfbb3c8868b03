"""Asynchronous restricted collectives over point-to-point messages.

State machines that move data along a compiled communication tree using
only the machine's non-blocking sends -- the software equivalent of
building ``MPI_Bcast`` / ``MPI_Reduce`` out of ``MPI_Isend`` /
``MPI_Irecv`` as the paper does.  Any number of instances can be in
flight simultaneously; progress is purely message-driven, which is what
lets PSelInv pipeline supernodes without barriers.  Both drivers, on
both machines, run on these two classes.

In numeric mode payloads are ndarrays and reductions really sum; in
symbolic (timing/volume-only) mode payloads are ``None`` and reductions
just count.

:class:`VecBroadcast` / :class:`VecReduce` are compiled against a
:class:`~repro.comm.trees.CompiledTree`:

* positions, adjacency and child counts come straight from the tree's
  positional shape (one record shared across every tree of the same
  family and size);
* forwarded messages travel on the machine's point route
  (:meth:`~repro.simulate.machine.Machine.send_pt`) with the receiver's
  tree position in ``aux`` and a direct delivery callback, so a delivery
  routes straight back into the collective without any per-rank tag
  dispatch;
* delivery and completion callbacks receive a caller-supplied ``ctx``
  object, so the protocol layer binds no lambdas per collective;
* reductions are driven by contributor *positions* precomputed by the
  protocol, each with its number of local tasks (a PSelInv rank's GEMMs
  of one row, say): :meth:`VecReduce.contribute_pos` is called once per
  finished local task, with no per-call rank -> position lookup, and a
  position sends up the tree once its children and all its local tasks
  are in;
* every fan-out, flat and hybrid trees' wide ones included, is one point
  send per child, in ascending child position (the order in which
  :func:`~repro.comm.trees.build_tree` lists a rank's children), and a
  broadcast forwards before it delivers locally;
* reductions combine with ``+`` in arrival order: a position's local
  values sum into a local partial, which joins the tree value as one
  term when its last local task finishes; zero-input positions (a
  degenerate tree's leaf relays) finish at construction in ascending
  position;
* the ``coll.*`` telemetry series come from the tree shapes: with metrics
  attached, each collective bumps one ``(op, category, family, size,
  nbytes)`` count in the machine's ``coll_shapes`` dict when it is
  built, and :func:`record_shapes` turns the counts into series after
  the drain.  A run that returns has completed every collective, so the
  totals equal per-message tallies (all ints, so exactly).
"""

from __future__ import annotations

from typing import Any, Callable

from .trees import CompiledTree, _shape

__all__ = [
    "VecBroadcast",
    "VecReduce",
    "record_shapes",
]


def record_shapes(metrics, counts: dict) -> None:
    """Emit the ``coll.*`` series of every counted collective shape: the
    depth, one fan-out observation per position, and one forwarded
    message of ``nbytes`` per tree edge, each times the shape's count."""
    for (op, category, family, size, nbytes), n in counts.items():
        shape = _shape(family, size)
        metrics.histogram("coll.depth", op=op, category=category).observe(
            shape.depth, n
        )
        fanout = metrics.histogram("coll.fanout", op=op, category=category)
        degrees: dict[int, int] = {}
        for c in shape.counts:
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

    The protocol layer supplies contributor *positions* up front, each
    with its number of local tasks, and drives progress through
    :meth:`contribute_pos`, once per finished local task.  Per-position
    pending counters start from the shared child-count list plus the
    local task counts, so a position sends its partial up the tree (or
    the root completes) once its children's messages and all its local
    tasks are in.  In numeric mode a position's local values sum in
    arrival order into a local partial, which joins the tree value with
    ``+`` as one term when the last local task finishes; children's
    partials join with ``+`` in arrival order.  ``None`` values
    (symbolic mode) only count.
    ``on_complete(ctx, value)`` fires on the root.  Zero-input positions
    (degenerate trees) finish at construction in ascending position
    order.  ``contributor_pos`` and ``task_counts`` are read, not
    copied, by the first value, so the caller must not change them.
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
        "_tasks",
        "_left",
        "_local",
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
        task_counts,
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
        for p, n in zip(contributor_pos, task_counts):
            pending[p] += n
        self._pending = pending
        # Numeric values only: outstanding local tasks per position, their
        # running local sums, and the tree value per position, allocated
        # by the first value (symbolic runs never build them).
        self._tasks = (contributor_pos, task_counts)
        self._left: list[int] | None = None
        self._local: list[Any] | None = None
        self._value: list[Any] | None = None
        self._send = machine.send_pt
        if machine.coll_shapes is not None:
            _count_shape(machine.coll_shapes, "reduce", category, tree, self.nbytes)
        if 0 in pending:
            for i, expected in enumerate(pending):
                if expected == 0:
                    # A pure relay with no children and no contribution
                    # can only happen for a degenerate tree; fire
                    # immediately.
                    self._finish(i)

    def contribute_pos(self, pos: int, value: Any = None) -> None:
        """One local task of the rank at ``pos`` finished, with its
        ``value`` (``None`` in symbolic mode)."""
        if value is not None:
            self._add_local(pos, value)
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

    def _add_local(self, pos: int, value: Any) -> None:
        local = self._local
        if local is None:
            size = len(self._pending)
            local = self._local = [None] * size
            left = self._left = [0] * size
            for p, n in zip(*self._tasks):
                left[p] += n
        cur = local[pos]
        if cur is not None:
            value = cur + value
        left = self._left
        n = left[pos] - 1
        left[pos] = n
        if n:
            local[pos] = value
        else:
            local[pos] = None
            self._combine(pos, value)

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
