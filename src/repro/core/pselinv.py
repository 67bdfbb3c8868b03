"""Simulated parallel selected inversion (PSelInv) -- paper §II-B / §III.

Runs the asynchronous, message-driven PSelInv dataflow on the simulated
machine, with every restricted collective routed along the configured
tree scheme.  There are no barriers: exactly as in the paper,
synchronization is imposed only through data dependencies, so supernodes
on disjoint critical paths of the elimination tree pipeline freely.

Dataflow per supernode ``K`` (symmetric algorithm, Fig. 2 of the paper):

1.  *diag-bcast*  -- the diagonal-block owner broadcasts the packed LU of
    ``A(K,K)`` down grid column ``K mod Pc`` (first loop of Algorithm 1);
    each ``L(I,K)`` owner then normalizes its panel blocks:
    ``Lhat(I,K) = L(I,K) inv(L_KK)``.
2.  *cross-send* -- each ``Lhat(I,K)`` is sent to the owner of ``U(K,I)``
    which overwrites it with ``Lhat^T`` (symmetric case).
3.  *col-bcast*  -- ``Uhat(K,I)`` is broadcast down grid column
    ``I mod Pc`` to the owners of the ``Ainv(J,I)`` blocks, ``J in C``.
4.  *GEMM*       -- each such owner computes ``Ainv(J,I) Lhat(I,K)`` for
    its local blocks once both the broadcast payload and the (previously
    computed) ``Ainv(J,I)`` block are available.
5.  *row-reduce* -- partial sums for row ``J`` are reduced across grid row
    ``J mod Pr`` onto the owner of ``L(J,K)``, which negates to obtain
    ``Ainv(J,K)``.
6.  *col-reduce* -- diagonal contributions ``Lhat(J,K)^T Ainv(J,K)`` are
    reduced down grid column ``K mod Pc``; the diagonal owner finishes
    ``Ainv(K,K) = inv(U_KK) inv(L_KK) - sum``.
7.  *cross-back* -- ``Ainv(J,K)^T`` is sent to the owner of ``U(K,J)`` to
    populate the upper-triangle storage consumed by descendants.

Two modes share all protocol code:

* **numeric** (``factor`` given): payloads are real ndarrays; the final
  distributed blocks are gathered into a
  :class:`~repro.sparse.selinv.SelectedInverse` for oracle comparison.
* **symbolic** (``factor=None``): payloads are ``None``; only sizes, flop
  counts and the virtual clock matter.  This is the mode the large-scale
  strong-scaling experiments use.

One protocol, compiled, on either of two schedulers (``engine=``).  On
window entry every per-event quantity of a supernode (GEMM/normalize/diag
durations, send destinations, tags, readiness keys) is precomputed in
bulk with numpy, collectives run as
:class:`~repro.comm.collectives.VecBroadcast` /
:class:`~repro.comm.collectives.VecReduce` state machines over shared
:class:`~repro.comm.trees.CompiledTree` tables, and the handlers are
closure-free (registered task ids + tuple arguments).  A rank's GEMMs
of one row and its diagonal contributions are local tasks of their
reduction, which counts them and sums their values itself: each finished
task is one :meth:`~repro.comm.collectives.VecReduce.contribute_pos`
call, and the driver keeps no countdown.  Numeric payloads ride the same
point records (numeric tasks get their data wrapped onto the
precomputed argument, or onto the GEMM argument built at post time, and
a numeric handler variant under the same id).  The protocol speaks only the machine's compiled interface --
``category_id``, ``register_task``, ``send_pt`` and ``post_named`` --
which both machines implement:

* ``"vectorized"`` (default) -- :class:`~repro.simulate.machine.VecMachine`
  on the calendar-queue :class:`~repro.simulate.engine.VecSimulator`:
  fused per-message closures, the production scheduler.
* ``"legacy"`` -- :class:`~repro.simulate.machine.Machine` on the heapq
  :class:`~repro.simulate.engine.Simulator`, with per-message
  :class:`~repro.simulate.machine.Message` objects and its own cost
  arithmetic: the reference oracle for the scheduler and the machine.

Both produce bit-identical results -- same event count, same final
timestamps, same per-rank stats, the same numeric inverse -- which the
engine-equivalence tests, ``benchmarks/check_engine_identity.py`` and
``benchmarks/bench_runner_scaling.py`` assert.  Since the engines share
the protocol, those checks cover the scheduler and the machine; the
pinned outcome digests (``tests/test_pselinv_pinned.py``) cover the
protocol.  This driver and the unsymmetric one
(:mod:`repro.core.pselinv_unsym`, the same compiled interface and
collectives, on :class:`~repro.simulate.machine.VecMachine`) run on one
skeleton, :class:`_PSelInvDriver`: the window, the collective builders,
the ``Ainv`` readiness table (int keys ``row * nsup + col``), the
``diag-inv`` task, the numeric kernels and the result.  Every GEMM of
both takes its ``Ainv`` operand through
:meth:`_PSelInvDriver._ainv_operand`: a basic slice of the stored block
(made C-contiguous) whenever both sides are contiguous ranges, else one
open-mesh index, from block offsets computed once per numeric supernode
on window entry and a locator per stored off-diagonal block (``None``
when it is the identity; no search per GEMM).  The triangular solves go
straight to LAPACK ``?trtrs`` through
:func:`repro.sparse.factor._trsolve`, bit for bit scipy's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..comm.collectives import VecBroadcast, VecReduce, record_shapes
from ..comm.trees import CompiledTree, compiled_tree, tree_cache_info
from ..simulate.machine import CommStats, Machine, VecMachine
from ..simulate.network import Network, NetworkConfig
from ..sparse.factor import SupernodalFactor, _trsolve
from ..sparse.selinv import SelectedInverse
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import BYTES_PER_ENTRY, SupernodePlan, iter_plans
from .volume import collective_seed

__all__ = ["PSelInvResult", "SimulatedPSelInv", "run_pselinv"]

# The machine (and through it the scheduler) each engine runs on.
_MACHINES = {"vectorized": VecMachine, "legacy": Machine}


@dataclass
class PSelInvResult:
    """Outcome of one simulated selected inversion."""

    scheme: str
    grid: ProcessorGrid
    makespan: float
    stats: CommStats
    events: int
    numeric: bool
    # Mean over ranks of CPU-busy compute seconds and of everything else
    # (communication + idle) -- the paper's Fig. 9 breakdown.
    compute_time: float = 0.0
    communication_time: float = 0.0
    inverse: SelectedInverse | None = None


def _locate(loc: np.ndarray, offs: slice | np.ndarray) -> slice | np.ndarray:
    """Stored-block indices of the local offsets ``offs`` through the
    locator ``loc``; a range maps to the range that starts at its first
    offset's row (see :meth:`_PSelInvDriver._ainv_operand`)."""
    if offs.__class__ is slice:
        lo = int(loc[offs.start])
        return slice(lo, lo + offs.stop - offs.start)
    return loc[offs]


class _SupernodeState:
    """Mutable per-supernode bookkeeping (global in the simulation; every
    field is only touched by handlers running 'on' its owning rank).

    A supernode keeps after it finishes only what
    :meth:`_PSelInvDriver._gather_inverse` reads -- ``plan``,
    ``diag_value`` and ``ainv_low`` (plus the driver's ``ainv_data``) --
    and :meth:`release` drops the rest, so memory follows the lookahead
    window instead of the number of supernodes run.
    """

    __slots__ = (
        "plan",
        "lhat",
        "ainv_low",
        "base",
        "diag_value",
        "bcast_gemms",
        "rr_info",
        "norm_vec",
        "base_sec",
        "finish_sec",
        "offs",
        "segs",
    )

    def __init__(self, plan: SupernodePlan):
        self.plan = plan
        self.lhat: dict[int, Any] = {}  # I -> Lhat(I,K) at owner of L(I,K)
        self.ainv_low: dict[int, Any] = {}  # J -> Ainv(J,K) at owner L(J,K)
        self.base: Any = None  # inv(U_KK) inv(L_KK) at the diagonal owner
        self.diag_value: Any = None
        # Tables compiled on window entry (_setup_supernode_vec), which
        # also sets the diagonal task durations base_sec / finish_sec:
        # bcast_gemms is grid row (J mod Pr) * Pc -> (group, reds, jsn),
        # that row's block indices, the row reduction (with its rank ->
        # position map) and J * nsup of each block, shared by every
        # col-bcast delivered to a rank of that row; rr_info is J -> the
        # row-reduce completion's arguments; norm_vec is L-panel owner
        # rank -> [(normalize seconds, cross-send arguments)].  The GEMM
        # and diagonal-contribution countdowns live in the reductions
        # (VecReduce counts each contributor's local tasks).
        self.bcast_gemms: dict[int, tuple] | None = None
        self.rr_info: dict[int, tuple] | None = None
        self.norm_vec: dict[int, list] | None = None
        # Numeric runs only (_PSelInvDriver._block_offsets): I -> local
        # column offsets of block I's rows (a slice when contiguous), and
        # I -> its panel rows.
        self.offs: dict[int, slice | np.ndarray] | None = None
        self.segs: dict[int, slice] | None = None

    def release(self) -> None:
        """Drop the protocol's tables and the numeric panels of a
        finished supernode.  Late diag/col-bcast deliveries to relay
        ranks still look themselves up in ``norm_vec`` / ``bcast_gemms``,
        so those two become empty; ``rr_info``, ``lhat``, ``base`` and
        the block offsets become ``None``.  Dropping ``bcast_gemms`` and
        ``rr_info`` also drops the last references to the supernode's
        reductions."""
        self.bcast_gemms = {}
        self.norm_vec = {}
        self.rr_info = None
        self.lhat = None
        self.base = None
        self.offs = None
        self.segs = None


def _check_plans(
    plans: list, struct: SupernodalStructure, grid: ProcessorGrid,
    bytes_per_entry: int | None,
) -> None:
    """Reject caller-supplied plans of another problem, grid or entry size.

    One look per plan (O(nsup)), not a scan of every collective: the
    plan list must hold supernode ``k``'s plan at index ``k``, with the
    structure's width and ``grid``'s diagonal owner, and -- when
    ``bytes_per_entry`` is given (numeric runs, where the factor fixes
    it) -- a diagonal broadcast of ``width**2`` such entries.  Symbolic
    runs accept any entry size: 16-byte plans model a complex matrix.
    """
    if len(plans) != struct.nsup:
        raise ValueError(
            f"plans cover {len(plans)} supernodes; the structure has "
            f"{struct.nsup}"
        )
    for k, plan in enumerate(plans):
        if plan.k != k:
            raise ValueError(f"plans[{k}] is the plan of supernode {plan.k}")
        if plan.width != struct.width(k):
            raise ValueError(
                f"plan {k} has width {plan.width}; supernode {k} has "
                f"{struct.width(k)} columns"
            )
        owner = grid.owner(k, k)
        if plan.diag_owner != owner:
            raise ValueError(
                f"plan {k} puts the diagonal block on rank "
                f"{plan.diag_owner}; the {grid.pr}x{grid.pc} grid puts it "
                f"on rank {owner}"
            )
        spec = plan.diag_bcast
        if bytes_per_entry is None or spec is None:
            continue
        want = plan.width * plan.width * bytes_per_entry
        if spec.nbytes != want:
            raise ValueError(
                f"plan {k}'s diagonal broadcast carries {spec.nbytes} B; "
                f"the factor's {plan.width}x{plan.width} block of "
                f"{bytes_per_entry}-byte entries is {want} B"
            )


class _PSelInvDriver:
    """The driver skeleton both value symmetries share.

    :class:`SimulatedPSelInv` and
    :class:`~repro.core.pselinv_unsym.SimulatedPSelInvUnsym` differ only
    in their protocol.  Shared here: the lookahead window (Algorithm 1's
    second loop) with its root-supernode shortcut, the collective
    builders (:meth:`_tree`, :meth:`_bcast`, :meth:`_reduce`), the
    ``Ainv`` readiness table, the ``diag-inv`` task, the diagonal and
    L-panel kernels, the GEMM operand and the result.  A subclass passes
    its machine class (``machine_cls``) and supplies ``_iter_plans`` and
    ``_state_cls`` (its plans and per-supernode bookkeeping),
    ``_enter_window(plan)`` (build supernode ``plan.k``'s collectives,
    return the diagonal broadcasts to start) and its handlers.

    ``Ainv`` readiness is one int set keyed ``row * nsup + col`` and one
    waiter dict under the same keys, of ``(rank, seconds, task id,
    argument)`` items posted in arrival order.
    """

    def __init__(
        self,
        struct: SupernodalStructure,
        grid: ProcessorGrid,
        scheme: str,
        *,
        factor: SupernodalFactor | None,
        network: NetworkConfig | None,
        seed: int,
        placement_seed: int | None,
        jitter_seed: int,
        hybrid_threshold: int,
        lookahead: int | None,
        plans: list | None,
        machine_cls: type[Machine],
        machine_kwargs: dict | None = None,
        tree_cache: dict | None = None,
    ) -> None:
        # Trees depend on (scheme, seed, hybrid threshold, grid, struct),
        # not on the engine; callers sweeping over jitter/placement seeds
        # may share a cache across runs with identical configuration.  A
        # guard key catches accidental reuse.
        if tree_cache is not None:
            guard = (
                "__config__", scheme, seed, hybrid_threshold, grid.pr,
                grid.pc, struct.nsup,
            )
            prior = tree_cache.setdefault("__guard__", guard)
            if prior != guard:
                raise ValueError(
                    "tree_cache was built for a different configuration: "
                    f"{prior} vs {guard}"
                )
        self._tree_cache = tree_cache
        self.struct = struct
        self.grid = grid
        self.scheme = scheme
        self.factor = factor
        self.numeric = factor is not None
        self.seed = seed
        self.hybrid_threshold = hybrid_threshold
        # Bounded supernode lookahead, as in the real PSelInv/PEXSI code:
        # only this many supernodes may have their panel communication in
        # flight at once (buffer memory and MPI-progress limits).  ``None``
        # releases everything at t=0 (an idealized, infinitely-buffered
        # runtime -- useful as an ablation).
        self.lookahead = lookahead
        net = Network(
            grid.size,
            network,
            placement_seed=placement_seed,
            jitter_seed=jitter_seed,
        )
        self.machine: Machine = machine_cls(grid.size, net, **(machine_kwargs or {}))
        # Complex matrices (PEXSI pole shifts) move 16-byte entries.
        bpe = BYTES_PER_ENTRY
        if factor is not None and factor.LX and np.iscomplexobj(factor.LX[0]):
            bpe = 2 * BYTES_PER_ENTRY
        if plans is None:
            plans = list(self._iter_plans(struct, grid, bytes_per_entry=bpe))
        else:
            _check_plans(plans, struct, grid, bpe if self.numeric else None)
        self.plans = plans
        self.states = [self._state_cls(p) for p in self.plans]
        # Numeric Ainv blocks by (row_snode, col_snode), and the locator
        # of each stored off-diagonal pair by its lower key (J, K), J > K
        # (see _store_locator).
        self.ainv_data: dict[tuple[int, int], Any] = {}
        self.ainv_loc: dict[tuple[int, int], np.ndarray | None] = {}
        # Ainv readiness (see the class docstring).
        self._nsup = struct.nsup
        self._ready: set[int] = set()
        self._waiters: dict[int, list] = {}
        self._hid_base = self.machine.register_task(self._base_fin, "diag-inv")
        self.done_diag = 0
        self._ran = False

    # -- collectives -------------------------------------------------------------

    def _tree(self, spec) -> CompiledTree:
        """The spec's :class:`CompiledTree`.  It is memoized only in a
        caller's ``tree_cache``: every collective key is used once per
        run, so a run keeps no memo of its own."""
        cache = self._tree_cache
        tree = None if cache is None else cache.get(spec.key)
        if tree is None:
            tree = compiled_tree(
                self.scheme, spec.root, spec.participants,
                collective_seed(self.seed, spec.key),
                hybrid_threshold=self.hybrid_threshold,
            )
            if cache is not None:
                cache[spec.key] = tree
        return tree

    def _bcast(self, spec, on_delivery, ctx) -> VecBroadcast:
        """The (unstarted) broadcast of ``spec``; each delivery calls
        ``on_delivery(ctx, rank, payload)``."""
        return VecBroadcast(
            self.machine, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            on_delivery, ctx,
        )

    def _reduce(self, spec, contributors, task_counts, on_complete,
                ctx) -> tuple:
        """The reduction of ``spec`` over the ranks ``contributors``, of
        ``task_counts`` local tasks each, and its rank -> tree position
        map: ``(red, pos)``.  Completion calls ``on_complete(ctx,
        value)``."""
        tree = self._tree(spec)
        pos = dict(zip(tree.ranks, range(tree.size)))
        red = VecReduce(
            self.machine, tree, spec.key, spec.nbytes, spec.kind,
            [pos[r] for r in contributors], task_counts, on_complete, ctx,
        )
        return red, pos

    # -- Ainv readiness ------------------------------------------------------------

    def _mark_ready(self, rkey: int) -> None:
        """``Ainv`` block ``rkey`` (``row * nsup + col``) is available:
        post the tasks parked on it, in arrival order."""
        self._ready.add(rkey)
        items = self._waiters.pop(rkey, None)
        if items is not None:
            post = self.machine.post_named
            for rank, sec, hid, arg in items:
                post(rank, sec, hid, arg)

    def _mark_ainv_ready(self, key: tuple[int, int], data: Any) -> None:
        """``Ainv`` block ``key = (row, col)`` is available, with its
        numeric ``data`` (kept in numeric runs only)."""
        if self.numeric:
            self.ainv_data[key] = data
        self._mark_ready(key[0] * self._nsup + key[1])

    def _post_when_ready(self, rkey: int, rank: int, sec: float, hid: int,
                         arg: Any) -> None:
        """Post task ``hid`` now if ``Ainv`` block ``rkey`` is ready,
        else park it until :meth:`_mark_ready`."""
        if rkey in self._ready:
            self.machine.post_named(rank, sec, hid, arg)
        else:
            self._waiters.setdefault(rkey, []).append((rank, sec, hid, arg))

    def _base_fin(self, arg) -> None:
        """The ``diag-inv`` task: the base term ``inv(U_KK) inv(L_KK)``
        at the diagonal owner, computed while the panels move."""
        st, lu = arg
        if lu is not None:
            st.base = self._invert_diag(lu)

    # -- the lookahead window ------------------------------------------------

    def _kickoff(self) -> None:
        # Supernodes are released in descending index order (the second
        # loop of Algorithm 1), at most ``lookahead`` outstanding; every
        # dependency of supernode K lives at an index > K, so the window
        # can never deadlock.
        self._release_order = list(range(self.struct.nsup - 1, -1, -1))
        self._release_ptr = 0
        window = self.lookahead if self.lookahead is not None else self.struct.nsup
        self._outstanding = 0
        self._window = max(1, int(window))
        self._release_more()

    def _release_more(self) -> None:
        while (
            self._release_ptr < len(self._release_order)
            and self._outstanding < self._window
        ):
            k = self._release_order[self._release_ptr]
            self._release_ptr += 1
            self._outstanding += 1
            self._start_supernode(k)

    def _supernode_finished(self) -> None:
        self.done_diag += 1
        self._outstanding -= 1
        self._release_more()

    def _start_supernode(self, k: int) -> None:
        st = self.states[k]
        plan = st.plan
        payload = self.factor.diag_block(k) if self.numeric else None
        if not plan.blocks:
            # A root supernode with empty structure: its inverse is
            # just the inverted diagonal block, computed locally.
            self.machine.post_compute(
                plan.diag_owner,
                0.0,
                lambda k=k, payload=payload: self._finish_lonely_diag(
                    k, payload
                ),
                flops=plan.width**3,
                label="diag-inv",
            )
            return
        if self.numeric:
            self._block_offsets(st)
        # The diagonal broadcasts start as soon as the supernode enters
        # the lookahead window (its factorization output already sits at
        # the root; SuperLU timing is reported separately, as in the
        # paper).
        for bc in self._enter_window(plan):
            self.machine.sim.schedule(
                0.0, lambda bc=bc, payload=payload: bc.start(payload)
            )

    def _finish_lonely_diag(self, k: int, payload: Any) -> None:
        st = self.states[k]
        if self.numeric:
            st.diag_value = self._invert_diag(payload)
        self._mark_ainv_ready((k, k), st.diag_value)
        self._supernode_finished()

    # -- numeric kernels ------------------------------------------------------

    def _block_offsets(self, st) -> None:
        """Numeric window entry of supernode ``K``: for each panel block
        ``I``, its rows' local column offsets in ``I``,
        ``rows_below[K][seg_I] - first_col(I)`` (``st.offs``), and the
        segment ``seg_I`` itself (``st.segs``).  Blocks are in
        ``rows_below`` order, so the segments are the running sum of
        the plan's ``nrows``, and one vector expression gives every
        offset.  Offsets that form one contiguous range are stored as
        that ``slice``, the others as an int array (the offsets are
        strictly increasing, so a block is contiguous iff its last
        offset minus its first is ``nrows - 1``)."""
        struct = self.struct
        blocks = st.plan.blocks
        sn = [b.snode for b in blocks]
        nr = [b.nrows for b in blocks]
        local = struct.rows_below[st.plan.k] - np.repeat(struct.sn_ptr[sn], nr)
        ends = np.cumsum(nr)
        firsts = local[ends - nr].tolist()
        lasts = local[ends - 1].tolist()
        offs: dict[int, slice | np.ndarray] = {}
        segs: dict[int, slice] = {}
        lo = 0
        for i, n, hi, first, last in zip(sn, nr, ends.tolist(), firsts, lasts):
            seg = segs[i] = slice(lo, hi)
            if last - first + 1 == n:
                offs[i] = slice(first, last + 1)
            else:
                offs[i] = local[seg]
            lo = hi
        st.offs = offs
        st.segs = segs

    def _store_locator(self, st, j: int) -> None:
        """Supernode ``K`` stores an off-diagonal ``Ainv`` block of the
        pair ``(J, K)``: the lower one keeps the rows of ``J`` present
        in ``rows_below[K]`` (by all columns of ``K``), the upper one is
        its mirror.  Both share one locator, keyed ``(J, K)``: a
        ``width(J)`` int map from ``J``'s local column to the stored
        row, or ``None`` when that map is the identity (the stored
        block holds every row of ``J``).  Built once, when the first of
        the two is stored."""
        key = (j, st.plan.k)
        if key not in self.ainv_loc:
            o = st.offs[j]
            width = self.struct.width(j)
            if o.__class__ is slice and o.stop - o.start == width:
                self.ainv_loc[key] = None
                return
            n = o.stop - o.start if o.__class__ is slice else o.size
            loc = np.zeros(width, np.intp)
            loc[o] = np.arange(n)
            self.ainv_loc[key] = loc

    def _ainv_operand(self, offs: dict, row_sn: int, col_sn: int) -> np.ndarray:
        """The GEMM operand of Algorithm 1 for supernode ``K`` (whose
        block offsets are ``offs``): the stored ``Ainv(row_sn, col_sn)``
        at the rows of ``row_sn`` and the columns of ``col_sn`` present
        in ``rows_below[K]``, C-ordered.  A diagonal block is dense, so
        the offsets index it directly; the structural side of an
        off-diagonal block (rows of a lower block, columns of an upper
        one) goes through its locator, unless that is the identity.

        A contiguous range stays a range through a locator: the stored
        block holds every row of ``row_sn`` that ``K`` needs (its
        structure contains ``K``'s), so consecutive needed rows sit in
        consecutive stored rows.  When both sides are ranges the
        operand is the basic slice, made C-contiguous: a no-op on a
        C-ordered stored block, one copy of a mirrored ``.T`` view,
        which gives the layout the gather gave and so the same GEMM
        bytes.  Otherwise it is the open-mesh gather
        ``block[rows[:, None], cols]``.  The operand may alias the
        stored block: read it, never write it."""
        rows = offs[row_sn]
        cols = offs[col_sn]
        if row_sn > col_sn:
            loc = self.ainv_loc[(row_sn, col_sn)]
            if loc is not None:
                rows = _locate(loc, rows)
        elif row_sn < col_sn:
            loc = self.ainv_loc[(col_sn, row_sn)]
            if loc is not None:
                cols = _locate(loc, cols)
        block = self.ainv_data[(row_sn, col_sn)]
        if rows.__class__ is slice:
            if cols.__class__ is slice:
                return np.ascontiguousarray(block[rows, cols])
            rows = np.arange(rows.start, rows.stop)
        elif cols.__class__ is slice:
            cols = np.arange(cols.start, cols.stop)
        return block[rows[:, None], cols]

    def _raw_l_block(self, k: int, i: int) -> np.ndarray:
        """Slice the raw factor panel block L(I,K) (numeric mode)."""
        return self.factor.l_panel(k)[self.states[k].segs[i], :]

    @staticmethod
    def _invert_diag(lu: np.ndarray) -> np.ndarray:
        """``inv(U_KK) inv(L_KK)`` from the packed LU of a diagonal block."""
        ident = np.eye(lu.shape[0])
        linv = _trsolve(lu, ident, lower=True, unit_diagonal=True)
        return _trsolve(lu, linv, lower=False)

    def _normalize(self, k: int, i: int, lu: np.ndarray) -> np.ndarray:
        """``Lhat(I,K) = L(I,K) inv(L_KK)`` (numeric mode)."""
        raw = self._raw_l_block(k, i)
        return _trsolve(
            lu, raw.T, lower=True, unit_diagonal=True, trans="T"
        ).T

    # -- driver ------------------------------------------------------------------

    def _drain(self, max_events: int | None) -> float:
        """Open the window and drain the calendar; returns the makespan."""
        self._kickoff()
        return self.machine.run(max_events=max_events)

    def run(self, max_events: int | None = None) -> PSelInvResult:
        """Execute the simulation to completion and package the result."""
        if self._ran:
            raise RuntimeError(
                f"a {type(self).__name__} instance runs only once"
            )
        self._ran = True
        makespan = self._drain(max_events)
        nsup = self.struct.nsup
        if self.done_diag != nsup:
            raise RuntimeError(
                f"protocol stalled: {self.done_diag}/{nsup} supernodes finished"
            )
        stats = self.machine.stats
        compute = float(stats.compute_busy.mean())
        comm = float(makespan - stats.compute_busy.mean())
        inverse = self._gather_inverse() if self.numeric else None
        return PSelInvResult(
            scheme=self.scheme,
            grid=self.grid,
            makespan=makespan,
            stats=stats,
            events=self.machine.sim.events_processed,
            numeric=self.numeric,
            compute_time=compute,
            communication_time=comm,
            inverse=inverse,
        )

    def _gather_inverse(self) -> SelectedInverse:
        """Assemble the distributed numeric blocks into oracle layout:
        the lower blocks from each supernode's ``ainv_low``, the upper
        ones from ``ainv_data`` (``Ainv(K,J)`` under key ``(k, j)``)."""
        struct = self.struct
        nsup = struct.nsup
        diag: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        lpanel: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        upanel: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        for k in range(nsup):
            st = self.states[k]
            s = struct.width(k)
            diag[k] = np.asarray(st.diag_value)
            blocks = st.plan.blocks
            if blocks:
                lpanel[k] = np.concatenate(
                    [st.ainv_low[b.snode] for b in blocks], axis=0
                )
                upanel[k] = np.concatenate(
                    [np.asarray(self.ainv_data[(k, b.snode)]) for b in blocks],
                    axis=1,
                )
            else:
                lpanel[k] = np.zeros((0, s))
                upanel[k] = np.zeros((s, 0))
        return SelectedInverse(
            struct=struct, diag=diag, lpanel=lpanel, upanel=upanel
        )


class SimulatedPSelInv(_PSelInvDriver):
    """One configured PSelInv simulation; call :meth:`run` once."""

    _iter_plans = staticmethod(iter_plans)
    _state_cls = _SupernodeState

    def __init__(
        self,
        struct: SupernodalStructure,
        grid: ProcessorGrid,
        scheme: str = "shifted",
        *,
        factor: SupernodalFactor | None = None,
        network: NetworkConfig | None = None,
        seed: int = 0,
        placement_seed: int | None = None,
        jitter_seed: int = 0,
        hybrid_threshold: int = 8,
        per_message_cpu_overhead: float = 0.0,
        lookahead: int | None = 32,
        plans: list[SupernodePlan] | None = None,
        tree_cache: dict | None = None,
        event_log: list | None = None,
        telemetry=None,
        engine: str = "vectorized",
    ) -> None:
        if engine not in _MACHINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected 'vectorized' or 'legacy'"
            )
        if not per_message_cpu_overhead >= 0.0:
            raise ValueError(
                "per_message_cpu_overhead must be a non-negative time, "
                f"got {per_message_cpu_overhead!r}"
            )
        self.engine = engine
        # ``telemetry`` (a repro.obs.Telemetry bundle, or None) turns on
        # the observability layer: the timeline records on the machine,
        # the simulator reports its loop metrics, and run() reads the
        # hot spots and net.*/coll.* series out after the drain.
        self.telemetry = telemetry
        recorder = metrics = None
        if telemetry is not None:
            metrics = telemetry.metrics
            recorder = telemetry.timeline
            hotspots = telemetry.hotspots
            if hotspots is not None and hotspots.nranks != grid.size:
                raise ValueError(
                    f"HotSpotMonitor sized for {hotspots.nranks} ranks, "
                    f"grid has {grid.size}"
                )
        # ``event_log`` (a caller-owned list) enables the machine's
        # structured trace hook; ``repro check`` replays it against the
        # static happens-before model.  ``per_message_cpu_overhead`` is
        # charged per delivered message; it models the less-optimized
        # v0.7.3 code path.
        machine_kwargs = {
            "event_log": event_log, "recorder": recorder, "metrics": metrics,
            "deliver_cpu_overhead": per_message_cpu_overhead,
        }
        super().__init__(
            struct,
            grid,
            scheme,
            factor=factor,
            network=network,
            seed=seed,
            placement_seed=placement_seed,
            jitter_seed=jitter_seed,
            hybrid_threshold=hybrid_threshold,
            lookahead=lookahead,
            plans=plans,
            machine_cls=_MACHINES[engine],
            machine_kwargs=machine_kwargs,
            tree_cache=tree_cache,
        )
        if metrics is not None:
            self.machine.sim.attach_metrics(metrics)
        self._init_vec_protocol()

    # -- the compiled protocol ---------------------------------------------------
    #
    # Zero per-event closures: window entry precomputes every
    # duration/destination/tag in bulk with numpy, handlers are
    # registered task ids dispatching on tuple arguments, collective
    # traffic rides the machine's point route (send_pt), and Ainv
    # readiness keys are flat ints (row * nsup + col).  The ``_vec``
    # suffix marks the compiled protocol's methods, which run on both
    # engines.
    #
    # Numeric mode changes no event: payloads ride the point records,
    # the two task kinds whose precomputed argument is shared (normalize,
    # diag-contrib) get the data they need wrapped onto it at post time,
    # and a GEMM's argument, built when it is posted, carries the
    # col-bcast payload; a numeric handler variant runs under the same
    # id.  GEMMs and diagonal contributions are their reduction's local
    # tasks: each finished one is one VecReduce.contribute_pos call.

    def _init_vec_protocol(self) -> None:
        m = self.machine
        task = m.register_task
        num = self.numeric
        self._cid_cross = m.category_id("cross-send")
        self._cid_back = m.category_id("cross-back")
        self._hid_gemm = task(
            self._gemm_fin_num if num else self._contribute_vec, "gemm"
        )
        self._hid_norm = task(
            self._norm_fin_num if num else self._norm_fin_vec, "normalize"
        )
        self._hid_diagc = task(
            self._diag_fin_num if num else self._contribute_vec,
            "diag-contrib",
        )
        self._hid_colred = task(self._colred_fin_vec, "finish-diag")
        # Column broadcasts waiting on their cross-send, keyed
        # k * nsup + i (popped exactly once when the Lhat panel lands).
        self._vec_cb: dict[int, Any] = {}
        self._pc = self.grid.pc

    def _setup_supernode_vec(self, plan: SupernodePlan) -> VecBroadcast:
        """Window entry: compile supernode ``plan.k``'s whole protocol;
        returns its (unstarted) diagonal broadcast.

        Builds the collectives (each reduction counting its
        contributors' local GEMMs or diagonal contributions), the
        per-grid-row GEMM table and the per-rank normalize table, and
        precomputes, in bulk numpy expressions, every compute duration.
        All duration arithmetic reproduces ``Network.compute_time``'s
        exact float expression (the products are exact integers below
        2^53, so factoring them elementwise cannot change a bit).
        """
        k = plan.k
        st = self.states[k]
        nsup = self._nsup
        pr, pc = self.grid.pr, self.grid.pc
        kc = k % pc
        kr_pc = (k % pr) * pc
        cfg = self.machine.network.config
        task_oh = cfg.task_overhead
        rate = cfg.flop_rate
        blocks = plan.blocks
        nb = len(blocks)
        snodes = [b.snode for b in blocks]
        s = plan.width
        sn = np.array(snodes)
        nr = np.array([b.nrows for b in blocks])
        jrows_l = ((sn % pr) * pc).tolist()
        cols_l = (sn % pc).tolist()
        # Durations: [i_idx][j_idx] GEMM seconds, per-block normalize
        # and diag-contribution seconds, and the two scalar diag terms.
        secs = (
            task_oh + (np.multiply.outer(2.0 * nr, nr) * s) / rate
        ).tolist()
        norm_secs = (task_oh + (s * s * nr) / rate).tolist()
        dc_secs = (task_oh + (((2.0 * s) * nr) * s) / rate).tolist()
        st.base_sec = task_oh + (s ** 3) / rate
        st.finish_sec = task_oh + float(s * s) / rate
        # Row blocks grouped by grid row (insertion = block order), and
        # the distinct column positions with their multiplicities.
        rowgroups: dict[int, list[int]] = {}
        for idx in range(nb):
            g = rowgroups.get(jrows_l[idx])
            if g is None:
                rowgroups[jrows_l[idx]] = [idx]
            else:
                g.append(idx)
        colcount: dict[int, int] = {}
        for c in cols_l:
            colcount[c] = colcount.get(c, 0) + 1
        ucols = list(colcount)
        ucnts = list(colcount.values())
        # Collectives go up in a fixed order (diag bcast, col bcasts, row
        # reduces, col reduce): reduce construction can emit
        # degenerate-relay sends, so this order is part of the pinned
        # outcome.
        diag_bc = self._bcast(plan.diag_bcast, self._on_diag_delivery_vec, st)
        vcb = self._vec_cb
        kn = k * nsup
        # The delivery context of col-bcast i carries its GEMM-duration
        # row and snode id directly; the per-grid-row work tables are
        # shared across every i (a rank's row group does the same j's for
        # each broadcast it receives).
        idx_of = {sn_: x for x, sn_ in enumerate(snodes)}
        for spec in plan.col_bcasts:
            i = spec.key[2]
            vcb[kn + i] = self._bcast(
                spec, self._on_colbcast_delivery_vec, (st, secs[idx_of[i]], i),
            )
        # Row reduce J (block order): grid row J mod Pr, one contributor
        # per column position c, holding colcount[c] of J's GEMMs.  Each
        # reduce's rank -> tree position map lives only in its (red, pos)
        # pair: the trees carry none.
        reds = [
            self._reduce(
                spec, [jrow + c for c in ucols], ucnts,
                self._on_rowreduce_complete_vec, (st, spec.key[2]),
            )
            for spec, jrow in zip(plan.row_reduces, jrows_l)
        ]
        # Col reduce: one contributor per grid row, with one diagonal
        # contribution per row block of its group.
        dests = [jrow + kc for jrow in rowgroups]
        cr, pos = self._reduce(
            plan.col_reduce, dests, [len(g) for g in rowgroups.values()],
            self._on_colreduce_complete_vec, st,
        )
        # Per row block j: everything its row-reduce completion touches.
        # Cross-sends and cross-backs are in block order.
        backs = plan.cross_backs
        rr_info: dict[int, tuple] = {}
        st.rr_info = rr_info
        for idx in range(nb):
            j = snodes[idx]
            dest = jrows_l[idx] + kc
            rr_info[j] = (
                j * nsup + k,           # readiness key of Ainv(J,K)
                dest,                   # owner of L(J,K)
                kr_pc + cols_l[idx],    # owner of U(K,J) (cross-back)
                ("xb", k, j),
                backs[idx].nbytes,
                kn + j,                 # readiness key of Ainv(K,J)
                dc_secs[idx],
                (cr, pos[dest]),        # diag-contrib argument
            )
        # Per L-panel owner: normalize duration + cross-send arguments.
        sends = plan.cross_sends
        nv: dict[int, list] = {}
        st.norm_vec = nv
        for idx in range(nb):
            i = snodes[idx]
            lowner = jrows_l[idx] + kc
            ent = (
                norm_secs[idx],
                (lowner, kr_pc + cols_l[idx], ("cs", k, i), sends[idx].nbytes, kn + i),
            )
            g = nv.get(lowner)
            if g is None:
                nv[lowner] = [ent]
            else:
                g.append(ent)
        # Per grid row: its block indices, their row reductions and the
        # j-part of each readiness key -- one table per row, shared by
        # every col-bcast delivery to its ranks (block order throughout).
        st.bcast_gemms = {
            jrow: (group, [reds[x] for x in group],
                   [snodes[x] * nsup for x in group])
            for jrow, group in rowgroups.items()
        }
        return diag_bc

    def _on_diag_delivery_vec(self, st, rank: int, payload) -> None:
        if rank == st.plan.diag_owner:
            self.machine.post_named(
                rank, st.base_sec, self._hid_base, (st, payload)
            )
        ents = st.norm_vec.get(rank)
        if ents is not None:
            post = self.machine.post_named
            hid = self._hid_norm
            for sec, arg in ents:
                post(rank, sec, hid, arg if payload is None else (arg, payload))

    def _norm_fin_vec(self, arg) -> None:
        # (src, u_owner, ("cs", k, i), nbytes, col-bcast key)
        self.machine.send_pt(
            arg[0], arg[1], arg[2], arg[3], self._cid_cross,
            self._on_cross_send_vec, arg[4],
        )

    def _norm_fin_num(self, arg) -> None:
        (src, u_owner, tag, nbytes, cbkey), lu = arg
        k, i = tag[1], tag[2]
        lhat = self._normalize(k, i, lu)
        self.states[k].lhat[i] = lhat
        # Cross-send Lhat^T to the owner of U(K,I).
        self.machine.send_pt(
            src, u_owner, tag, nbytes, self._cid_cross,
            self._on_cross_send_vec, cbkey, lhat.T,
        )

    def _on_cross_send_vec(self, dst: int, payload, aux: int) -> None:
        self._vec_cb.pop(aux).start(payload)

    def _on_colbcast_delivery_vec(self, ctx, rank: int, payload) -> None:
        st, sec_row, i = ctx
        tab = st.bcast_gemms.get(rank - rank % self._pc)
        if tab is None:
            return
        group, reds, jsn = tab
        # _post_when_ready, inlined: one call per GEMM is the hot path.
        ready = self._ready
        waiters = self._waiters
        post = self.machine.post_named
        hid = self._hid_gemm
        for x, (red, pos), jn in zip(group, reds, jsn):
            if payload is None:
                arg = (red, pos[rank])
            else:
                arg = (red, pos[rank], i, payload)
            rkey = jn + i
            if rkey in ready:
                post(rank, sec_row[x], hid, arg)
            else:
                ent = (rank, sec_row[x], hid, arg)
                w = waiters.get(rkey)
                if w is None:
                    waiters[rkey] = [ent]
                else:
                    w.append(ent)

    @staticmethod
    def _contribute_vec(arg) -> None:
        # A symbolic GEMM or diagonal contribution: (reduction, position).
        arg[0].contribute_pos(arg[1])

    def _gemm_fin_num(self, arg) -> None:
        red, cpos, i, uhat = arg
        _, k, j = red.tag  # the row reduce's tag is ("rr", k, j)
        # Ainv(J,I)[needed rows, needed cols] @ Lhat(I,K), where
        # uhat.T = Lhat(I,K), (r_i, s).
        sub = self._ainv_operand(self.states[k].offs, j, i)
        red.contribute_pos(cpos, sub @ uhat.T)

    def _on_rowreduce_complete_vec(self, ctx, value) -> None:
        st, j = ctx
        rkey, dest, u_owner, xbtag, nbytes, bkey, dcsec, dfin = st.rr_info[j]
        back = None
        if value is not None:
            ainv_jk = -value
            st.ainv_low[j] = ainv_jk
            self.ainv_data[(j, st.plan.k)] = ainv_jk
            self._store_locator(st, j)
            back = ainv_jk.T
            dfin = dfin + (st, j)
        self._mark_ready(rkey)
        self.machine.send_pt(
            dest, u_owner, xbtag, nbytes, self._cid_back,
            self._on_cross_back_vec, bkey, back,
        )
        self.machine.post_named(dest, dcsec, self._hid_diagc, dfin)

    def _on_cross_back_vec(self, dst: int, payload, aux: int) -> None:
        if payload is not None:
            # Upper Ainv block (K, J), aux = k * nsup + j.
            self.ainv_data[divmod(aux, self._nsup)] = payload
        self._mark_ready(aux)

    def _diag_fin_num(self, arg) -> None:
        cr, cpos, st, j = arg
        # Local diagonal contribution Lhat(J,K)^T @ Ainv(J,K).
        cr.contribute_pos(cpos, st.lhat[j].T @ st.ainv_low[j])

    def _on_colreduce_complete_vec(self, st, value) -> None:
        self.machine.post_named(
            st.plan.diag_owner, st.finish_sec, self._hid_colred, (st, value)
        )

    def _colred_fin_vec(self, arg) -> None:
        st, value = arg
        if value is not None:
            st.diag_value = st.base - value
        k = st.plan.k
        self._mark_ainv_ready((k, k), st.diag_value)
        st.release()
        self._supernode_finished()

    # -- window entry ----------------------------------------------------------

    def _enter_window(self, plan: SupernodePlan) -> tuple:
        return (self._setup_supernode_vec(plan),)

    # -- driver ------------------------------------------------------------------

    def _drain(self, max_events: int | None) -> float:
        metrics = (
            self.telemetry.metrics if self.telemetry is not None else None
        )
        cache_before = tree_cache_info() if metrics is not None else None
        makespan = super()._drain(max_events)
        if self.telemetry is not None:
            self.telemetry.finish(self.machine.stats)
        if metrics is not None:
            record_shapes(metrics, self.machine.coll_shapes)
            self._record_tree_cache_metrics(metrics, cache_before)
        return makespan

    @staticmethod
    def _record_tree_cache_metrics(metrics, before: dict[str, int]) -> None:
        """Publish shared tree-cache deltas as ``comm.tree_cache.*``.

        The cache is process-global, so counters report the *delta*
        accumulated by this run while the size/maxsize gauges report the
        cache state after it.
        """
        after = tree_cache_info()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        metrics.counter("comm.tree_cache.hits").inc(hits)
        metrics.counter("comm.tree_cache.misses").inc(misses)
        metrics.counter("comm.tree_cache.evictions").inc(
            after["evictions"] - before["evictions"]
        )
        lookups = hits + misses
        metrics.gauge("comm.tree_cache.hit_rate").set(
            hits / lookups if lookups else 0.0
        )
        metrics.gauge("comm.tree_cache.size").set(after["size"])
        metrics.gauge("comm.tree_cache.maxsize").set(after["maxsize"])


def run_pselinv(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str = "shifted",
    **kwargs: Any,
) -> PSelInvResult:
    """Convenience wrapper: configure, run, and return the result."""
    return SimulatedPSelInv(struct, grid, scheme, **kwargs).run()
