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

Two interchangeable execution engines (``engine=``), one protocol each:

* ``"vectorized"`` (default) -- the
  :class:`~repro.simulate.machine.VecMachine` /
  :class:`~repro.simulate.engine.VecSimulator` stack plus a *compiled*
  protocol layer: on window entry every per-event quantity of a
  supernode (GEMM/normalize/diag durations, send destinations, tags,
  readiness keys) is precomputed in bulk with numpy, collectives run as
  :class:`~repro.comm.collectives.VecBroadcast` /
  :class:`~repro.comm.collectives.VecReduce` state machines over shared
  :class:`~repro.comm.trees.CompiledTree` tables, and the handlers are
  closure-free (pre-registered handler ids + tuple arguments).  Every
  mode runs on it: numeric payloads ride the same point records
  (numeric tasks get their data wrapped onto the precomputed argument
  and a numeric handler variant under the same id).  Every mode takes
  the machine's one per-message route: metrics and hot spots are read
  out after the drain, while the timeline, the event log and the
  per-message overhead are one hook test per stage.
* ``"legacy"`` -- the original heapq :class:`Simulator` + per-message
  :class:`Message` objects + dict-based
  :class:`~repro.comm.collectives.TreeBroadcast` /
  :class:`~repro.comm.collectives.TreeReduce`: the reference oracle.

Both produce bit-identical results -- same event count, same final
timestamps, same per-rank stats, the same numeric inverse -- which the
engine-equivalence tests, ``benchmarks/check_engine_identity.py`` and
``benchmarks/bench_runner_scaling.py`` assert; the vectorized engine is
the faster, hence the default.  This driver and the unsymmetric one
(:mod:`repro.core.pselinv_unsym`) run on one skeleton,
:class:`_PSelInvDriver` (window, numeric kernels, ``Ainv`` readiness,
result), and every GEMM of both takes its ``Ainv`` operand through
:func:`gather_block`: one ``ndarray.searchsorted`` on the structural
side of the stored block and one open-mesh index per GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import (
    TreeBroadcast,
    TreeReduce,
    VecBroadcast,
    VecReduce,
    record_shapes,
)
from ..comm.trees import build_tree, compiled_tree, tree_cache_info
from ..simulate.machine import CommStats, Machine, Message, VecMachine
from ..simulate.network import Network, NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.selinv import SelectedInverse
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import BYTES_PER_ENTRY, SupernodePlan, iter_plans
from .volume import collective_seed

__all__ = ["PSelInvResult", "SimulatedPSelInv", "gather_block", "run_pselinv"]

# Tree representation per engine (see :meth:`SimulatedPSelInv._tree`).
_TREE_BUILDERS = {
    "legacy": build_tree,
    "vectorized": compiled_tree,
}


def _accumulate(partials: dict, key: Any, contrib: Any) -> None:
    """Add ``contrib`` to ``partials[key]`` (first contribution stored
    as is), in arrival order -- the order both engines share."""
    cur = partials.get(key)
    partials[key] = contrib if cur is None else cur + contrib


def gather_block(
    struct: SupernodalStructure,
    block: np.ndarray,
    row_sn: int,
    col_sn: int,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Sub-block of the stored ``Ainv(row_sn, col_sn)`` block at the
    global row indices ``rows`` (of supernode ``row_sn``) and column
    indices ``cols`` (of supernode ``col_sn``) -- the GEMM operand of
    Algorithm 1, shared by the symmetric and unsymmetric drivers.

    A lower block (``row_sn > col_sn``) stores the rows of ``row_sn``
    present in ``rows_below[col_sn]`` by all columns of ``col_sn``; an
    upper block is its mirror; a diagonal block is dense.  Dense sides
    are located by offset, structural sides by binary search.
    """
    ptr = struct.sn_ptr
    if row_sn > col_sn:
        posr = struct.block_row_indices(col_sn, row_sn).searchsorted(rows)
        posc = cols - ptr[col_sn]
    elif row_sn < col_sn:
        posr = rows - ptr[row_sn]
        posc = struct.block_row_indices(row_sn, col_sn).searchsorted(cols)
    else:
        posr = rows - ptr[row_sn]
        posc = cols - ptr[row_sn]
    return block[posr[:, None], posc]


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


class _SupernodeState:
    """Mutable per-supernode bookkeeping (global in the simulation; every
    field is only touched by handlers running 'on' its owning rank).

    Several tables are keyed differently by the two protocols: the
    legacy one uses ``(J, rank)`` / ``(I, rank)`` tuples, the compiled
    one (``engine="vectorized"``) flat ints or bare ranks, as noted per
    field.  On the compiled protocol a supernode keeps after it finishes
    only what :meth:`_PSelInvDriver._gather_inverse` reads -- ``plan``,
    ``diag_value`` and ``ainv_low`` (plus the driver's ``ainv_data``) --
    and :meth:`release` drops the rest, so memory follows the lookahead
    window instead of the number of supernodes run.
    """

    __slots__ = (
        "plan",
        "lhat",
        "uhat",
        "ainv_low",
        "row_partial",
        "gemms_left",
        "diag_partial",
        "diag_left",
        "base",
        "diag_value",
        "norm_blocks",
        "bcast_gemms",
        "nrows",
        "cross_nbytes",
        "back_nbytes",
        # Compiled-protocol tables (engine="vectorized"):
        "rr_info",
        "norm_vec",
        "base_sec",
        "finish_sec",
    )

    def __init__(self, plan: SupernodePlan):
        self.plan = plan
        self.lhat: dict[int, Any] = {}  # I -> Lhat(I,K) at owner of L(I,K)
        self.uhat: dict[tuple[int, int], Any] = {}  # (I, rank) -> Uhat(K,I)
        self.ainv_low: dict[int, Any] = {}  # J -> Ainv(J,K) at owner L(J,K)
        # (J, rank) -> sum; the compiled protocol keys J * nranks + rank.
        self.row_partial: dict[Any, Any] = {}
        # (J, rank) -> outstanding GEMMs; compiled: J * nranks + rank.
        self.gemms_left: dict[Any, int] = {}
        self.diag_partial: dict[int, Any] = {}  # rank -> partial (s, s)
        self.diag_left: dict[int, int] = {}  # rank -> outstanding rows J
        self.base: Any = None  # inv(U_KK) inv(L_KK) at the diagonal owner
        self.diag_value: Any = None
        # Dispatch tables built when the supernode enters the window.
        # norm_blocks (legacy): rank -> [BlockInfo] of the L(I,K) blocks
        # normalized there.  bcast_gemms: legacy (I, rank) -> [J, ...],
        # the local GEMM row blocks per broadcast; compiled rank ->
        # (group, fins, jsn), that rank's row-group block indices, the
        # GEMM countdown tuples of its (J, rank) pairs and J * nsup per
        # block, shared by every col-bcast delivered there.
        self.norm_blocks: dict[int, list] = {}
        self.bcast_gemms: dict[Any, Any] = {}
        # Legacy protocol only, set by enter_legacy(): I -> r_I and the
        # cross-send / cross-back sizes by block row.
        self.nrows: dict[int, int] | None = None
        self.cross_nbytes: dict[int, int] | None = None
        self.back_nbytes: dict[int, int] | None = None
        # Compiled-protocol tables, set on window entry: rr_info is
        # J -> the row-reduce completion's arguments, norm_vec is L-panel
        # owner rank -> [(normalize seconds, cross-send arguments)].
        self.rr_info: dict[int, tuple] | None = None
        self.norm_vec: dict[int, list] | None = None

    def enter_legacy(self) -> None:
        """Window entry on the legacy protocol: the per-block-row tables
        its handlers look up.  Message sizes come straight from the plan
        so simulator and analytic volume model can never disagree (incl.
        complex 16-byte entries)."""
        plan = self.plan
        self.nrows = {b.snode: b.nrows for b in plan.blocks}
        self.cross_nbytes = {p.key[2]: p.nbytes for p in plan.cross_sends}
        self.back_nbytes = {p.key[2]: p.nbytes for p in plan.cross_backs}

    def release(self) -> None:
        """Drop the compiled protocol's tables and the numeric panels of
        a finished supernode.  Late diag/col-bcast deliveries to relay
        ranks still look themselves up in ``norm_vec`` / ``bcast_gemms``,
        so those two become empty; ``rr_info``, the two countdown dicts,
        ``lhat``, ``uhat`` and ``base`` become ``None``.  Dropping the
        countdown tuples also drops the last references to the
        supernode's reductions."""
        self.bcast_gemms = {}
        self.norm_vec = {}
        self.rr_info = None
        self.gemms_left = None
        self.diag_left = None
        self.lhat = None
        self.uhat = None
        self.base = None


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
    second loop) with its root-supernode shortcut, the diagonal and
    L-panel kernels, ``Ainv`` readiness, the per-rank tag dispatch, the
    sum-then-reduce GEMM tasks, the diagonal finish and the result.  A
    subclass supplies ``_iter_plans`` and ``_state_cls`` (its plans and
    per-supernode bookkeeping), ``_enter_window(plan)`` (build supernode
    ``plan.k``'s collectives, return the diagonal broadcasts to start),
    ``_schedule_gemm(*item)`` and its handlers.
    """

    # Set by the symmetric driver on engine="vectorized", whose compiled
    # protocol keeps Ainv readiness under flat int keys and registers its
    # own handlers.
    _vec = False
    # Message tag kind -> name of the method handling that kind's
    # point-to-point sends, called as ``method(k, i, payload)`` for a tag
    # ``(kind, k, i)``; every other tag names a collective.
    _point_handlers: dict[str, str] = {}
    # CPU seconds charged per delivered message (the symmetric driver's
    # ``per_message_cpu_overhead``).
    extra_msg_overhead = 0.0

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
        machine_cls: type[Machine] = Machine,
        machine_kwargs: dict | None = None,
    ) -> None:
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
        self.collectives: dict[tuple, Any] = {}
        # Readiness of Ainv blocks: (row_snode, col_snode) -> ready flag;
        # waiters hold deferred GEMMs.
        self.ainv_ready: set[tuple[int, int]] = set()
        self.ainv_data: dict[tuple[int, int], Any] = {}
        self.waiters: dict[tuple[int, int], list] = {}
        self.done_diag = 0
        self._ran = False
        if not self._vec:
            for r in range(grid.size):
                self.machine.set_handler(r, self._make_handler(r))

    def _make_handler(self, rank: int):
        points = {
            kind: getattr(self, name)
            for kind, name in self._point_handlers.items()
        }

        def handler(msg: Message) -> None:
            if self.extra_msg_overhead > 0.0:
                self.machine.post_compute(
                    rank, self.extra_msg_overhead, label="msg-overhead"
                )
            key = msg.tag
            point = points.get(key[0])
            if point is None:
                self.collectives[key].on_message(msg)
            else:
                point(key[1], key[2], msg.payload)

        return handler

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
        if self._vec:
            self.ainv_data[(k, k)] = st.diag_value
            self._mark_ready_vec(k * self._nsup + k)
        else:
            self._mark_ainv_ready((k, k), st.diag_value)
        self._supernode_finished()

    def _schedule_or_wait(self, key: tuple[int, int], item: tuple) -> None:
        """Post the GEMM ``item`` now if its operand ``Ainv`` block
        ``key`` is ready, else park it until :meth:`_mark_ainv_ready`."""
        if key in self.ainv_ready:
            self._schedule_gemm(*item)
        else:
            self.waiters.setdefault(key, []).append(item)

    def _mark_ainv_ready(self, key: tuple[int, int], data: Any) -> None:
        self.ainv_ready.add(key)
        self.ainv_data[key] = data
        for item in self.waiters.pop(key, []):
            self._schedule_gemm(*item)

    def _post_contribution(
        self,
        rank: int,
        flops: float,
        label: str,
        contrib: Any,
        partials: dict,
        left: dict,
        key: Any,
        red_key: tuple,
    ) -> None:
        """Post one local task on ``rank`` whose numeric result
        ``contrib()`` is summed into ``partials[key]``; the last of the
        ``left[key]`` tasks there hands the sum to the reduction
        ``red_key``.  Every GEMM and diagonal contribution of the
        dict-based protocols runs through here."""

        def fin():
            if self.numeric:
                _accumulate(partials, key, contrib())
            left[key] -= 1
            if left[key] == 0:
                self.collectives[red_key].contribute(
                    rank, partials.pop(key, None)
                )

        self.machine.post_compute(rank, 0.0, fin, flops=flops, label=label)

    # -- the diagonal block --------------------------------------------------

    def _post_base(self, st: Any, rank: int, payload: Any) -> None:
        """At the diagonal owner, compute the base term
        ``inv(U_KK) inv(L_KK)`` while the panels move."""

        def fin_base():
            st.base = self._invert_diag(payload) if self.numeric else None

        self.machine.post_compute(
            rank, 0.0, fin_base, flops=st.plan.width**3, label="diag-inv"
        )

    def _on_diag_reduce(self, k: int, value: Any) -> None:
        """The diagonal reduction landed: the diagonal owner finishes
        ``Ainv(K,K) = base - sum`` and the supernode leaves the window."""
        st = self.states[k]
        s = st.plan.width

        def fin():
            if self.numeric:
                st.diag_value = st.base - value
            self._mark_ainv_ready((k, k), st.diag_value)
            self._supernode_finished()

        self.machine.post_compute(
            st.plan.diag_owner, 0.0, fin, flops=float(s * s), label="finish-diag"
        )

    # -- numeric kernels ------------------------------------------------------

    def _raw_l_block(self, k: int, i: int) -> np.ndarray:
        """Slice the raw factor panel block L(I,K) (numeric mode)."""
        lo, hi = self.struct.rows_below[k].searchsorted(self.struct.sn_ptr[i : i + 2])
        return self.factor.l_panel(k)[lo:hi, :]

    @staticmethod
    def _invert_diag(lu: np.ndarray) -> np.ndarray:
        """``inv(U_KK) inv(L_KK)`` from the packed LU of a diagonal block."""
        ident = np.eye(lu.shape[0])
        linv = solve_triangular(lu, ident, lower=True, unit_diagonal=True)
        return solve_triangular(lu, linv, lower=False)

    def _normalize(self, k: int, i: int, lu: np.ndarray) -> np.ndarray:
        """``Lhat(I,K) = L(I,K) inv(L_KK)`` (numeric mode)."""
        raw = self._raw_l_block(k, i)
        return solve_triangular(
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
    _point_handlers = {"cs": "_on_cross_send", "xb": "_on_cross_back"}

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
        if engine not in _TREE_BUILDERS:
            raise ValueError(
                f"unknown engine {engine!r}; expected 'vectorized' or 'legacy'"
            )
        if not per_message_cpu_overhead >= 0.0:
            raise ValueError(
                "per_message_cpu_overhead must be a non-negative time, "
                f"got {per_message_cpu_overhead!r}"
            )
        self.engine = engine
        self._vec = engine == "vectorized"
        # Extra software overhead charged per delivered message; used to
        # model the less-optimized v0.7.3 code path.
        self.extra_msg_overhead = per_message_cpu_overhead
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
        # static happens-before model.
        machine_kwargs = {
            "event_log": event_log, "recorder": recorder, "metrics": metrics,
        }
        if self._vec:
            machine_kwargs["deliver_cpu_overhead"] = per_message_cpu_overhead
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
            machine_cls=VecMachine if self._vec else Machine,
            machine_kwargs=machine_kwargs,
        )
        if metrics is not None:
            self.machine.sim.attach_metrics(metrics)
        # Trees depend on (scheme, seed, hybrid threshold, grid, struct)
        # -- and on the engine, which determines the cached
        # representation (dict CommTree or CompiledTree); callers sweeping
        # over jitter/placement seeds may share a cache across runs with
        # identical configuration.  A guard key catches accidental reuse.
        self._tree_cache = tree_cache if tree_cache is not None else {}
        guard = (
            "__config__", scheme, seed, hybrid_threshold, grid.pr, grid.pc,
            struct.nsup, engine,
        )
        prior = self._tree_cache.setdefault("__guard__", guard)
        if prior != guard:
            raise ValueError(
                "tree_cache was built for a different configuration: "
                f"{prior} vs {guard}"
            )
        if self._vec:
            self._init_vec_protocol()

    # -- setup ------------------------------------------------------------

    def _tree(self, spec) -> Any:
        """The spec's communication tree, in the engine's representation
        (dict :class:`CommTree` for legacy, :class:`CompiledTree` for
        vectorized), memoized per run/config."""
        key = spec.key
        tree = self._tree_cache.get(key)
        if tree is None:
            tree = _TREE_BUILDERS[self.engine](
                self.scheme,
                spec.root,
                spec.participants,
                collective_seed(self.seed, key),
                hybrid_threshold=self.hybrid_threshold,
            )
            self._tree_cache[key] = tree
        return tree

    def _build_collectives(self, plan: SupernodePlan) -> None:
        """Instantiate supernode ``plan.k``'s collectives (window entry).

        Lazy construction matters: a medium problem has O(10^5)
        collectives, and building their trees up front would dominate the
        run; it also mirrors the real code, which materializes its
        communication trees as supernodes enter the lookahead window.
        """
        m = self.machine
        k = plan.k
        if plan.diag_bcast is not None:
            spec = plan.diag_bcast
            self.collectives[spec.key] = TreeBroadcast(
                m,
                self._tree(spec),
                spec.key,
                spec.nbytes,
                spec.kind,
                lambda rank, payload, k=k: self._on_diag_delivery(
                    k, rank, payload
                ),
            )
        for spec in plan.col_bcasts:
            i = spec.key[2]
            self.collectives[spec.key] = TreeBroadcast(
                m,
                self._tree(spec),
                spec.key,
                spec.nbytes,
                spec.kind,
                lambda rank, payload, k=k, i=i: self._on_colbcast_delivery(
                    k, i, rank, payload
                ),
            )
        pc = self.grid.pc
        for spec in plan.row_reduces:
            j = spec.key[2]
            jrow = (j % self.grid.pr) * pc
            contributors = {
                jrow + (b.snode % pc) for b in plan.blocks
            }
            self.collectives[spec.key] = TreeReduce(
                m,
                self._tree(spec),
                spec.key,
                spec.nbytes,
                spec.kind,
                contributors,
                lambda value, k=k, j=j: self._on_rowreduce_complete(
                    k, j, value
                ),
            )
        if plan.col_reduce is not None and plan.blocks:
            spec = plan.col_reduce
            kc = k % pc
            contributors = {
                (b.snode % self.grid.pr) * pc + kc for b in plan.blocks
            }
            self.collectives[spec.key] = TreeReduce(
                m,
                self._tree(spec),
                spec.key,
                spec.nbytes,
                spec.kind,
                contributors,
                lambda value, k=k: self._on_diag_reduce(k, value),
            )

    # -- helpers ------------------------------------------------------------

    def _gemm_counts(self, plan: SupernodePlan) -> None:
        """Build dispatch tables for supernode ``plan.k`` (on window entry).

        Logically this is the all-pairs loop ``for bj in blocks: for bi
        in blocks`` counting one GEMM per (row block, column block) pair.
        Run that way it costs O(B^2) dict operations and dominates the
        window-entry path on large supernodes, so the pairs are batched
        by grid row instead: every row block ``j`` in the same grid row
        meets every column position with the same multiplicity, and a
        ``bcast_gemms`` key ``(i, r)`` pins down the grid row of ``r``,
        so each of its lists receives the ``j``'s of exactly one row
        group -- in block order, as before.  Neither table's key order is
        observable (both are only read by key), and the counts and list
        contents are identical to the all-pairs loop.
        """
        st = self.states[plan.k]
        pr, pc = self.grid.pr, self.grid.pc
        k = plan.k
        kc = k % pc
        blocks = plan.blocks
        snodes = [b.snode for b in blocks]
        # Row blocks grouped by grid row (insertion = block order).
        rowgroups: dict[int, list[int]] = {}
        for j in snodes:
            jrow = (j % pr) * pc
            g = rowgroups.get(jrow)
            if g is None:
                rowgroups[jrow] = [j]
            else:
                g.append(j)
        # Column-position multiplicity over the column blocks.
        cols = [i % pc for i in snodes]
        colcount: dict[int, int] = {}
        for ic in cols:
            colcount[ic] = colcount.get(ic, 0) + 1
        gl = st.gemms_left
        bg = st.bcast_gemms
        diag_left = st.diag_left
        norm_blocks = st.norm_blocks
        for jrow, js in rowgroups.items():
            for j in js:
                for ic, cnt in colcount.items():
                    key = (j, jrow + ic)
                    gl[key] = gl.get(key, 0) + cnt
            for i, ic in zip(snodes, cols):
                key = (i, jrow + ic)
                lst = bg.get(key)
                if lst is None:
                    bg[key] = list(js)
                else:
                    lst.extend(js)
            dest = jrow + kc
            diag_left[dest] = diag_left.get(dest, 0) + len(js)
        for bj in blocks:
            lowner = (bj.snode % pr) * pc + kc
            norm_blocks.setdefault(lowner, []).append(bj)

    # -- compiled protocol (engine="vectorized") ---------------------------------
    #
    # Same dataflow, same timestamps, zero per-event closures: window
    # entry precomputes every duration/destination/tag in bulk with
    # numpy, handlers are pre-registered ids dispatching on tuple
    # arguments, collective traffic rides the machine's point route, and
    # Ainv readiness keys are flat ints (row * nsup + col).  Every
    # simulator event maps one-to-one onto a legacy-engine event, in the
    # same sequence order -- that is the whole bit-identity argument.
    #
    # Numeric mode changes no event: payloads ride the point records,
    # and the three task kinds whose precomputed argument is shared
    # (normalize, GEMM, diag-contrib) get the data they need wrapped onto
    # it at post time, handled by a numeric variant under the same id.

    def _init_vec_protocol(self) -> None:
        m = self.machine
        task = m.register_task
        num = self.numeric
        self._cid_cross = m.category_id("cross-send")
        self._cid_back = m.category_id("cross-back")
        self._hid_gemm = task(
            self._gemm_fin_num if num else self._gemm_fin_vec, "gemm"
        )
        self._hid_norm = task(
            self._norm_fin_num if num else self._norm_fin_vec, "normalize"
        )
        self._hid_diagc = task(
            self._diag_fin_num if num else self._diag_fin_vec, "diag-contrib"
        )
        self._hid_base = task(self._base_fin_vec, "diag-inv")
        self._hid_colred = task(self._colred_fin_vec, "finish-diag")
        self._ready: set[int] = set()
        self._vwaiters: dict[int, list] = {}
        # Column broadcasts waiting on their cross-send, keyed
        # k * nsup + i (popped exactly once when the Lhat panel lands).
        self._vec_cb: dict[int, Any] = {}
        self._nsup = self.struct.nsup

    def _setup_supernode_vec(self, plan: SupernodePlan) -> VecBroadcast:
        """Window entry: compile supernode ``plan.k``'s whole protocol;
        returns its (unstarted) diagonal broadcast.

        Fuses ``_gemm_counts`` + ``_build_collectives`` and additionally
        precomputes, in bulk numpy expressions, every compute duration
        the per-message path derives one flop count at a time.  All
        duration arithmetic reproduces ``Network.compute_time``'s exact
        float expression (the products are exact integers below 2^53,
        so factoring them elementwise cannot change a bit).
        """
        m = self.machine
        k = plan.k
        st = self.states[k]
        nsup = self._nsup
        nranks = self.grid.size
        pr, pc = self.grid.pr, self.grid.pc
        kc = k % pc
        kr_pc = (k % pr) * pc
        cfg = m.network.config
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
        # Collectives go up in the legacy protocol's construction order
        # (diag bcast, col bcasts, row reduces, col reduce): reduce
        # construction can emit degenerate-relay sends, so this order is
        # part of the bit-identity contract.
        spec = plan.diag_bcast
        diag_bc = VecBroadcast(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            self._on_diag_delivery_vec, st,
        )
        vcb = self._vec_cb
        kn = k * nsup
        # The delivery context of col-bcast i carries its GEMM-duration
        # row and snode id directly; the per-rank work tables are shared
        # across every i (a rank's row group does the same j's for each
        # broadcast it receives -- the legacy tables stored one copy per
        # (i, rank) pair).
        idx_of = {sn_: x for x, sn_ in enumerate(snodes)}
        for spec in plan.col_bcasts:
            i = spec.key[2]
            vcb[kn + i] = VecBroadcast(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                self._on_colbcast_delivery_vec, (st, secs[idx_of[i]], i),
            )
        gl: dict[int, int] = {}
        st.gemms_left = gl
        fin_args: dict[int, tuple] = {}
        # Each reduce's rank -> tree position map lives only in this
        # call: the memoized trees carry none.
        for spec in plan.row_reduces:
            j = spec.key[2]
            tree = self._tree(spec)
            pos = dict(zip(tree.ranks, range(tree.size)))
            jrow_j = (j % pr) * pc
            jn = j * nranks
            red = VecReduce(
                m, tree, spec.key, spec.nbytes, spec.kind,
                [pos[jrow_j + c] for c in ucols],
                self._on_rowreduce_complete_vec, (st, j),
            )
            for c, cnt in zip(ucols, ucnts):
                r = jrow_j + c
                gkey = jn + r
                gl[gkey] = cnt
                fin_args[gkey] = (gl, gkey, red, pos[r])
        dl: dict[int, int] = {}
        st.diag_left = dl
        for jrow, g in rowgroups.items():
            dl[jrow + kc] = len(g)
        spec = plan.col_reduce
        tree = self._tree(spec)
        pos = dict(zip(tree.ranks, range(tree.size)))
        cr = VecReduce(
            m, tree, spec.key, spec.nbytes, spec.kind,
            [pos[d] for d in dl],
            self._on_colreduce_complete_vec, st,
        )
        dfin = {d: (dl, d, cr, pos[d]) for d in dl}
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
                dfin[dest],
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
        # Per contributing rank: its row group's block indices, the
        # shared countdown tuples of its (j, rank) pairs, and the j-part
        # of each readiness key -- one table per rank, reused by every
        # col-bcast delivery there (block order throughout).
        bg: dict[int, tuple] = {}
        st.bcast_gemms = bg
        for jrow, group in rowgroups.items():
            jsn = [snodes[x] * nsup for x in group]
            for c in ucols:
                rank = jrow + c
                bg[rank] = (
                    group,
                    [fin_args[snodes[x] * nranks + rank] for x in group],
                    jsn,
                )
        return diag_bc

    def _mark_ready_vec(self, rkey: int) -> None:
        self._ready.add(rkey)
        w = self._vwaiters.pop(rkey, None)
        if w is not None:
            post = self.machine.post_named
            hid = self._hid_gemm
            for rank, sec, arg in w:
                post(rank, sec, hid, arg)

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

    def _base_fin_vec(self, arg) -> None:
        st, lu = arg
        st.base = None if lu is None else self._invert_diag(lu)

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
        tab = st.bcast_gemms.get(rank)
        if tab is None:
            return
        group, fins, jsn = tab
        if payload is not None:
            st.uhat[(i, rank)] = payload
            fins = [(f, i) for f in fins]
        ready = self._ready
        waiters = self._vwaiters
        post = self.machine.post_named
        hid = self._hid_gemm
        for x in range(len(group)):
            rkey = jsn[x] + i
            if rkey in ready:
                post(rank, sec_row[group[x]], hid, fins[x])
            else:
                ent = (rank, sec_row[group[x]], fins[x])
                w = waiters.get(rkey)
                if w is None:
                    waiters[rkey] = [ent]
                else:
                    w.append(ent)

    def _gemm_fin_vec(self, arg) -> None:
        gl, gkey, red, cpos = arg
        n = gl[gkey] - 1
        gl[gkey] = n
        if n == 0:
            red.contribute_pos(cpos)

    def _gemm_fin_num(self, arg) -> None:
        (gl, gkey, red, cpos), i = arg
        k = red.tag[1]  # the row reduce's tag is ("rr", k, j)
        j = gkey // self.grid.size
        partial = self.states[k].row_partial
        _accumulate(partial, gkey, self._compute_gemm(k, i, j))
        n = gl[gkey] - 1
        gl[gkey] = n
        if n == 0:
            red.contribute_pos(cpos, partial.pop(gkey))

    def _on_rowreduce_complete_vec(self, ctx, value) -> None:
        st, j = ctx
        rkey, dest, u_owner, xbtag, nbytes, bkey, dcsec, dfin = st.rr_info[j]
        back = None
        if value is not None:
            ainv_jk = -value
            st.ainv_low[j] = ainv_jk
            self.ainv_data[(j, st.plan.k)] = ainv_jk
            back = ainv_jk.T
            dfin = (dfin, st, j)
        self._mark_ready_vec(rkey)
        self.machine.send_pt(
            dest, u_owner, xbtag, nbytes, self._cid_back,
            self._on_cross_back_vec, bkey, back,
        )
        self.machine.post_named(dest, dcsec, self._hid_diagc, dfin)

    def _on_cross_back_vec(self, dst: int, payload, aux: int) -> None:
        if payload is not None:
            # Upper Ainv block (K, J), aux = k * nsup + j.
            self.ainv_data[divmod(aux, self._nsup)] = payload
        self._mark_ready_vec(aux)

    def _diag_fin_vec(self, arg) -> None:
        dl, dest, cr, cpos = arg
        n = dl[dest] - 1
        dl[dest] = n
        if n == 0:
            cr.contribute_pos(cpos)

    def _diag_fin_num(self, arg) -> None:
        (dl, dest, cr, cpos), st, j = arg
        # Local diagonal contribution Lhat(J,K)^T @ Ainv(J,K).
        _accumulate(st.diag_partial, dest, st.lhat[j].T @ st.ainv_low[j])
        n = dl[dest] - 1
        dl[dest] = n
        if n == 0:
            cr.contribute_pos(cpos, st.diag_partial.pop(dest))

    def _on_colreduce_complete_vec(self, st, value) -> None:
        self.machine.post_named(
            st.plan.diag_owner, st.finish_sec, self._hid_colred, (st, value)
        )

    def _colred_fin_vec(self, arg) -> None:
        st, value = arg
        k = st.plan.k
        if value is not None:
            st.diag_value = st.base - value
            self.ainv_data[(k, k)] = st.diag_value
        self._mark_ready_vec(k * self._nsup + k)
        st.release()
        self._supernode_finished()

    # -- window entry ----------------------------------------------------------

    def _enter_window(self, plan: SupernodePlan) -> tuple:
        if self._vec:
            return (self._setup_supernode_vec(plan),)
        self.states[plan.k].enter_legacy()
        self._gemm_counts(plan)
        self._build_collectives(plan)
        return (self.collectives[plan.diag_bcast.key],)

    # -- phase 1: diagonal broadcast and panel normalization ---------------------

    def _on_diag_delivery(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width
        pr, pc = self.grid.pr, self.grid.pc
        if rank == plan.diag_owner:
            self._post_base(st, rank, payload)
        # Normalize every local L(I,K) block owned by this rank.
        for b in st.norm_blocks.get(rank, ()):
            i = b.snode

            def fin_norm(i=i, b=b, payload=payload, rank=rank):
                lhat = self._normalize(k, i, payload) if self.numeric else None
                st.lhat[i] = lhat
                # Cross-send Lhat^T to the owner of U(K,I).
                u_owner = self.grid.rank(k % pr, i % pc)
                nbytes = st.cross_nbytes[i]
                self.machine.post_send(
                    rank,
                    u_owner,
                    ("cs", k, i),
                    nbytes,
                    "cross-send",
                    lhat.T if self.numeric else None,
                )

            self.machine.post_compute(
                rank, 0.0, fin_norm, flops=s * s * b.nrows, label="normalize"
            )

    # -- phase 2: cross send -> column broadcast ---------------------------------

    def _on_cross_send(self, k: int, i: int, payload: Any) -> None:
        bc = self.collectives.get(("cb", k, i))
        if bc is None:  # pragma: no cover - plan always emits col-bcasts
            raise RuntimeError(f"missing col-bcast ({k}, {i})")
        bc.start(payload)

    # -- phase 3: broadcast delivery -> local GEMMs -------------------------------

    def _on_colbcast_delivery(self, k: int, i: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        st.uhat[(i, rank)] = payload
        for j in st.bcast_gemms.get((i, rank), ()):
            self._schedule_or_wait((j, i), (k, i, j, rank))

    def _schedule_gemm(self, k: int, i: int, j: int, rank: int) -> None:
        st = self.states[k]
        self._post_contribution(
            rank, 2.0 * st.nrows[i] * st.nrows[j] * st.plan.width, "gemm",
            lambda: self._compute_gemm(k, i, j),
            st.row_partial, st.gemms_left, (j, rank), ("rr", k, j),
        )

    def _compute_gemm(self, k: int, i: int, j: int) -> np.ndarray:
        """Numeric contribution  Ainv(J,I)[needed rows, needed cols] @ Lhat(I,K)."""
        struct = self.struct
        rows_j = struct.block_row_indices(k, j)  # needed rows of supernode J
        rows_i = struct.block_row_indices(k, i)  # needed rows (=cols here) of I
        sub = gather_block(struct, self.ainv_data[(j, i)], j, i, rows_j, rows_i)
        uhat = self.states[k].uhat[(i, self.grid.rank(j % self.grid.pr, i % self.grid.pc))]
        return sub @ uhat.T  # uhat.T = Lhat(I,K), (r_i, s)

    # -- phase 4: row reduce completion -------------------------------------------

    def _on_rowreduce_complete(self, k: int, j: int, value: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width
        pr, pc = self.grid.pr, self.grid.pc
        dest = self.grid.rank(j % pr, k % pc)
        rj = st.nrows[j]
        ainv_jk = -value if self.numeric else None
        st.ainv_low[j] = ainv_jk
        self._mark_ainv_ready((j, k), ainv_jk)
        # Cross-back: populate the upper storage at the owner of U(K,J).
        u_owner = self.grid.rank(k % pr, j % pc)
        nbytes = st.back_nbytes[j]
        self.machine.post_send(
            dest,
            u_owner,
            ("xb", k, j),
            nbytes,
            "cross-back",
            ainv_jk.T if self.numeric else None,
        )

        # Local diagonal contribution Lhat(J,K)^T @ Ainv(J,K).
        self._post_contribution(
            dest, 2.0 * s * rj * s, "diag-contrib",
            lambda: st.lhat[j].T @ ainv_jk,
            st.diag_partial, st.diag_left, dest, ("cr", k),
        )

    def _on_cross_back(self, k: int, j: int, payload: Any) -> None:
        # Upper Ainv block (K, J): rows = cols(K), cols = block rows of J.
        self._mark_ainv_ready((k, j), payload)

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
            if self._vec:
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
