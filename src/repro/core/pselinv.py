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
closure-free (registered task ids + tuple arguments).  Numeric payloads
ride the same point records (numeric tasks get their data wrapped onto
the precomputed argument and a numeric handler variant under the same
id).  The protocol speaks only the machine's compiled interface --
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
(:mod:`repro.core.pselinv_unsym`, still a per-rank tag dispatch on the
heapq machine) run on one skeleton, :class:`_PSelInvDriver` (window,
numeric kernels, result), and every GEMM of both takes its ``Ainv``
operand through :func:`gather_block`: one ``ndarray.searchsorted`` on
the structural side of the stored block and one open-mesh index per
GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import VecBroadcast, VecReduce, record_shapes
from ..comm.trees import compiled_tree, tree_cache_info
from ..simulate.machine import CommStats, Machine, VecMachine
from ..simulate.network import Network, NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.selinv import SelectedInverse
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import BYTES_PER_ENTRY, SupernodePlan, iter_plans
from .volume import collective_seed

__all__ = ["PSelInvResult", "SimulatedPSelInv", "gather_block", "run_pselinv"]

# The machine (and through it the scheduler) each engine runs on.
_MACHINES = {"vectorized": VecMachine, "legacy": Machine}


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

    A supernode keeps after it finishes only what
    :meth:`_PSelInvDriver._gather_inverse` reads -- ``plan``,
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
        "bcast_gemms",
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
        self.row_partial: dict[int, Any] = {}  # J * nranks + rank -> sum
        self.diag_partial: dict[int, Any] = {}  # rank -> partial (s, s)
        self.base: Any = None  # inv(U_KK) inv(L_KK) at the diagonal owner
        self.diag_value: Any = None
        # Tables compiled on window entry (_setup_supernode_vec), which
        # also sets the diagonal task durations base_sec / finish_sec:
        # gemms_left is J * nranks + rank -> outstanding GEMMs and
        # diag_left rank -> outstanding rows J; bcast_gemms is rank ->
        # (group, fins, jsn), that rank's row-group block indices, the
        # GEMM countdown tuples of its (J, rank) pairs and J * nsup per
        # block, shared by every col-bcast delivered there; rr_info is
        # J -> the row-reduce completion's arguments; norm_vec is L-panel
        # owner rank -> [(normalize seconds, cross-send arguments)].
        self.gemms_left: dict[int, int] | None = None
        self.diag_left: dict[int, int] | None = None
        self.bcast_gemms: dict[int, tuple] | None = None
        self.rr_info: dict[int, tuple] | None = None
        self.norm_vec: dict[int, list] | None = None

    def release(self) -> None:
        """Drop the protocol's tables and the numeric panels of a
        finished supernode.  Late diag/col-bcast deliveries to relay
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
    L-panel kernels and the result.  A subclass supplies ``_iter_plans``
    and ``_state_cls`` (its plans and per-supernode bookkeeping),
    ``_enter_window(plan)`` (build supernode ``plan.k``'s collectives,
    return the diagonal broadcasts to start), ``_mark_ainv_ready(key,
    data)`` (``Ainv`` block ``key`` is available) and its handlers.
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
        # Numeric Ainv blocks by (row_snode, col_snode).
        self.ainv_data: dict[tuple[int, int], Any] = {}
        self.done_diag = 0
        self._ran = False

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
        self._mark_ainv_ready((k, k), st.diag_value)
        self._supernode_finished()

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
        )
        if metrics is not None:
            self.machine.sim.attach_metrics(metrics)
        # Trees depend on (scheme, seed, hybrid threshold, grid, struct),
        # not on the engine; callers sweeping over jitter/placement seeds
        # may share a cache across runs with identical configuration.  A
        # guard key catches accidental reuse.
        self._tree_cache = tree_cache if tree_cache is not None else {}
        guard = (
            "__config__", scheme, seed, hybrid_threshold, grid.pr, grid.pc,
            struct.nsup,
        )
        prior = self._tree_cache.setdefault("__guard__", guard)
        if prior != guard:
            raise ValueError(
                "tree_cache was built for a different configuration: "
                f"{prior} vs {guard}"
            )
        self._init_vec_protocol()

    # -- setup ------------------------------------------------------------

    def _tree(self, spec) -> Any:
        """The spec's :class:`CompiledTree`, memoized per run/config."""
        key = spec.key
        tree = self._tree_cache.get(key)
        if tree is None:
            tree = compiled_tree(
                self.scheme,
                spec.root,
                spec.participants,
                collective_seed(self.seed, key),
                hybrid_threshold=self.hybrid_threshold,
            )
            self._tree_cache[key] = tree
        return tree

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

        Builds the collectives and the per-rank GEMM, normalize and
        diagonal tables, and precomputes, in bulk numpy expressions,
        every compute duration.  All duration arithmetic reproduces
        ``Network.compute_time``'s exact float expression (the products
        are exact integers below 2^53, so factoring them elementwise
        cannot change a bit).
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
        # Collectives go up in a fixed order (diag bcast, col bcasts, row
        # reduces, col reduce): reduce construction can emit
        # degenerate-relay sends, so this order is part of the pinned
        # outcome.
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
        # broadcast it receives).
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

    def _compute_gemm(self, k: int, i: int, j: int) -> np.ndarray:
        """Numeric contribution  Ainv(J,I)[needed rows, needed cols] @ Lhat(I,K)."""
        struct = self.struct
        rows_j = struct.block_row_indices(k, j)  # needed rows of supernode J
        rows_i = struct.block_row_indices(k, i)  # needed rows (=cols here) of I
        sub = gather_block(struct, self.ainv_data[(j, i)], j, i, rows_j, rows_i)
        uhat = self.states[k].uhat[(i, self.grid.rank(j % self.grid.pr, i % self.grid.pc))]
        return sub @ uhat.T  # uhat.T = Lhat(I,K), (r_i, s)

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
        return (self._setup_supernode_vec(plan),)

    def _mark_ainv_ready(self, key: tuple[int, int], data: Any) -> None:
        """A root supernode's diagonal block is ready (the skeleton's
        hook; the compiled handlers call :meth:`_mark_ready_vec`)."""
        self.ainv_data[key] = data
        self._mark_ready_vec(key[0] * self._nsup + key[1])

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
