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
  and a numeric handler variant under the same id), and telemetry,
  event-log and per-message-overhead runs take the machine's
  unspecialized route, which calls the hooks.
* ``"legacy"`` -- the original heapq :class:`Simulator` + per-message
  :class:`Message` objects + dict-based
  :class:`~repro.comm.collectives.TreeBroadcast` /
  :class:`~repro.comm.collectives.TreeReduce`: the reference oracle.

Both produce bit-identical results -- same event count, same final
timestamps, same per-rank stats, the same numeric inverse -- which the
engine-equivalence tests, ``benchmarks/check_engine_identity.py`` and
``benchmarks/bench_runner_scaling.py`` assert; the vectorized engine is
the faster, hence the default.  The numeric arithmetic
(:meth:`SimulatedPSelInv._compute_gemm`, :meth:`_invert_diag`,
:meth:`_normalize`) is shared by both protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import TreeBroadcast, TreeReduce, VecBroadcast, VecReduce
from ..comm.trees import build_tree, compiled_tree, tree_cache_info
from ..simulate.machine import CommStats, Machine, Message, VecMachine
from ..simulate.network import Network, NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.selinv import SelectedInverse
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import BYTES_PER_ENTRY, SupernodePlan, iter_plans
from .volume import collective_seed

__all__ = ["PSelInvResult", "SimulatedPSelInv", "run_pselinv"]

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
    field is only touched by handlers running 'on' its owning rank)."""

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
        self.gemms_left: dict[tuple[int, int], int] = {}  # (J, rank) -> n
        self.diag_partial: dict[int, Any] = {}  # rank -> partial (s, s)
        self.diag_left: dict[int, int] = {}  # rank -> outstanding rows J
        self.base: Any = None  # inv(U_KK) inv(L_KK) at the diagonal owner
        self.diag_value: Any = None
        # Dispatch tables built when the supernode enters the window:
        # rank -> [BlockInfo] of the L(I,K) blocks normalized there, and
        # (i, rank) -> [j, ...] local GEMM row-blocks per broadcast.
        self.norm_blocks: dict[int, list] = {}
        self.bcast_gemms: dict[tuple[int, int], list[int]] = {}
        self.nrows: dict[int, int] = {b.snode: b.nrows for b in plan.blocks}
        # Message sizes straight from the plan so simulator and analytic
        # volume model can never disagree (incl. complex 16-byte entries).
        self.cross_nbytes = {p.key[2]: p.nbytes for p in plan.cross_sends}
        self.back_nbytes = {p.key[2]: p.nbytes for p in plan.cross_backs}


class SimulatedPSelInv:
    """One configured PSelInv simulation; call :meth:`run` once."""

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
        self.engine = engine
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
        # Extra software overhead charged per delivered message; used to
        # model the less-optimized v0.7.3 code path.
        self.extra_msg_overhead = per_message_cpu_overhead
        net = Network(
            grid.size,
            network,
            placement_seed=placement_seed,
            jitter_seed=jitter_seed,
        )
        # ``telemetry`` (a repro.obs.Telemetry bundle, or None) turns on
        # the observability layer: network query tallies, machine-level
        # timeline/hot-spot recording, and simulator loop metrics.  The
        # network must be instrumented before the machine pre-binds its
        # queries.
        self.telemetry = telemetry
        recorder = metrics = None
        if telemetry is not None:
            metrics = telemetry.metrics
            recorder = telemetry.sink()
            if metrics is not None:
                net.instrument(metrics)
        # ``event_log`` (a caller-owned list) enables the machine's
        # structured trace hook; ``repro check`` replays it against the
        # static happens-before model.
        if engine == "vectorized":
            self.machine: Machine = VecMachine(
                grid.size,
                net,
                event_log=event_log,
                recorder=recorder,
                metrics=metrics,
                deliver_cpu_overhead=per_message_cpu_overhead,
            )
        else:
            self.machine = Machine(
                grid.size,
                net,
                event_log=event_log,
                recorder=recorder,
                metrics=metrics,
            )
        if metrics is not None:
            self.machine.sim.attach_metrics(metrics)
        if plans is not None:
            self.plans = plans
        else:
            # Complex matrices (PEXSI pole shifts) move 16-byte entries.
            bpe = BYTES_PER_ENTRY
            if factor is not None and factor.LX and np.iscomplexobj(factor.LX[0]):
                bpe = 2 * BYTES_PER_ENTRY
            self.plans = list(iter_plans(struct, grid, bytes_per_entry=bpe))
        self.states = [_SupernodeState(p) for p in self.plans]
        self.collectives: dict[tuple, Any] = {}
        # Readiness of Ainv blocks: (row_snode, col_snode) -> ready flag;
        # waiters hold deferred GEMMs.
        self.ainv_ready: set[tuple[int, int]] = set()
        self.ainv_data: dict[tuple[int, int], Any] = {}
        self.waiters: dict[tuple[int, int], list] = {}
        self.done_diag = 0
        self._ran = False
        # Trees depend on (scheme, seed, grid, struct) -- and on the
        # engine, which determines the cached representation (dict
        # CommTree or CompiledTree); callers sweeping over jitter/
        # placement seeds may share a cache across runs with identical
        # configuration.  A guard key catches accidental reuse.
        self._tree_cache = tree_cache if tree_cache is not None else {}
        guard = (
            "__config__", scheme, seed, grid.pr, grid.pc, struct.nsup, engine,
        )
        prior = self._tree_cache.setdefault("__guard__", guard)
        if prior != guard:
            raise ValueError(
                "tree_cache was built for a different configuration: "
                f"{prior} vs {guard}"
            )
        self._vec = engine == "vectorized"
        if self._vec:
            self._init_vec_protocol()
        else:
            for r in range(grid.size):
                self.machine.set_handler(r, self._make_handler(r))

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
                lambda value, k=k: self._on_colreduce_complete(k, value),
            )

    def _make_handler(self, rank: int):
        def handler(msg: Message) -> None:
            if self.extra_msg_overhead > 0.0:
                self.machine.post_compute(
                    rank, self.extra_msg_overhead, label="msg-overhead"
                )
            key = msg.tag
            kind = key[0]
            if kind in ("db", "cb"):
                self.collectives[key].on_message(msg)
            elif kind in ("rr", "cr"):
                self.collectives[key].on_message(msg)
            elif kind == "cs":
                self._on_cross_send(key[1], key[2], msg.payload)
            elif kind == "xb":
                self._on_cross_back(key[1], key[2], rank, msg.payload)
            else:  # pragma: no cover - protocol safety net
                raise RuntimeError(f"unknown message tag {key!r}")

        return handler

    # -- helpers ------------------------------------------------------------

    def _block_rows(self, k: int, i: int) -> np.ndarray:
        return self.struct.block_row_indices(k, i)

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
        for spec in plan.row_reduces:
            j = spec.key[2]
            tree = self._tree(spec)
            pos = tree.pos_of()
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
        pos = tree.pos_of()
        cr = VecReduce(
            m, tree, spec.key, spec.nbytes, spec.kind,
            [pos[d] for d in dl],
            self._on_colreduce_complete_vec, st,
        )
        dfin = {d: (dl, d, cr, pos[d]) for d in dl}
        # Per row block j: everything its row-reduce completion touches.
        xnb = st.back_nbytes
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
                xnb[j],
                kn + j,                 # readiness key of Ainv(K,J)
                dc_secs[idx],
                dfin[dest],
            )
        # Per L-panel owner: normalize duration + cross-send arguments.
        cnb = st.cross_nbytes
        nv: dict[int, list] = {}
        st.norm_vec = nv
        for idx in range(nb):
            i = snodes[idx]
            lowner = jrows_l[idx] + kc
            ent = (
                norm_secs[idx],
                (lowner, kr_pc + cols_l[idx], ("cs", k, i), cnb[i], kn + i),
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
        self._supernode_finished()

    # -- phase 0: kickoff ------------------------------------------------------

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
        if not plan.blocks:
            # A root supernode with empty structure: its inverse is
            # just the inverted diagonal block, computed locally.
            s = plan.width
            payload = self.factor.diag_block(k) if self.numeric else None
            self.machine.post_compute(
                plan.diag_owner,
                0.0,
                lambda k=k, payload=payload: self._finish_lonely_diag(
                    k, payload
                ),
                flops=s**3,
                label="diag-inv",
            )
            return
        if self._vec:
            bc = self._setup_supernode_vec(plan)
        else:
            self._gemm_counts(plan)
            self._build_collectives(plan)
            bc = self.collectives[plan.diag_bcast.key]
        payload = self.factor.diag_block(k) if self.numeric else None
        # The broadcast starts as soon as the supernode enters the
        # lookahead window (its factorization output already sits at the
        # root; SuperLU timing is reported separately, as in the paper).
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
            self._mark_ainv_ready((k, k), st.diag_value, self.grid.owner(k, k))
        self._supernode_finished()

    # -- phase 1: diagonal broadcast and panel normalization ---------------------

    def _on_diag_delivery(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width
        pr, pc = self.grid.pr, self.grid.pc
        if rank == plan.diag_owner:
            # Compute the base term inv(U_KK) inv(L_KK) while panels move.
            def fin_base(payload=payload):
                st.base = self._invert_diag(payload) if self.numeric else None

            self.machine.post_compute(
                rank, 0.0, fin_base, flops=s**3, label="diag-inv"
            )
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

    def _raw_l_block(self, k: int, i: int) -> np.ndarray:
        """Slice the raw factor panel block L(I,K) (numeric mode)."""
        rows = self.struct.rows_below[k]
        lo = int(np.searchsorted(rows, self.struct.sn_ptr[i]))
        hi = int(np.searchsorted(rows, self.struct.sn_ptr[i + 1]))
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
        ready = self.ainv_ready
        for j in st.bcast_gemms.get((i, rank), ()):
            if (j, i) in ready:
                self._schedule_gemm(k, i, j, rank)
            else:
                self.waiters.setdefault((j, i), []).append((k, i, j, rank))

    def _mark_ainv_ready(self, key: tuple[int, int], data: Any, owner: int) -> None:
        self.ainv_ready.add(key)
        self.ainv_data[key] = data
        for (k, i, j, rank) in self.waiters.pop(key, []):
            self._schedule_gemm(k, i, j, rank)

    def _schedule_gemm(self, k: int, i: int, j: int, rank: int) -> None:
        st = self.states[k]
        s = st.plan.width
        flops = 2.0 * st.nrows[i] * st.nrows[j] * s

        def fin():
            contrib = self._compute_gemm(k, i, j) if self.numeric else None
            keyp = (j, rank)
            if self.numeric:
                _accumulate(st.row_partial, keyp, contrib)
            st.gemms_left[keyp] -= 1
            if st.gemms_left[keyp] == 0:
                red = self.collectives[("rr", k, j)]
                red.contribute(rank, st.row_partial.pop(keyp, None))

        self.machine.post_compute(rank, 0.0, fin, flops=flops, label="gemm")

    def _compute_gemm(self, k: int, i: int, j: int) -> np.ndarray:
        """Numeric contribution  Ainv(J,I)[needed rows, needed cols] @ Lhat(I,K)."""
        struct = self.struct
        rows_j = self._block_rows(k, j)  # needed rows of supernode J
        rows_i = self._block_rows(k, i)  # needed rows (=cols here) of I
        st = self.states[k]
        uhat = st.uhat[(i, self.grid.rank(j % self.grid.pr, i % self.grid.pc))]
        lhat_ik = uhat.T  # (r_i, s)
        if j > i:
            block = self.ainv_data[(j, i)]  # rows: block rows of (I->J)
            host_rows = struct.block_row_indices(i, j)
            posr = np.searchsorted(host_rows, rows_j)
            posc = rows_i - struct.first_col(i)
            sub = block[np.ix_(posr, posc)]
        elif j == i:
            block = self.ainv_data[(i, i)]  # (s_i, s_i) diagonal block
            loc = rows_i - struct.first_col(i)
            sub = block[np.ix_(loc, loc)]
        else:
            block = self.ainv_data[(j, i)]  # upper block: rows cols(J)
            host_cols = struct.block_row_indices(j, i)
            posr = rows_j - struct.first_col(j)
            posc = np.searchsorted(host_cols, rows_i)
            sub = block[np.ix_(posr, posc)]
        return sub @ lhat_ik

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
        self._mark_ainv_ready((j, k), ainv_jk, dest)
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
        def fin():
            if self.numeric:
                _accumulate(st.diag_partial, dest, st.lhat[j].T @ ainv_jk)
            st.diag_left[dest] -= 1
            if st.diag_left[dest] == 0:
                red = self.collectives[("cr", k)]
                red.contribute(dest, st.diag_partial.pop(dest, None))

        self.machine.post_compute(
            dest, 0.0, fin, flops=2.0 * s * rj * s, label="diag-contrib"
        )

    def _on_cross_back(self, k: int, j: int, rank: int, payload: Any) -> None:
        # Upper Ainv block (K, J): rows = cols(K), cols = block rows of J.
        self._mark_ainv_ready((k, j), payload, rank)

    # -- phase 5: column reduce completion ------------------------------------------

    def _on_colreduce_complete(self, k: int, value: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width

        def fin():
            if self.numeric:
                st.diag_value = st.base - value
            self._mark_ainv_ready((k, k), st.diag_value, plan.diag_owner)
            self._supernode_finished()

        self.machine.post_compute(
            plan.diag_owner, 0.0, fin, flops=float(s * s), label="finish-diag"
        )

    # -- driver ------------------------------------------------------------------

    def run(self, max_events: int | None = None) -> PSelInvResult:
        """Execute the simulation to completion and package the result."""
        if self._ran:
            raise RuntimeError("a SimulatedPSelInv instance runs only once")
        self._ran = True
        metrics = (
            self.telemetry.metrics if self.telemetry is not None else None
        )
        cache_before = tree_cache_info() if metrics is not None else None
        self._kickoff()
        makespan = self.machine.run(max_events=max_events)
        if metrics is not None and cache_before is not None:
            self._record_tree_cache_metrics(metrics, cache_before)
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

    def _gather_inverse(self) -> SelectedInverse:
        """Assemble the distributed numeric blocks into oracle layout."""
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


def run_pselinv(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str = "shifted",
    **kwargs: Any,
) -> PSelInvResult:
    """Convenience wrapper: configure, run, and return the result."""
    return SimulatedPSelInv(struct, grid, scheme, **kwargs).run()
