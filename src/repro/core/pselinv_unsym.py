"""Simulated parallel selected inversion for UNSYMMETRIC matrices.

The paper treats symmetric matrices and names the asymmetric extension as
work in progress ("the same communication strategy can be naturally
extended to asymmetric matrices"); this module is that extension, built
on the same tree collectives.  Without ``Uhat = Lhat^T``, the U panels
carry independent data, so every L-side pipeline stage gains a mirrored
U-side stage (see :mod:`repro.core.plan_unsym` for the event table):

* the diagonal block is broadcast twice -- down grid column ``K mod Pc``
  (L normalization) and along grid row ``K mod Pr`` (U normalization);
* ``Lhat(I,K)`` cross-ships L->U and is *column*-broadcast for the
  GEMM-L pipeline producing the lower blocks ``Ainv(C,K)``;
* ``Uhat(K,I)`` cross-ships U->L and is *row*-broadcast for the GEMM-U
  pipeline producing the upper blocks ``Ainv(K,C)`` in place at their
  owners (the symmetric algorithm's cross-backs disappear);
* the diagonal update reduces ``Ainv(K,J) Lhat(J,K)`` along grid row
  ``K mod Pr`` -- the ``Lhat`` factor is already present at each upper
  owner because it was that block's column-broadcast root.

Everything but the protocol comes from the symmetric driver's
skeleton, :class:`~repro.core.pselinv._PSelInvDriver`: the lookahead
window, the collective builders, the ``Ainv`` readiness table (int keys
``row * nsup + col``), the ``diag-inv`` task, the L-side numeric
kernels, the GEMM operand (block offsets computed once per supernode,
one locator per stored off-diagonal pair) and the result.  The protocol
speaks the machine's compiled interface, like the symmetric one:
collectives are :class:`~repro.comm.collectives.VecBroadcast` /
:class:`~repro.comm.collectives.VecReduce` over
:class:`~repro.comm.trees.CompiledTree` tables, whose delivery and
completion callbacks get the supernode's state as their ``ctx``; the two
cross sends ride ``send_pt``; every compute task is a registered task
posted with ``post_named``, its duration ``Network.compute_time`` of the
task's flop count.  The driver runs on
:class:`~repro.simulate.machine.VecMachine` (no ``engine=`` option); its
pinned outcomes were recorded on the heapq machine and hold on either
(the tests run them on both).

Numeric mode is verified against the sequential unsymmetric oracle
exactly, which is the strongest evidence the mirrored dataflow is right.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import VecBroadcast
from ..simulate.machine import VecMachine
from ..simulate.network import NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan_unsym import UnsymSupernodePlan, iter_unsym_plans
from .pselinv import PSelInvResult, _PSelInvDriver

__all__ = ["SimulatedPSelInvUnsym", "run_pselinv_unsym"]


class _UnsymState:
    """Per-supernode bookkeeping for the mirrored pipelines.

    A reduction counts its contributors' local tasks itself (a rank's
    GEMMs of one row or column, its diagonal contributions) and sums
    their values, so each finished task is one
    :meth:`~repro.comm.collectives.VecReduce.contribute_pos` call and
    the state keeps no countdown.  A reduction is held here, with its
    rank -> tree position map, only until it completes (the diagonal
    one until the diagonal finishes): its completion context holds this
    state, so a reduction kept for good would be a reference cycle
    outliving the run while the drain pauses the cyclic collector.
    Each broadcast waiting on a cross send is held until that send
    starts it.

    A supernode is done once its diagonal is finished and every row
    reduction has landed (the diagonal does not wait for the row
    reductions): ``dq`` is held until the diagonal finishes, so an
    empty ``rr`` with ``dq`` cleared marks it.  It then keeps only what
    :meth:`~repro.core.pselinv._PSelInvDriver._gather_inverse` reads --
    ``plan``, ``diag_value`` and ``ainv_low`` (plus the driver's
    ``ainv_data``) -- and :meth:`release` drops the rest.
    """

    __slots__ = (
        "plan",
        "lhat_at_u",  # I -> Lhat(I,K) stashed at its col-bcast root
        "bcast_l",    # (I, rank) -> Lhat payload from col-bcast
        "bcast_u",    # (I, rank) -> Uhat payload from row-bcast
        "ainv_low",   # J -> Ainv(J,K)
        "ainv_up",    # J -> Ainv(K,J)
        "base",
        "diag_value",
        "norm_l",
        "norm_u",
        "gemms_l",
        "gemms_u",
        "nrows",
        "l2u_nbytes",
        "u2l_nbytes",
        "cb",         # I -> col-bcast waiting on its cross-l2u
        "rb",         # I -> row-bcast waiting on its cross-u2l
        "rr",         # J -> (row-reduce, positions) until it completes
        "cu",         # J -> (col-ureduce, positions) until it completes
        "dq",         # (diag-rreduce, positions) until the diagonal finishes
        "offs",       # I -> local column offsets of block I (numeric)
        "segs",       # I -> block I's panel rows (numeric)
    )

    def __init__(self, plan: UnsymSupernodePlan):
        self.plan = plan
        self.lhat_at_u: dict[int, Any] = {}
        self.bcast_l: dict[tuple[int, int], Any] = {}
        self.bcast_u: dict[tuple[int, int], Any] = {}
        self.ainv_low: dict[int, Any] = {}
        self.ainv_up: dict[int, Any] = {}
        self.base: Any = None
        self.diag_value: Any = None
        self.norm_l: dict[int, list] = {}
        self.norm_u: dict[int, list] = {}
        self.gemms_l: dict[tuple[int, int], list[int]] = {}
        self.gemms_u: dict[tuple[int, int], list[int]] = {}
        self.nrows: dict[int, int] = {b.snode: b.nrows for b in plan.blocks}
        self.l2u_nbytes = {p.key[2]: p.nbytes for p in plan.cross_l2u}
        self.u2l_nbytes = {p.key[2]: p.nbytes for p in plan.cross_u2l}
        self.cb: dict[int, VecBroadcast] = {}
        self.rb: dict[int, VecBroadcast] = {}
        self.rr: dict[int, tuple] = {}
        self.cu: dict[int, tuple] = {}
        self.dq: tuple | None = None
        self.offs: dict[int, np.ndarray] | None = None
        self.segs: dict[int, slice] | None = None

    def release(self) -> None:
        """Drop the dispatch tables and the numeric panels of a done
        supernode.  Late broadcast deliveries to relay ranks still look
        themselves up in ``norm_l`` / ``norm_u`` / ``gemms_l`` /
        ``gemms_u``, so those become empty; every other table and panel
        becomes ``None``."""
        self.norm_l = {}
        self.norm_u = {}
        self.gemms_l = {}
        self.gemms_u = {}
        self.lhat_at_u = None
        self.bcast_l = None
        self.bcast_u = None
        self.ainv_up = None
        self.base = None
        self.nrows = None
        self.l2u_nbytes = None
        self.u2l_nbytes = None
        self.offs = None
        self.segs = None


class SimulatedPSelInvUnsym(_PSelInvDriver):
    """One configured unsymmetric PSelInv simulation; call :meth:`run`."""

    _iter_plans = staticmethod(iter_unsym_plans)
    _state_cls = _UnsymState

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
        lookahead: int | None = 32,
        plans: list[UnsymSupernodePlan] | None = None,
    ) -> None:
        super().__init__(
            struct, grid, scheme, factor=factor, network=network, seed=seed,
            placement_seed=placement_seed, jitter_seed=jitter_seed,
            hybrid_threshold=hybrid_threshold, lookahead=lookahead,
            plans=plans, machine_cls=VecMachine,
        )
        m = self.machine
        task = m.register_task
        self._seconds = m.network.compute_time
        self._cid_l2u = m.category_id("cross-l2u")
        self._cid_u2l = m.category_id("cross-u2l")
        self._hid_norm_l = task(self._norm_l_fin, "normalize")
        self._hid_norm_u = task(self._norm_u_fin, "normalize")
        self._hid_gemm_l = task(self._gemm_l_fin, "gemm")
        self._hid_gemm_u = task(self._gemm_u_fin, "gemm")
        self._hid_diagc = task(self._diagc_fin, "diag-contrib")
        self._hid_finish = task(self._finish_fin, "finish-diag")

    # -- window entry -------------------------------------------------------

    def _dispatch_tables(self, plan: UnsymSupernodePlan) -> None:
        st = self.states[plan.k]
        pr, pc = self.grid.pr, self.grid.pc
        kr, kc = plan.k % pr, plan.k % pc
        for bj in plan.blocks:
            j = bj.snode
            for bi in plan.blocks:
                i = bi.snode
                rl = self.grid.rank(j % pr, i % pc)  # GEMM-L site
                st.gemms_l.setdefault((i, rl), []).append(j)
                ru = self.grid.rank(i % pr, j % pc)  # GEMM-U site
                st.gemms_u.setdefault((i, ru), []).append(j)
            udest = self.grid.rank(kr, j % pc)
            st.norm_l.setdefault(self.grid.rank(j % pr, kc), []).append(bj)
            st.norm_u.setdefault(udest, []).append(bj)

    def _enter_window(self, plan: UnsymSupernodePlan) -> tuple:
        self._dispatch_tables(plan)
        st = self.states[plan.k]
        rank = self.grid.rank
        pr, pc = self.grid.pr, self.grid.pc
        # Blocks per grid row and per grid column: the local task count
        # of every contributor.  Row reduce J's rank in grid column c
        # does a GEMM-L per block in that column, column reduce J's rank
        # in grid row r a GEMM-U per block in that row, and the diagonal
        # reduce's rank in grid column c a contribution per block there.
        row_n = Counter(b.snode % pr for b in plan.blocks)
        col_n = Counter(b.snode % pc for b in plan.blocks)
        c_rows = sorted(row_n)
        c_cols = sorted(col_n)
        n_rows = [row_n[r] for r in c_rows]
        n_cols = [col_n[c] for c in c_cols]
        # Collectives go up in a fixed order (diag bcasts, col bcasts, row
        # bcasts, row reduces, col reduces, diag reduce): reduce
        # construction can emit degenerate-relay sends, so this order is
        # part of the pinned outcome.
        diag_col = self._bcast(plan.diag_bcast, self._on_diag_col, st)
        diag_row = self._bcast(plan.diag_rbcast, self._on_diag_row, st)
        for spec in plan.col_bcasts:
            i = spec.key[2]
            st.cb[i] = self._bcast(spec, self._on_col_delivery, (st, i))
        for spec in plan.row_bcasts:
            i = spec.key[2]
            st.rb[i] = self._bcast(spec, self._on_row_delivery, (st, i))
        for spec in plan.row_reduces:
            j = spec.key[2]
            st.rr[j] = self._reduce(
                spec, [rank(j % pr, c) for c in c_cols], n_cols,
                self._on_rowreduce, (st, j),
            )
        for spec in plan.col_ureduces:
            j = spec.key[2]
            st.cu[j] = self._reduce(
                spec, [rank(r, j % pc) for r in c_rows], n_rows,
                self._on_col_ureduce, (st, j),
            )
        st.dq = self._reduce(
            plan.diag_rreduce, [rank(plan.k % pr, c) for c in c_cols],
            n_cols, self._on_diag_reduce, st,
        )
        return diag_col, diag_row

    # -- the diagonal block and normalization ---------------------------------

    def _raw_u_block(self, k: int, i: int) -> np.ndarray:
        return self.factor.u_panel(k)[:, self.states[k].segs[i]]

    def _on_diag_col(self, st: _UnsymState, rank: int, payload: Any) -> None:
        plan = st.plan
        s = plan.width
        post = self.machine.post_named
        if rank == plan.diag_owner:
            # The base term inv(U_KK) inv(L_KK), while the panels move.
            post(rank, self._seconds(s**3), self._hid_base, (st, payload))
        for b in st.norm_l.get(rank, ()):
            post(rank, self._seconds(s * s * b.nrows), self._hid_norm_l,
                 (st, b.snode, rank, payload))

    def _on_diag_row(self, st: _UnsymState, rank: int, payload: Any) -> None:
        s = st.plan.width
        for b in st.norm_u.get(rank, ()):
            self.machine.post_named(
                rank, self._seconds(s * s * b.nrows), self._hid_norm_u,
                (st, b.snode, rank, payload),
            )

    def _norm_l_fin(self, arg) -> None:
        st, i, rank, lu = arg
        k = st.plan.k
        lhat = self._normalize(k, i, lu) if self.numeric else None
        u_owner = self.grid.rank(k % self.grid.pr, i % self.grid.pc)
        self.machine.send_pt(
            rank, u_owner, ("cl", k, i), st.l2u_nbytes[i], self._cid_l2u,
            self._on_cross_l2u, (st, i), lhat,
        )

    def _norm_u_fin(self, arg) -> None:
        st, i, rank, lu = arg
        k = st.plan.k
        if self.numeric:
            uhat = solve_triangular(lu, self._raw_u_block(k, i), lower=False)
        else:
            uhat = None
        l_owner = self.grid.rank(i % self.grid.pr, k % self.grid.pc)
        self.machine.send_pt(
            rank, l_owner, ("cu", k, i), st.u2l_nbytes[i], self._cid_u2l,
            self._on_cross_u2l, (st, i), uhat,
        )

    # -- cross sends start the panel broadcasts -------------------------------

    def _on_cross_l2u(self, dst: int, payload: Any, aux: tuple) -> None:
        st, i = aux
        st.lhat_at_u[i] = payload  # kept for the diagonal update
        st.cb.pop(i).start(payload)
        # The diagonal contribution joins on {Ainv(K,i) reduced} AND
        # {Lhat(i,K) cross-shipped}; fire if the reduce finished first.
        if i in st.ainv_up:
            self._post_diag_contrib(st, i)

    def _on_cross_u2l(self, dst: int, payload: Any, aux: tuple) -> None:
        st, i = aux
        st.rb.pop(i).start(payload)

    # -- GEMM pipelines -------------------------------------------------------

    def _on_col_delivery(self, ctx, rank: int, payload: Any) -> None:
        st, i = ctx
        js = st.gemms_l.get((i, rank))
        if not js:
            return  # a relay rank
        if payload is not None:
            st.bcast_l[(i, rank)] = payload
        s, nrows, nsup = st.plan.width, st.nrows, self._nsup
        for j in js:
            self._post_when_ready(
                j * nsup + i, rank, self._seconds(2.0 * nrows[i] * nrows[j] * s),
                self._hid_gemm_l, (st, i, j, rank),
            )

    def _on_row_delivery(self, ctx, rank: int, payload: Any) -> None:
        st, i = ctx
        js = st.gemms_u.get((i, rank))
        if not js:
            return  # a relay rank
        if payload is not None:
            st.bcast_u[(i, rank)] = payload
        s, nrows, nsup = st.plan.width, st.nrows, self._nsup
        for j in js:
            self._post_when_ready(
                i * nsup + j, rank, self._seconds(2.0 * nrows[i] * nrows[j] * s),
                self._hid_gemm_u, (st, i, j, rank),
            )

    def _gemm_l_fin(self, arg) -> None:
        st, i, j, rank = arg
        value = None
        if self.numeric:
            sub = self._ainv_operand(st.offs, j, i)
            value = sub @ st.bcast_l[(i, rank)]
        red, pos = st.rr[j]
        red.contribute_pos(pos[rank], value)

    def _gemm_u_fin(self, arg) -> None:
        st, i, j, rank = arg
        value = None
        if self.numeric:
            sub = self._ainv_operand(st.offs, i, j)
            value = st.bcast_u[(i, rank)] @ sub
        red, pos = st.cu[j]
        red.contribute_pos(pos[rank], value)

    # -- reductions -------------------------------------------------------------

    def _on_rowreduce(self, ctx, value: Any) -> None:
        st, j = ctx
        del st.rr[j]
        ainv_jk = None
        if self.numeric:
            ainv_jk = -value
            self._store_locator(st, j)
        st.ainv_low[j] = ainv_jk
        self._mark_ainv_ready((j, st.plan.k), ainv_jk)
        if not st.rr and st.dq is None:
            st.release()  # the diagonal finished first

    def _on_col_ureduce(self, ctx, value: Any) -> None:
        st, j = ctx
        del st.cu[j]
        ainv_kj = None
        if self.numeric:
            ainv_kj = -value
            self._store_locator(st, j)
        st.ainv_up[j] = ainv_kj
        self._mark_ainv_ready((st.plan.k, j), ainv_kj)
        if j in st.lhat_at_u:
            self._post_diag_contrib(st, j)

    def _post_diag_contrib(self, st: _UnsymState, j: int) -> None:
        """Both inputs of the diagonal contribution for row-block ``j``
        are at the owner of U(K,J).  Exactly one of the two joining
        events sees the other's result, so this runs once per ``j``."""
        s = st.plan.width
        dest = self.grid.rank(st.plan.k % self.grid.pr, j % self.grid.pc)
        self.machine.post_named(
            dest, self._seconds(2.0 * s * st.nrows[j] * s), self._hid_diagc,
            (st, j, dest),
        )

    def _diagc_fin(self, arg) -> None:
        st, j, dest = arg
        # (s, rj) @ (rj, s)
        value = st.ainv_up[j] @ st.lhat_at_u[j] if self.numeric else None
        red, pos = st.dq
        red.contribute_pos(pos[dest], value)

    def _on_diag_reduce(self, st: _UnsymState, value: Any) -> None:
        """The diagonal reduction landed: the diagonal owner finishes
        ``Ainv(K,K) = base - sum`` and the supernode leaves the window
        (``_finish_fin`` drops the reduction)."""
        s = st.plan.width
        self.machine.post_named(
            st.plan.diag_owner, self._seconds(float(s * s)), self._hid_finish,
            (st, value),
        )

    def _finish_fin(self, arg) -> None:
        st, value = arg
        st.dq = None
        if self.numeric:
            st.diag_value = st.base - value
        k = st.plan.k
        self._mark_ainv_ready((k, k), st.diag_value)
        if not st.rr:
            st.release()  # every row reduction landed first
        self._supernode_finished()


def run_pselinv_unsym(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str = "shifted",
    **kwargs: Any,
) -> PSelInvResult:
    """Convenience wrapper for the unsymmetric simulated PSelInv."""
    return SimulatedPSelInvUnsym(struct, grid, scheme, **kwargs).run()
