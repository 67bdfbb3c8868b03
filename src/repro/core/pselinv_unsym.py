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

Everything but the protocol -- the lookahead window, the L-side numeric
kernels, ``Ainv`` readiness and the result -- comes from the symmetric
driver's skeleton, :class:`~repro.core.pselinv._PSelInvDriver`.  It
runs on the legacy heapq machine only (no ``engine=`` option).

Numeric mode is verified against the sequential unsymmetric oracle
exactly, which is the strongest evidence the mirrored dataflow is right.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import TreeBroadcast, TreeReduce
from ..comm.trees import build_tree
from ..simulate.network import NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan_unsym import UnsymSupernodePlan, iter_unsym_plans
from .pselinv import PSelInvResult, _PSelInvDriver, gather_block
from .volume import collective_seed

__all__ = ["SimulatedPSelInvUnsym", "run_pselinv_unsym"]


class _UnsymState:
    """Per-supernode bookkeeping for the mirrored pipelines."""

    __slots__ = (
        "plan",
        "lhat",       # I -> Lhat(I,K) at L owner
        "uhat",       # I -> Uhat(K,I) at U owner
        "lhat_at_u",  # I -> Lhat(I,K) stashed at its col-bcast root
        "bcast_l",    # (I, rank) -> Lhat payload from col-bcast
        "bcast_u",    # (I, rank) -> Uhat payload from row-bcast
        "ainv_low",   # J -> Ainv(J,K)
        "ainv_up",    # J -> Ainv(K,J)
        "rowp",       # (J, rank) -> GEMM-L partial
        "colp",       # (J, rank) -> GEMM-U partial
        "gl_left",
        "gu_left",
        "diag_partial",
        "diag_left",
        "base",
        "diag_value",
        "norm_l",
        "norm_u",
        "gemms_l",
        "gemms_u",
        "nrows",
        "l2u_nbytes",
        "u2l_nbytes",
        "diag_fired",
    )

    def __init__(self, plan: UnsymSupernodePlan):
        self.plan = plan
        self.lhat: dict[int, Any] = {}
        self.uhat: dict[int, Any] = {}
        self.lhat_at_u: dict[int, Any] = {}
        self.bcast_l: dict[tuple[int, int], Any] = {}
        self.bcast_u: dict[tuple[int, int], Any] = {}
        self.ainv_low: dict[int, Any] = {}
        self.ainv_up: dict[int, Any] = {}
        self.rowp: dict[tuple[int, int], Any] = {}
        self.colp: dict[tuple[int, int], Any] = {}
        self.gl_left: dict[tuple[int, int], int] = {}
        self.gu_left: dict[tuple[int, int], int] = {}
        self.diag_partial: dict[int, Any] = {}
        self.diag_left: dict[int, int] = {}
        self.base: Any = None
        self.diag_value: Any = None
        self.norm_l: dict[int, list] = {}
        self.norm_u: dict[int, list] = {}
        self.gemms_l: dict[tuple[int, int], list[int]] = {}
        self.gemms_u: dict[tuple[int, int], list[int]] = {}
        self.nrows: dict[int, int] = {b.snode: b.nrows for b in plan.blocks}
        self.l2u_nbytes = {p.key[2]: p.nbytes for p in plan.cross_l2u}
        self.u2l_nbytes = {p.key[2]: p.nbytes for p in plan.cross_u2l}
        self.diag_fired: set[int] = set()


class SimulatedPSelInvUnsym(_PSelInvDriver):
    """One configured unsymmetric PSelInv simulation; call :meth:`run`."""

    _iter_plans = staticmethod(iter_unsym_plans)
    _state_cls = _UnsymState
    _point_handlers = {"cl": "_on_cross_l2u", "cu": "_on_cross_u2l"}

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
            plans=plans,
        )

    # -- wiring -------------------------------------------------------------

    def _tree(self, spec):
        return build_tree(
            self.scheme, spec.root, spec.participants,
            collective_seed(self.seed, spec.key),
            hybrid_threshold=self.hybrid_threshold,
        )

    def _build_collectives(self, plan: UnsymSupernodePlan) -> None:
        m = self.machine
        k = plan.k
        pr, pc = self.grid.pr, self.grid.pc
        c_rows = sorted({b.snode % pr for b in plan.blocks})
        c_cols = sorted({b.snode % pc for b in plan.blocks})
        kr, kc = k % pr, k % pc

        spec = plan.diag_bcast
        self.collectives[spec.key] = TreeBroadcast(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            lambda rank, payload, k=k: self._on_diag_col(k, rank, payload),
        )
        spec = plan.diag_rbcast
        self.collectives[spec.key] = TreeBroadcast(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            lambda rank, payload, k=k: self._on_diag_row(k, rank, payload),
        )
        for spec in plan.col_bcasts:
            i = spec.key[2]
            self.collectives[spec.key] = TreeBroadcast(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                lambda rank, payload, k=k, i=i: self._on_col_delivery(
                    k, i, rank, payload
                ),
            )
        for spec in plan.row_bcasts:
            i = spec.key[2]
            self.collectives[spec.key] = TreeBroadcast(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                lambda rank, payload, k=k, i=i: self._on_row_delivery(
                    k, i, rank, payload
                ),
            )
        for spec in plan.row_reduces:
            j = spec.key[2]
            contributors = {self.grid.rank(j % pr, c) for c in c_cols}
            self.collectives[spec.key] = TreeReduce(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                contributors,
                lambda value, k=k, j=j: self._on_rowreduce(k, j, value),
            )
        for spec in plan.col_ureduces:
            j = spec.key[2]
            contributors = {self.grid.rank(r, j % pc) for r in c_rows}
            self.collectives[spec.key] = TreeReduce(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                contributors,
                lambda value, k=k, j=j: self._on_col_ureduce(k, j, value),
            )
        spec = plan.diag_rreduce
        contributors = {self.grid.rank(kr, c) for c in c_cols}
        self.collectives[spec.key] = TreeReduce(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            contributors,
            lambda value, k=k: self._on_diag_reduce(k, value),
        )

    def _dispatch_tables(self, plan: UnsymSupernodePlan) -> None:
        st = self.states[plan.k]
        pr, pc = self.grid.pr, self.grid.pc
        kr, kc = plan.k % pr, plan.k % pc
        for bj in plan.blocks:
            j = bj.snode
            for bi in plan.blocks:
                i = bi.snode
                rl = self.grid.rank(j % pr, i % pc)  # GEMM-L site
                st.gl_left[(j, rl)] = st.gl_left.get((j, rl), 0) + 1
                st.gemms_l.setdefault((i, rl), []).append(j)
                ru = self.grid.rank(i % pr, j % pc)  # GEMM-U site
                st.gu_left[(j, ru)] = st.gu_left.get((j, ru), 0) + 1
                st.gemms_u.setdefault((i, ru), []).append(j)
            udest = self.grid.rank(kr, j % pc)
            st.diag_left[udest] = st.diag_left.get(udest, 0) + 1
            st.norm_l.setdefault(self.grid.rank(j % pr, kc), []).append(bj)
            st.norm_u.setdefault(udest, []).append(bj)

    def _enter_window(self, plan: UnsymSupernodePlan) -> tuple:
        self._dispatch_tables(plan)
        self._build_collectives(plan)
        return (
            self.collectives[plan.diag_bcast.key],
            self.collectives[plan.diag_rbcast.key],
        )

    # -- normalization ------------------------------------------------------

    def _raw_u_block(self, k: int, i: int) -> np.ndarray:
        lo, hi = self.struct.rows_below[k].searchsorted(self.struct.sn_ptr[i : i + 2])
        return self.factor.u_panel(k)[:, lo:hi]

    def _on_diag_col(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width
        if rank == plan.diag_owner:
            self._post_base(st, rank, payload)
        pr, pc = self.grid.pr, self.grid.pc
        for b in st.norm_l.get(rank, ()):
            i = b.snode

            def fin(i=i, b=b, payload=payload, rank=rank):
                lhat = self._normalize(k, i, payload) if self.numeric else None
                st.lhat[i] = lhat
                u_owner = self.grid.rank(k % pr, i % pc)
                self.machine.post_send(
                    rank, u_owner, ("cl", k, i), st.l2u_nbytes[i],
                    "cross-l2u", lhat,
                )

            self.machine.post_compute(rank, 0.0, fin, flops=s * s * b.nrows)

    def _on_diag_row(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        s = st.plan.width
        pr, pc = self.grid.pr, self.grid.pc
        for b in st.norm_u.get(rank, ()):
            i = b.snode

            def fin(i=i, b=b, payload=payload, rank=rank):
                if self.numeric:
                    raw = self._raw_u_block(k, i)
                    uhat = solve_triangular(payload, raw, lower=False)
                else:
                    uhat = None
                st.uhat[i] = uhat
                l_owner = self.grid.rank(i % pr, k % pc)
                self.machine.post_send(
                    rank, l_owner, ("cu", k, i), st.u2l_nbytes[i],
                    "cross-u2l", uhat,
                )

            self.machine.post_compute(rank, 0.0, fin, flops=s * s * b.nrows)

    # -- cross sends start the panel broadcasts -------------------------------

    def _on_cross_l2u(self, k: int, i: int, payload: Any) -> None:
        st = self.states[k]
        st.lhat_at_u[i] = payload  # kept for the diagonal update
        self.collectives[("cb", k, i)].start(payload)
        # The diagonal contribution joins on {Ainv(K,i) reduced} AND
        # {Lhat(i,K) cross-shipped}; fire if the reduce finished first.
        if i in st.ainv_up:
            self._try_diag_contrib(k, i)

    def _on_cross_u2l(self, k: int, i: int, payload: Any) -> None:
        self.collectives[("rb", k, i)].start(payload)

    # -- GEMM pipelines -------------------------------------------------------

    def _on_col_delivery(self, k: int, i: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        st.bcast_l[(i, rank)] = payload
        for j in st.gemms_l.get((i, rank), ()):
            self._schedule_or_wait((j, i), ("L", k, i, j, rank))

    def _on_row_delivery(self, k: int, i: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        st.bcast_u[(i, rank)] = payload
        for j in st.gemms_u.get((i, rank), ()):
            self._schedule_or_wait((i, j), ("U", k, i, j, rank))

    def _schedule_gemm(self, side: str, k: int, i: int, j: int, rank: int) -> None:
        st = self.states[k]
        flops = 2.0 * st.nrows[i] * st.nrows[j] * st.plan.width
        if side == "L":
            self._post_contribution(
                rank, flops, "gemm", lambda: self._gemm_l(k, i, j, rank),
                st.rowp, st.gl_left, (j, rank), ("rr", k, j),
            )
        else:
            self._post_contribution(
                rank, flops, "gemm", lambda: self._gemm_u(k, i, j, rank),
                st.colp, st.gu_left, (j, rank), ("cu2", k, j),
            )

    def _gemm_l(self, k: int, i: int, j: int, rank: int) -> np.ndarray:
        struct = self.struct
        rows_j = struct.block_row_indices(k, j)
        rows_i = struct.block_row_indices(k, i)
        sub = gather_block(struct, self.ainv_data[(j, i)], j, i, rows_j, rows_i)
        lhat = self.states[k].bcast_l[(i, rank)]  # (r_i, s)
        return sub @ lhat

    def _gemm_u(self, k: int, i: int, j: int, rank: int) -> np.ndarray:
        struct = self.struct
        rows_i = struct.block_row_indices(k, i)
        rows_j = struct.block_row_indices(k, j)
        sub = gather_block(struct, self.ainv_data[(i, j)], i, j, rows_i, rows_j)
        uhat = self.states[k].bcast_u[(i, rank)]  # (s, r_i)
        return uhat @ sub

    # -- reductions -------------------------------------------------------------

    def _on_rowreduce(self, k: int, j: int, value: Any) -> None:
        st = self.states[k]
        ainv_jk = -value if self.numeric else None
        st.ainv_low[j] = ainv_jk
        self._mark_ainv_ready((j, k), ainv_jk)

    def _on_col_ureduce(self, k: int, j: int, value: Any) -> None:
        st = self.states[k]
        ainv_kj = -value if self.numeric else None
        st.ainv_up[j] = ainv_kj
        self._mark_ainv_ready((k, j), ainv_kj)
        if j in st.lhat_at_u:
            self._try_diag_contrib(k, j)

    def _try_diag_contrib(self, k: int, j: int) -> None:
        """Both inputs of the diagonal contribution for row-block ``j``
        are at the owner of U(K,J); schedule the GEMM once, exactly."""
        st = self.states[k]
        if j in st.diag_fired:
            return
        st.diag_fired.add(j)
        s = st.plan.width
        pr, pc = self.grid.pr, self.grid.pc
        dest = self.grid.rank(k % pr, j % pc)
        rj = st.nrows[j]
        ainv_kj = st.ainv_up[j]
        self._post_contribution(
            dest, 2.0 * s * rj * s, "diag-contrib",
            lambda: ainv_kj @ st.lhat_at_u[j],  # (s, rj) @ (rj, s)
            st.diag_partial, st.diag_left, dest, ("dq", k),
        )


def run_pselinv_unsym(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str = "shifted",
    **kwargs: Any,
) -> PSelInvResult:
    """Convenience wrapper for the unsymmetric simulated PSelInv."""
    return SimulatedPSelInvUnsym(struct, grid, scheme, **kwargs).run()
