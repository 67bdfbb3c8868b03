"""The benchmark's four workloads: set-up, the op, and the op's checks.

Every workload answers the same five calls:

* ``setup(seed, tracer)`` -- one cold pass from seed to ready-to-simulate
  (timed three times for ``setup_s``);
* ``prepare(state, tracer)`` -- untimed reference work outside both
  ``setup_s`` and the ops (the numeric oracle);
* ``warmup(state)`` -- the untimed op every timed op must reproduce;
* ``op(state, tracer)`` -- one timed op; with a real tracer it records
  spans and profiles the call that does the op's work;
* ``outcome(state, result)`` -- digest, failed checks and counts of one
  op's result, computed outside the timed region.

Only public entry points are called, and no ``engine=`` is chosen, so
the library default engine is what gets measured.  ``seed`` feeds the
tree seed, the jitter and placement seeds, and the numeric matrix.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from digest import conservation_errors, record_digest, volume_digest
from ledger import NullTracer
from repro.comm.trees import TREE_SCHEMES
from repro.core import (
    ProcessorGrid,
    SimulatedPSelInv,
    communication_volumes,
    iter_plans,
    volume_summary,
)
from repro.obs import HotSpotMonitor, MetricsRegistry, Telemetry
from repro.runner import ExperimentSpec, RunRecord, cache, run_experiment
from repro.runner.store import RunStore
from repro.simulate import NetworkConfig
from repro.sparse import analyze, factorize, normalize, selected_inversion
from repro.workloads import dg_hamiltonian, make_workload

HERE = Path(__file__).resolve().parent
NUMERIC_TOLERANCE = 1e-9
_NULL = NullTracer()


class Workload:
    """Defaults shared by the four workloads."""

    name = ""
    #: ``warmup`` runs the telemetry-off twin of the telemetry-on op.
    telemetry_twin = False

    def prepare(self, state, tracer) -> None:
        pass

    def warmup(self, state):
        return self.op(state, _NULL)

    def after_trace(self, state, result, tracer) -> list[str]:
        """Extra traced calls on the traced op's result; returns errors."""
        return []


@dataclasses.dataclass
class Outcome:
    digest: str
    errors: list[str]
    counts: dict[str, float]


def _record_outcome(rec: RunRecord) -> Outcome:
    return Outcome(
        digest=record_digest(rec),
        errors=conservation_errors(rec.sent, rec.received),
        counts={
            "simulate.events": rec.events,
            "simulate.messages": int(sum(a.sum() for a in rec.messages_sent.values())),
            "simulate.bytes": float(sum(a.sum() for a in rec.sent.values())),
        },
    )


def _spanned_analysis(tracer, make, grid: ProcessorGrid):
    """The set-up pipeline as separate calls, one span each (traced run
    only; mirrors :func:`repro.runner.cache.get_problem`/``get_plans``)."""
    with tracer.span("workloads.make_workload"):
        matrix = make()
    with tracer.span("sparse.analyze"):
        prob = analyze(matrix, ordering="nd", max_supernode=8)
    with tracer.span("plan.iter_plans"):
        plans = list(iter_plans(prob.struct, grid))
    return prob, plans


class _Experiment(Workload):
    """A symbolic DES workload: each op is one ``run_experiment(spec)``
    with the result store off, on the runner's memoized problem/plans."""

    def spec(self, seed: int) -> ExperimentSpec:
        raise NotImplementedError

    def setup(self, seed: int, tracer):
        spec = self.spec(seed)
        grid = ProcessorGrid(*spec.grid)
        if tracer.active:
            _spanned_analysis(tracer, lambda: make_workload(spec.workload, spec.scale), grid)
        cache.clear()
        prob = cache.get_problem(spec.workload, spec.scale, spec.max_supernode)
        cache.get_plans(prob, grid)
        return spec

    def warmup(self, spec):
        return run_experiment(spec)

    def op(self, spec, tracer):
        if not tracer.active:
            return run_experiment(spec)
        return traced_experiment(spec, tracer)

    def outcome(self, spec, rec) -> Outcome:
        return _record_outcome(rec)


def traced_experiment(spec: ExperimentSpec, tracer) -> RunRecord:
    """The calls :func:`repro.runner.run_experiment` makes (store off),
    one span each, with the simulation itself profiled."""
    prob = cache.get_problem(spec.workload, spec.scale, spec.max_supernode)
    grid = ProcessorGrid(*spec.grid)
    plans = cache.get_plans(prob, grid)
    with tracer.span("trees.get_tree_cache"):
        tree_cache = cache.get_tree_cache(
            prob, grid, spec.scheme, spec.seed, spec.hybrid_threshold, engine=spec.engine
        )
    telemetry = None
    if spec.telemetry:
        telemetry = Telemetry(
            metrics=MetricsRegistry(workload=spec.workload, scheme=spec.scheme),
            hotspots=HotSpotMonitor(grid.size),
        )
    with tracer.span("pselinv.init"):
        sim = SimulatedPSelInv(
            prob.struct,
            grid,
            spec.scheme,
            network=spec.network,
            seed=spec.seed,
            placement_seed=spec.placement_seed,
            jitter_seed=spec.jitter_seed,
            hybrid_threshold=spec.hybrid_threshold,
            per_message_cpu_overhead=spec.per_message_cpu_overhead,
            lookahead=spec.lookahead,
            plans=plans,
            tree_cache=tree_cache,
            telemetry=telemetry,
            engine=spec.engine,
        )
    with tracer.profiled("pselinv.run"):
        res = sim.run(max_events=spec.max_events)
    with tracer.span("runner.record"):
        return RunRecord.from_result(spec, res)


class Fig8Shifted(_Experiment):
    """The Fig. 8 reference run."""

    name = "fig8_shifted_1024"

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            "audikw_1", (32, 32), "shifted", scale="small",
            network=NetworkConfig(jitter_sigma=0.2), lookahead=4,
            seed=seed, jitter_seed=seed, placement_seed=seed,
        )

    def after_trace(self, spec, rec, tracer) -> list[str]:
        """Round-trip the traced record through a throwaway result store
        (the store is off in every op; this only shows its cost)."""
        with tempfile.TemporaryDirectory(dir=HERE) as root:
            store = RunStore(root)
            with tracer.span("store.put"):
                store.put(spec, rec)
            with tracer.span("store.get"):
                back = store.get(spec)
        if back is None or record_digest(back) != record_digest(rec):
            return ["result store round trip changed the record"]
        return []


class HotspotsFlat(_Experiment):
    """Telemetry on.  The warm-up is the telemetry-off twin of the same
    spec, so every timed op is also checked against its twin."""

    name = "hotspots_flat_256"
    telemetry_twin = True

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            "audikw_1", (16, 16), "flat", scale="small", telemetry=True,
            seed=seed, jitter_seed=seed, placement_seed=seed,
        )

    def warmup(self, spec):
        return run_experiment(dataclasses.replace(spec, telemetry=False))


@dataclasses.dataclass
class NumericState:
    spec: ExperimentSpec
    grid: ProcessorGrid
    prob: object
    plans: list
    factor: object
    oracle: np.ndarray | None = None
    positions: tuple | None = None


class NumericDG(Workload):
    """Numeric payloads on a DG Hamiltonian.  The matrix keeps the
    DG_PNF14000 shape (2-D element lattice, dense blocks, dense regime)
    at 7x7 elements of 16 basis functions (n=784): the registry's small
    DG matrices take ~15 s an op, which does not fit the time budget."""

    name = "numeric_dg_64"
    elems, block, grid = (7, 7), 16, (8, 8)

    def setup(self, seed: int, tracer) -> NumericState:
        grid = ProcessorGrid(*self.grid)
        prob, plans = _spanned_analysis(
            tracer,
            lambda: dg_hamiltonian(self.elems, self.block, rng=np.random.default_rng(seed)),
            grid,
        )
        with tracer.span("sparse.factorize"):
            factor = factorize(prob.matrix, prob.struct)
        spec = ExperimentSpec(
            "dg_hamiltonian", self.grid, "shifted",
            seed=seed, jitter_seed=seed, placement_seed=seed,
            label=f"{self.elems} elements x {self.block}",
        )
        return NumericState(spec, grid, prob, plans, factor)

    def prepare(self, st: NumericState, tracer) -> None:
        with tracer.span("sparse.selected_inversion"):
            fac = factorize(st.prob.matrix, st.prob.struct)
            normalize(fac)
            inv = selected_inversion(fac)
        st.positions = inv.stored_positions()
        st.oracle = inv.to_dense_at_structure()[st.positions]

    def op(self, st: NumericState, tracer):
        spec = st.spec
        with tracer.span("pselinv.init"):
            sim = SimulatedPSelInv(
                st.prob.struct, st.grid, spec.scheme, factor=st.factor,
                seed=spec.seed, placement_seed=spec.placement_seed,
                jitter_seed=spec.jitter_seed, plans=st.plans,
            )
        with tracer.profiled("pselinv.run"):
            res = sim.run()
        with tracer.span("runner.record"):
            return RunRecord.from_result(spec, res), res.inverse

    def outcome(self, st: NumericState, result) -> Outcome:
        rec, inverse = result
        out = _record_outcome(rec)
        err = float(np.abs(inverse.to_dense_at_structure()[st.positions] - st.oracle).max())
        if not err <= NUMERIC_TOLERANCE:
            out.errors.append(f"max |inverse - oracle| = {err:.3e} > {NUMERIC_TOLERANCE:g}")
        return out


@dataclasses.dataclass
class VolumeState:
    seed: int
    grid: ProcessorGrid
    prob: object
    plans: list


class Volumes6Scheme(Workload):
    """Analytic volumes, no DES.  ``run.py`` shrinks the tree cache to
    8,192 entries for this workload's process, so that randperm's ~18.8k
    distinct trees overflow it on every pass while the other schemes keep
    hitting it, as on audikw_1 medium 24x24 at the default 65,536 entries
    (measured side by side in README.md).  The medium problem costs ~60 s
    a run, which the benchmark's time budget cannot hold."""

    name = "volumes_6scheme_1024"
    workload, scale, grid = "audikw_1", "small", (32, 32)

    def setup(self, seed: int, tracer) -> VolumeState:
        grid = ProcessorGrid(*self.grid)
        if tracer.active:
            _spanned_analysis(tracer, lambda: make_workload(self.workload, self.scale), grid)
        cache.clear()
        prob = cache.get_problem(self.workload, self.scale)
        return VolumeState(seed, grid, prob, cache.get_plans(prob, grid))

    def op(self, st: VolumeState, tracer):
        with tracer.profiled("volume.all_schemes"):
            reports = []
            for scheme in TREE_SCHEMES:
                with tracer.span(f"volume.{scheme}"):
                    reports.append(
                        communication_volumes(
                            st.prob.struct, st.grid, scheme, seed=st.seed, plans=st.plans
                        )
                    )
            with tracer.span("analysis.summary"):
                summaries = [
                    {
                        "col_bcast": volume_summary(rep.col_bcast_sent()),
                        "row_reduce": volume_summary(rep.row_reduce_received()),
                    }
                    for rep in reports
                ]
        return reports, summaries

    def outcome(self, st: VolumeState, result) -> Outcome:
        reports, summaries = result
        errors = [
            f"{rep.scheme} {err}"
            for rep in reports
            for err in conservation_errors(rep.sent, rep.received)
        ]
        return Outcome(volume_digest(reports, summaries), errors, {})


WORKLOADS = {w.name: w for w in (Fig8Shifted(), HotspotsFlat(), NumericDG(), Volumes6Scheme())}
