"""Library micro-benchmarks: the sparse substrate and the simulator.

Not paper figures -- these track the performance of the building blocks
(ordering, symbolic analysis, numeric factorization, sequential selected
inversion, tree construction, DES message throughput) so regressions in
the substrate are visible independently of the experiment harness.
Unlike the figure benches these use real repetition (pytest-benchmark's
adaptive rounds) since each operation is cheap.
"""

import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from _harness import record_throughput

from repro.comm import build_tree
from repro.core import ProcessorGrid, SimulatedPSelInv, iter_plans
from repro.simulate import Machine, Network, NetworkConfig
from repro.sparse import (
    analyze,
    column_counts,
    elimination_tree,
    factorize,
    nested_dissection,
    minimum_degree,
    selinv_sequential,
)
from repro.sparse.selinv import normalize, selected_inversion
from repro.workloads import grid_laplacian_2d, grid_laplacian_3d


@pytest.fixture(scope="module")
def lap2d():
    return grid_laplacian_2d(24, 24, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def lap3d():
    return grid_laplacian_3d(8, 8, 8, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def analyzed(lap2d):
    return analyze(lap2d, ordering="nd")


class TestOrderingThroughput:
    def test_nested_dissection_2d(self, benchmark, lap2d):
        from repro.sparse import symmetrize_pattern

        sym = symmetrize_pattern(lap2d)
        perm = benchmark.pedantic(
            nested_dissection, args=(sym,), rounds=3, iterations=1
        )
        assert len(perm) == lap2d.n

    def test_minimum_degree_2d(self, benchmark, lap2d):
        from repro.sparse import symmetrize_pattern

        sym = symmetrize_pattern(lap2d)
        perm = benchmark.pedantic(
            minimum_degree, args=(sym,), rounds=3, iterations=1
        )
        assert len(perm) == lap2d.n


class TestSymbolicThroughput:
    def test_elimination_tree(self, benchmark, analyzed):
        parent = benchmark(elimination_tree, analyzed.matrix)
        assert len(parent) == analyzed.n

    def test_column_counts(self, benchmark, analyzed):
        counts = benchmark(column_counts, analyzed.matrix, analyzed.parent)
        assert counts.sum() == analyzed.struct.factor_nnz() or counts.sum() > 0


class TestNumericThroughput:
    def test_factorize(self, benchmark, analyzed):
        fac = benchmark.pedantic(
            factorize, args=(analyzed.matrix, analyzed.struct),
            rounds=3, iterations=1,
        )
        assert fac.nsup == analyzed.struct.nsup

    def test_selected_inversion(self, benchmark, analyzed):
        def run():
            fac = factorize(analyzed.matrix, analyzed.struct)
            normalize(fac)
            return selected_inversion(fac)

        inv = benchmark.pedantic(run, rounds=3, iterations=1)
        assert inv.struct is analyzed.struct

    def test_selinv_3d(self, benchmark, lap3d):
        prob = analyze(lap3d, ordering="nd")
        _, inv = benchmark.pedantic(
            selinv_sequential, args=(prob,), rounds=2, iterations=1
        )
        assert inv.struct is prob.struct


# One numeric PSelInv op, timed in a child process: a BLAS reads its
# thread count when it loads, and this process has loaded it already.
_NUMERIC_OP = """
import json, sys
from time import perf_counter
import numpy as np
from repro.core import ProcessorGrid, SimulatedPSelInv, iter_plans
from repro.sparse import analyze, factorize
from repro.workloads import dg_hamiltonian

rounds = int(sys.argv[1])
a = dg_hamiltonian((7, 7), 16, rng=np.random.default_rng(0))
prob = analyze(a, ordering="nd", max_supernode=8)
grid = ProcessorGrid(8, 8)
plans = list(iter_plans(prob.struct, grid))
fac = factorize(prob.matrix, prob.struct)
seconds = []
for r in range(rounds + 1):  # round 0 warms the process up
    t0 = perf_counter()
    res = SimulatedPSelInv(
        prob.struct, grid, "shifted", factor=fac, plans=plans
    ).run()
    seconds.append(perf_counter() - t0)
print(json.dumps({
    "seconds": seconds[1:],
    "events": res.events,
    "gemms": sum(len(p.blocks) ** 2 for p in plans),
}))
"""
_ONE_THREAD = {
    v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def _drop(dst, payload, aux):
    """A delivery callback that discards the message."""


class TestCommThroughput:
    def test_shifted_tree_construction(self, benchmark):
        participants = set(range(0, 2048, 2))

        def build():
            return build_tree("shifted", 0, participants, seed=7)

        tree = benchmark(build)
        assert tree.size == 1024

    def test_des_message_throughput(self, benchmark):
        """Raw machine throughput: 10k point-to-point messages."""
        tally = {"events": 0}

        def run():
            m = Machine(64, Network(64, NetworkConfig()))
            cid = m.category_id("x")
            rng = np.random.default_rng(0)
            src = rng.integers(0, 64, 10_000)
            dst = rng.integers(0, 64, 10_000)
            for s, d in zip(src, dst):
                m.send_pt(int(s), int(d), "t", 1024, cid, _drop)
            makespan = m.run()
            tally["events"] += m.sim.events_processed
            return makespan

        t0 = perf_counter()
        makespan = benchmark.pedantic(run, rounds=3, iterations=1)
        wall = perf_counter() - t0
        print(record_throughput(
            "substrate_des_messages", wall_seconds=wall, events=tally["events"]
        ))
        assert makespan > 0

    def test_pselinv_symbolic_throughput(self, benchmark, analyzed):
        grid = ProcessorGrid(8, 8)
        plans = list(iter_plans(analyzed.struct, grid))
        tally = {"events": 0}

        def run():
            res = SimulatedPSelInv(
                analyzed.struct, grid, "shifted", plans=plans, lookahead=4
            ).run()
            tally["events"] += res.events
            return res

        t0 = perf_counter()
        res = benchmark.pedantic(run, rounds=3, iterations=1)
        wall = perf_counter() - t0
        print(record_throughput(
            "substrate_pselinv_symbolic", wall_seconds=wall,
            events=tally["events"]
        ))
        assert res.makespan > 0


class TestNumericPSelInvThroughput:
    def test_pselinv_numeric_dg(self):
        """``numeric_dg_64``'s op outside the e2e harness:
        ``SimulatedPSelInv`` with numeric payloads on the DG 7x7x16
        matrix (n=784), 8x8, shifted, one BLAS thread.  Records the
        median op's wall time and its GEMMs per second (a GEMM is one
        ``Ainv(J,I) @ Lhat(I,K)`` task, ``sum |C_K|^2`` of them)."""
        rounds = 5
        out = subprocess.run(
            [sys.executable, "-c", _NUMERIC_OP, str(rounds)],
            env={**os.environ, **_ONE_THREAD},
            capture_output=True, text=True, check=True,
        )
        run = json.loads(out.stdout.splitlines()[-1])
        wall = float(np.median(run["seconds"]))
        print(record_throughput(
            "substrate_pselinv_numeric", wall_seconds=wall,
            events=run["events"],
            extra={
                "gemms": run["gemms"],
                "gemms_per_sec": round(run["gemms"] / wall, 1),
                "op_seconds": [round(t, 4) for t in run["seconds"]],
                "blas_threads": 1,
            },
        ))
        assert run["gemms"] > 0


class TestPlanThroughput:
    def test_plan_enumeration(self, benchmark, analyzed):
        grid = ProcessorGrid(16, 16)
        plans = benchmark.pedantic(
            lambda: list(iter_plans(analyzed.struct, grid)),
            rounds=3, iterations=1,
        )
        assert len(plans) == analyzed.struct.nsup
