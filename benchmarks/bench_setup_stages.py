"""Set-up stages, one timer each: where the time before the first
simulated event goes.

Every experiment first turns a matrix into a ready-to-simulate problem:
``analyze()`` (symmetrize, nested dissection, permute, elimination tree,
postorder, permute again, relabel the tree through the postorder
(stage ``etree_2``), column counts, supernodal structure) and then
``iter_plans`` on the processor grid.
This bench runs that chain stage by stage, exactly as
:func:`repro.sparse.analyze` composes it (``max_supernode=8``, as the
runner's problem cache uses), and also times the two composites:

* ``analyze`` -- the single call, the e2e trace's ``sparse.analyze``;
* ``setup`` -- ``cache.clear()``, ``cache.get_problem``,
  ``cache.get_plans``: workload generation, analysis and planning as the
  e2e benchmark's ``setup_s`` times it.

Inputs: ``audikw_1`` small on 32x32 (the Fig. 8 reference run) and
``audikw_1`` medium on 80x80 (the paper-scale run).  Each round runs
both inputs, in alternating order; every stage reports its median and
IQR over the rounds.  The chain's output is checked once per input:
its permutation, tree and supernode partition against ``analyze()``,
its tree against a second ``elimination_tree`` run on the permuted
matrix, and its column counts against the sizes of
``column_structures``.  Results land in
``results/BENCH_setup.json`` (and ``results/setup_stages.txt``).  A
record, not a gate.

    cd benchmarks && PYTHONPATH=../src:. python -m pytest bench_setup_stages.py --benchmark-disable -q
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
from time import perf_counter

import numpy as np

from _harness import RESULTS_DIR, emit, run_once

from repro.analysis import Table
from repro.core import ProcessorGrid, iter_plans
from repro.runner import cache
from repro.sparse import (
    analyze,
    column_counts,
    column_structures,
    elimination_tree,
    nested_dissection,
    permute_symmetric,
    postorder,
    supernodal_structure,
    symmetrize_pattern,
)
from repro.sparse.etree import relabel_tree
from repro.workloads import make_workload

INPUTS = {
    "audikw_1-small": ("audikw_1", "small", 32),
    "audikw_1-medium": ("audikw_1", "medium", 80),
}
ROUNDS = 5
MAX_SUPERNODE = 8
STAGES = (
    "symmetrize", "nested_dissection", "permute_1", "etree_1", "postorder",
    "permute_2", "etree_2", "column_counts", "supernodal_structure",
    "iter_plans", "analyze", "setup",
)


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _chain(a, grid: ProcessorGrid) -> tuple[dict[str, float], dict]:
    """One pass of every stage; returns the seconds per stage and the
    chain's outputs for the check against ``analyze()``."""
    secs: dict[str, float] = {}

    def timed(name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        secs[name] = perf_counter() - t0
        return out

    sym = timed("symmetrize", symmetrize_pattern, a)
    perm0 = timed("nested_dissection", nested_dissection, sym)
    m1 = timed("permute_1", permute_symmetric, sym, perm0)
    parent1 = timed("etree_1", elimination_tree, m1)
    post = timed("postorder", postorder, parent1)
    perm = perm0[post]
    matrix = timed("permute_2", permute_symmetric, sym, perm)
    parent = timed("etree_2", relabel_tree, parent1, post)
    counts = timed("column_counts", column_counts, matrix, parent)
    struct = timed(
        "supernodal_structure", supernodal_structure, matrix,
        parent=parent, counts=counts, max_size=MAX_SUPERNODE,
    )
    timed("iter_plans", lambda: list(iter_plans(struct, grid)))
    timed("analyze", analyze, a, ordering="nd", max_supernode=MAX_SUPERNODE)
    return secs, {
        "perm": perm, "parent": parent, "counts": counts, "sn_ptr": struct.sn_ptr,
    }


def _setup(workload: str, scale: str, grid: ProcessorGrid) -> float:
    t0 = perf_counter()
    cache.clear()
    cache.get_plans(cache.get_problem(workload, scale, MAX_SUPERNODE), grid)
    dt = perf_counter() - t0
    cache.clear()
    return dt


def measure() -> dict:
    matrices = {
        name: make_workload(w, s) for name, (w, s, _) in INPUTS.items()
    }
    grids = {name: ProcessorGrid(g, g) for name, (_, _, g) in INPUTS.items()}
    for name, a in matrices.items():
        _, got = _chain(a, grids[name])
        prob = analyze(a, ordering="nd", max_supernode=MAX_SUPERNODE)
        want = {
            "perm": prob.perm,
            "parent": prob.parent,
            "sn_ptr": prob.struct.sn_ptr,
        }
        for what, value in want.items():
            assert np.array_equal(got[what], value), (name, what)
        assert np.array_equal(got["parent"], elimination_tree(prob.matrix)), name
        sizes = [len(s) + 1 for s in column_structures(prob.matrix, prob.parent)]
        assert np.array_equal(got["counts"], sizes), name
    samples = {name: {s: [] for s in STAGES} for name in INPUTS}
    names = list(INPUTS)
    for r in range(ROUNDS):
        for name in names if r % 2 == 0 else names[::-1]:
            w, s, _ = INPUTS[name]
            gc.collect()
            secs, _ = _chain(matrices[name], grids[name])
            gc.collect()
            secs["setup"] = _setup(w, s, grids[name])
            for stage, dt in secs.items():
                samples[name][stage].append(dt)
    out = {}
    for name, (w, s, g) in INPUTS.items():
        a = matrices[name]
        out[name] = {
            "workload": w,
            "scale": s,
            "n": a.n,
            "nnz": a.nnz,
            "grid": [g, g],
            "stages": {
                stage: {
                    "median_s": round(statistics.median(v), 4),
                    "iqr_s": round(_iqr(v), 4),
                }
                for stage, v in samples[name].items()
            },
        }
    return out


def test_setup_stages(benchmark):
    results = run_once(benchmark, measure)
    names = list(INPUTS)
    table = Table(
        f"Set-up stages, seconds: median [IQR] of {ROUNDS} alternated rounds",
        ["stage", *names],
    )
    for stage in STAGES:
        table.add(stage, *(
            f"{r['median_s']:.4f} [{r['iqr_s']:.4f}]"
            for r in (results[n]["stages"][stage] for n in names)
        ))
    emit("setup_stages", table.render())
    payload = dict(
        bench="setup_stages",
        rounds=ROUNDS,
        max_supernode=MAX_SUPERNODE,
        python=platform.python_version(),
        numpy=np.__version__,
        inputs=results,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_setup.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
