"""Caller-supplied plans are checked against the run they are given to.

Both drivers accept a prebuilt plan list (the runner shares one per
problem and grid).  A list of another length, order, grid or entry size
used to run silently with wrong byte counts or fail deep in the drain;
it is now a ``ValueError`` at construction.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BYTES_PER_ENTRY,
    ProcessorGrid,
    SimulatedPSelInv,
    SimulatedPSelInvUnsym,
    iter_plans,
    iter_unsym_plans,
)
from repro.sparse import analyze, from_dense
from repro.sparse.factor import factorize
from tests.conftest import random_unsymmetric_dense
from tests.test_complex import random_complex_symmetric

GRID = ProcessorGrid(2, 2)


@pytest.fixture(scope="module")
def complex_problem():
    a = random_complex_symmetric(50, 3.5, np.random.default_rng(11))
    prob = analyze(from_dense(a), ordering="amd")
    return prob, factorize(prob.matrix, prob.struct)


@pytest.fixture(scope="module")
def unsym_problem():
    a = random_unsymmetric_dense(40, 3.5, np.random.default_rng(5))
    prob = analyze(from_dense(a), ordering="amd")
    return prob, factorize(prob.matrix, prob.struct)


DRIVERS = {
    "sym": (SimulatedPSelInv, iter_plans, "complex_problem"),
    "unsym": (SimulatedPSelInvUnsym, iter_unsym_plans, "unsym_problem"),
}


@pytest.fixture(params=sorted(DRIVERS))
def driver(request):
    cls, planner, fixture = DRIVERS[request.param]
    prob, factor = request.getfixturevalue(fixture)
    return cls, planner, prob, factor


def test_factor_entry_size_checked(driver):
    # The symmetric case is the complex factor on real 8-byte plans,
    # which used to run with half the bytes (6,720 B instead of 13,440 B).
    cls, planner, prob, factor = driver
    real, cplx = BYTES_PER_ENTRY, 2 * BYTES_PER_ENTRY
    bpe, other = (cplx, real) if np.iscomplexobj(factor.LX[0]) else (real, cplx)
    wrong = list(planner(prob.struct, GRID, bytes_per_entry=other))
    with pytest.raises(ValueError, match="diagonal broadcast carries"):
        cls(prob.struct, GRID, "flat", factor=factor, plans=wrong)
    right = list(planner(prob.struct, GRID, bytes_per_entry=bpe))
    given = cls(prob.struct, GRID, "flat", factor=factor, plans=right).run()
    built = cls(prob.struct, GRID, "flat", factor=factor).run()
    assert np.array_equal(given.stats.total_sent(), built.stats.total_sent())


def test_symbolic_run_accepts_any_entry_size(driver):
    cls, planner, prob, _ = driver
    plans16 = list(
        planner(prob.struct, GRID, bytes_per_entry=2 * BYTES_PER_ENTRY)
    )
    wide = cls(prob.struct, GRID, "flat", plans=plans16).run()
    real = cls(prob.struct, GRID, "flat").run()
    assert np.array_equal(wide.stats.total_sent(), 2 * real.stats.total_sent())


def test_truncated_plans_rejected(driver):
    cls, planner, prob, factor = driver
    plans = list(planner(prob.struct, GRID))[:-1]
    with pytest.raises(ValueError, match="plans cover"):
        cls(prob.struct, GRID, "flat", plans=plans)


def test_misordered_plans_rejected(driver):
    cls, planner, prob, factor = driver
    plans = list(planner(prob.struct, GRID))
    plans[0], plans[1] = plans[1], plans[0]
    with pytest.raises(ValueError, match=r"plans\[0\] is the plan of supernode 1"):
        cls(prob.struct, GRID, "flat", plans=plans)


def test_plans_of_another_grid_rejected(driver):
    cls, planner, prob, factor = driver
    plans = list(planner(prob.struct, ProcessorGrid(1, 2)))
    with pytest.raises(ValueError, match="2x2 grid puts it"):
        cls(prob.struct, GRID, "flat", plans=plans)


def test_plan_of_another_width_rejected(driver):
    cls, planner, prob, factor = driver
    plans = list(planner(prob.struct, GRID))
    plans[3] = dataclasses.replace(plans[3], width=plans[3].width + 1)
    with pytest.raises(ValueError, match="plan 3 has width"):
        cls(prob.struct, GRID, "flat", plans=plans)
