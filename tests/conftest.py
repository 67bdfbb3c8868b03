"""Shared fixtures: small matrices, analyzed problems, and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import SparseMatrix, analyze, from_dense
from repro.workloads import random_spd_sparse


def random_symmetric_dense(
    n: int, nnz_factor: float, rng: np.random.Generator
) -> np.ndarray:
    """Dense random symmetric diagonally dominant matrix."""
    a = np.zeros((n, n))
    m = int(nnz_factor * n)
    for _ in range(m):
        i, j = rng.integers(0, n, 2)
        v = rng.normal()
        a[i, j] += v
        a[j, i] += v
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def random_unsymmetric_dense(
    n: int, nnz_factor: float, rng: np.random.Generator
) -> np.ndarray:
    """Dense random unsymmetric diagonally dominant matrix."""
    a = np.zeros((n, n))
    m = int(nnz_factor * n)
    for _ in range(m):
        i, j = rng.integers(0, n, 2)
        a[i, j] += rng.normal()
    a += np.diag(np.abs(a).sum(axis=1) + np.abs(a).sum(axis=0) + 1.0)
    return a


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20160523)


@pytest.fixture
def small_spd(rng) -> SparseMatrix:
    """A ~80-column random SPD-ish sparse matrix."""
    return random_spd_sparse(80, 4.0, rng=rng)


@pytest.fixture
def small_problem(small_spd):
    """Analyzed problem for the small SPD matrix (AMD ordering)."""
    return analyze(small_spd, ordering="amd", validate=True)


@pytest.fixture
def dense_symmetric(rng) -> np.ndarray:
    return random_symmetric_dense(50, 4.0, rng)


@pytest.fixture
def matrix_symmetric(dense_symmetric) -> SparseMatrix:
    return from_dense(dense_symmetric)


@pytest.fixture(scope="session")
def digest_struct():
    """The structure the pinned symbolic outcome digests are recorded on
    (both value symmetries): an unsymmetric random matrix, AMD-ordered,
    supernodes of at most 8 columns."""
    a = random_unsymmetric_dense(60, 3.5, np.random.default_rng(1708))
    return analyze(from_dense(a), ordering="amd", max_supernode=8).struct
