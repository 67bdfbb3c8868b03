"""Named workload registry mirroring the paper's test-matrix table.

Each entry maps one of the paper's six evaluation matrices to a synthetic
proxy generator at three scales:

* ``tiny``   -- unit-test scale (hundreds of columns, numeric runs OK)
* ``small``  -- default benchmark scale (a few thousand columns)
* ``medium`` -- opt-in scale for slower, higher-fidelity studies

The paper-reported ``n`` / ``nnz(A)`` / ``nnz(LU)`` are recorded verbatim
so EXPERIMENTS.md can print paper-vs-proxy side by side.  Proxies preserve
the property that actually matters for the communication study: the
*density regime* (relatively dense DG Hamiltonians vs relatively sparse
3-D FE matrices) and the resulting elimination-tree shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sparse.matrix import SparseMatrix
from .dg import dg_hamiltonian
from .laplacian import grid_laplacian_3d

__all__ = ["Workload", "WORKLOADS", "make_workload", "workload_names"]


@dataclass(frozen=True)
class Workload:
    """A named workload: proxy generators plus the paper's true stats."""

    name: str
    description: str
    regime: str  # "dense" (DG) or "sparse" (FE)
    paper_n: int
    paper_nnz_a: int
    paper_nnz_lu: int
    generators: dict[str, Callable[[np.random.Generator], SparseMatrix]]

    def make(
        self, scale: str = "small", *, rng: np.random.Generator | None = None
    ) -> SparseMatrix:
        if scale not in self.generators:
            raise ValueError(
                f"unknown scale {scale!r} for workload {self.name!r}; "
                f"expected one of {sorted(self.generators)}"
            )
        if rng is None:
            rng = np.random.default_rng(0xC0FFEE)
        return self.generators[scale](rng)


def _dg(elems: tuple[int, ...], b: int, hops: int = 1):
    def gen(rng: np.random.Generator) -> SparseMatrix:
        return dg_hamiltonian(elems, b, neighbor_hops=hops, rng=rng)

    return gen


def _lap3(nx: int, ny: int, nz: int, stencil: int = 7):
    def gen(rng: np.random.Generator) -> SparseMatrix:
        return grid_laplacian_3d(nx, ny, nz, stencil=stencil, rng=rng)

    return gen


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="DG_PNF14000",
            description=(
                "2D phosphorene nanoflake Kohn-Sham Hamiltonian, adaptive "
                "local basis DG discretization; relatively dense (0.2% nnz)"
            ),
            regime="dense",
            paper_n=512_000,
            paper_nnz_a=550_400_000,
            paper_nnz_lu=3_720_894_400,
            generators={
                "tiny": _dg((4, 4), 10),
                "small": _dg((10, 10), 24),
                "medium": _dg((16, 16), 40),
            },
        ),
        Workload(
            name="DG_Graphene_32768",
            description=(
                "2D graphene sheet DG Hamiltonian, the paper's largest "
                "matrix (n = 1.3M)"
            ),
            regime="dense",
            paper_n=1_310_720,
            paper_nnz_a=955_929_600,
            paper_nnz_lu=10_945_891_840,
            generators={
                "tiny": _dg((5, 4), 10),
                "small": _dg((12, 12), 24),
                "medium": _dg((20, 20), 40),
            },
        ),
        Workload(
            name="DG_Water_12888",
            description="3D bulk water DG Hamiltonian (small, dense blocks)",
            regime="dense",
            paper_n=94_208,
            paper_nnz_a=32_706_432,
            paper_nnz_lu=1_370_857_094,
            generators={
                "tiny": _dg((3, 3, 2), 8),
                "small": _dg((5, 5, 4), 16),
                "medium": _dg((7, 7, 5), 24),
            },
        ),
        Workload(
            name="LU_C_BN_C_4by2",
            description="C/BN heterostructure DG Hamiltonian",
            regime="dense",
            paper_n=263_328,
            paper_nnz_a=190_859_344,
            paper_nnz_lu=3_619_529_750,
            generators={
                "tiny": _dg((8, 2), 10),
                "small": _dg((16, 6), 24),
                "medium": _dg((24, 8), 40),
            },
        ),
        Workload(
            name="audikw_1",
            description=(
                "3D structural FE matrix (UF collection); relatively sparse "
                "(0.009% nnz) -- proxied by a 3D 27-point lattice"
            ),
            regime="sparse",
            paper_n=943_695,
            paper_nnz_a=77_651_847,
            paper_nnz_lu=2_577_878_569,
            generators={
                "tiny": _lap3(7, 7, 6, stencil=27),
                "small": _lap3(14, 14, 12, stencil=27),
                "medium": _lap3(22, 22, 20, stencil=27),
            },
        ),
        Workload(
            name="Flan_1565",
            description=(
                "3D hexahedral shell FE matrix (UF collection) -- proxied "
                "by an anisotropic 3D 27-point lattice"
            ),
            regime="sparse",
            paper_n=1_564_794,
            paper_nnz_a=117_406_044,
            paper_nnz_lu=3_460_619_508,
            generators={
                "tiny": _lap3(10, 10, 3, stencil=27),
                "small": _lap3(24, 24, 5, stencil=27),
                "medium": _lap3(40, 40, 7, stencil=27),
            },
        ),
    ]
}


def workload_names() -> list[str]:
    """Names in the paper's Table II order."""
    return [
        "DG_Graphene_32768",
        "DG_PNF14000",
        "DG_Water_12888",
        "LU_C_BN_C_4by2",
        "audikw_1",
        "Flan_1565",
    ]


def make_workload(
    name: str, scale: str = "small", *, seed: int = 0xC0FFEE
) -> SparseMatrix:
    """Instantiate a named workload proxy at the given scale."""
    try:
        w = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return w.make(scale, rng=np.random.default_rng(seed))
