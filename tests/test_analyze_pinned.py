"""Byte pins of :func:`repro.sparse.analyze` outputs.

The symbolic pipeline (symmetrize, order, permute, elimination tree,
postorder, supernodes) is deterministic, and every later layer -- plans,
trees, the DES, the volume model -- reads only what it returns.  These
sha256 digests cover the permutation, the elimination tree, the
supernode partition, every supernode's row structure and the permuted
matrix (indices *and* values, dtype and shape included), so a rewrite
of any stage must reproduce its output exactly.  They were recorded
with the per-column implementation; never re-record them to make a
refactor pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sparse import SparseMatrix, analyze, from_coo, from_dense
from repro.workloads import grid_laplacian_2d, make_workload


def _block_diagonal() -> SparseMatrix:
    """Two grid blocks plus three isolated vertices, interleaved by a
    random relabelling so the components are not contiguous.  Vertex 0
    lands in the larger block, so nested dissection's first BFS leaves
    the other components unreached and still finds a separator."""
    blocks = [
        grid_laplacian_2d(10, 8, rng=np.random.default_rng(1)),
        grid_laplacian_2d(5, 5, stencil=9, rng=np.random.default_rng(2)),
    ]
    rows, cols, vals = [], [], []
    off = 0
    for b in blocks:
        for j in range(b.n):
            r, v = b.column(j)
            rows.extend((r + off).tolist())
            cols.extend([j + off] * len(r))
            vals.extend(v.tolist())
        off += b.n
    for j in range(off, off + 3):
        rows.append(j)
        cols.append(j)
        vals.append(2.0)
    n = off + 3
    relabel = np.random.default_rng(3).permutation(n)
    return from_coo(n, relabel[rows], relabel[cols], vals)


def _complex() -> SparseMatrix:
    a = grid_laplacian_2d(9, 8, stencil=9, rng=np.random.default_rng(4))
    im = np.random.default_rng(5).normal(size=a.nnz)
    return SparseMatrix(a.n, a.indptr, a.indices, a.data + 0.25j * im)


def _unsymmetric() -> SparseMatrix:
    rng = np.random.default_rng(6)
    n = 70
    dense = np.where(rng.random((n, n)) < 0.05, rng.normal(size=(n, n)), 0.0)
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return from_dense(dense)


MATRICES = {
    "audikw_1-small": lambda: make_workload("audikw_1", "small"),
    "DG_PNF14000-tiny": lambda: make_workload("DG_PNF14000", "tiny"),
    "Flan_1565-tiny": lambda: make_workload("Flan_1565", "tiny"),
    "laplacian2d": lambda: grid_laplacian_2d(15, 11, stencil=9, rng=np.random.default_rng(0)),
    "block-diagonal": _block_diagonal,
    "complex": _complex,
    "unsymmetric": _unsymmetric,
}

# (matrix, ordering) -> sha256 of analyze(..., max_supernode=8).
# Minimum degree on audikw_1 small takes seconds, so it is left out.
PINS = {
    ('audikw_1-small', 'nd'): '59b663cedc27a8a5fe0a252749da862e42091ebfe3929bf01b10d0f79fcd337c',
    ('audikw_1-small', 'rcm'): 'ba0d6b8f661c4e33be3b3a810b8b3586c47c419a883910edfce15b4da1ea9e05',
    ('DG_PNF14000-tiny', 'nd'): '6b21c9a14cfd062affc45b1c844c8b9c757cf42fc4234f9ce516a8404d70cd92',
    ('DG_PNF14000-tiny', 'amd'): '7b39f8a0de947417ba6def7fd1c398a1189d7b970cf6b373cc2a84db648bbff7',
    ('DG_PNF14000-tiny', 'rcm'): '00526784891d36e83ce3782ac931932f543da85fa09d188465193129d905f357',
    ('Flan_1565-tiny', 'nd'): 'f7cbcc67cbd82377668e8f4af6bc65bcab204129e1b93e2261c715b9e3da85bd',
    ('Flan_1565-tiny', 'amd'): '790680056227dc98e221654bbaa951faaa78066e2b8f595734f5a8a5308a3bf3',
    ('Flan_1565-tiny', 'rcm'): '155b6429ca8d77de9f09050bd57129fd1f559cc834f6f404c0a676c465e1e147',
    ('laplacian2d', 'nd'): '8ea5b8c704e27c5a58497a9e36bb56dce5cae9d0141f1cbd7ccbc4f6c425b488',
    ('laplacian2d', 'amd'): 'dfcfb51aac18891f11e7533c802b1d15c4d9d5005fd1d3b6923b3a9da294b5dd',
    ('laplacian2d', 'rcm'): '62dce49df8a8ba0147422aed220295d9affc99a8405ceaad48aca106e34bc36b',
    ('block-diagonal', 'nd'): '1ae4cf8b6e1fccb36b6942cec26f91cb82cd90a981dd0ef5f34cf425c030429c',
    ('block-diagonal', 'amd'): '1dd0f17a23a015cdd7da96a0cfa154f8a5d1b095bfd0e105ad247494360fa2d1',
    ('block-diagonal', 'rcm'): 'e02e99b0f9c2f1015c8e1ef9a4b192280ec01af764ed8e2799135215759a0be4',
    ('complex', 'nd'): 'f1d11745eab0fd265dbff6636e86752b0947154faf65da8337a8c8438f91100b',
    ('complex', 'amd'): 'e923563d25584fadb4d7859c87431c1cd43afddb815e1d0c433f1158dfd501c6',
    ('complex', 'rcm'): 'a96ebf7ccea6b3b0e597d2b37e85b66bbdb05da8c1b3d891d729985c0b7829ad',
    ('unsymmetric', 'nd'): '33343fc40838042a584e85953d2c790392ae9e0a680793d7d35b0d885e8880a5',
    ('unsymmetric', 'amd'): '70eba5ed39a6c10b02912cd572c22886af3205dfa34184d4b0a29e3bfe85254a',
    ('unsymmetric', 'rcm'): 'feb2d07af87dcdf198aeadd059f5c3faf616ee551af3f92e0451d4e54fcd2677',
}


def analyze_digest(a: SparseMatrix, ordering: str) -> str:
    prob = analyze(a, ordering=ordering, max_supernode=8)
    st = prob.struct
    h = hashlib.sha256()

    def put(name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())

    put("perm", prob.perm)
    put("parent", prob.parent)
    put("sn_ptr", st.sn_ptr)
    put("snode_of", st.snode_of)
    put("sparent", st.sparent)
    for k, rows in enumerate(st.rows_below):
        put(f"rows_below[{k}]", rows)
    for k, blocks in enumerate(st.block_rows):
        put(f"block_rows[{k}]", blocks)
    put("indptr", prob.matrix.indptr)
    put("indices", prob.matrix.indices)
    put("data", prob.matrix.data)
    return h.hexdigest()


_memo: dict[str, SparseMatrix] = {}


def _matrix(name: str) -> SparseMatrix:
    if name not in _memo:
        _memo[name] = MATRICES[name]()
    return _memo[name]


@pytest.mark.parametrize("key", sorted(PINS), ids=[f"{m}-{o}" for m, o in sorted(PINS)])
def test_analyze_outputs_pinned(key):
    name, ordering = key
    assert analyze_digest(_matrix(name), ordering) == PINS[key]


def test_fixture_matrices_cover_the_edge_cases():
    blocks = _block_diagonal()
    assert blocks.n == 108
    assert not _unsymmetric().is_structurally_symmetric()
    assert np.iscomplexobj(_complex().data)
    # The isolated vertices make the elimination forest disconnected.
    assert int((analyze(blocks, ordering="nd").parent == -1).sum()) >= 5
