"""Pinned outcomes of the symmetric simulated PSelInv, on both engines.

The two engines share one protocol and differ only in their scheduler
and machine, so a cross-engine comparison checks the scheduler and the
machine, not the protocol.  These digests check the protocol: they were
recorded on the heapq reference engine while it still ran its own
hand-written per-rank tag-dispatch copy of the protocol, and every
engine must reproduce them without re-recording.
"""

import pytest

from repro.comm.trees import TREE_SCHEMES
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.simulate import NetworkConfig
from tests.digests import event_log_digest, symbolic_outcome_digest

ENGINES = ("legacy", "vectorized")

# Symbolic outcome digests on the configuration of
# test_unsym_symbolic_outcome_pinned: a jittered multi-node network, a
# 2x4 grid and ``hybrid_threshold=3``.  On this grid every symmetric
# broadcast runs down a grid column of two ranks, and a hybrid reduce
# over at most three ranks is a flat star where the shifted scheme
# builds a star with its children rotated, which a reduce does not see
# (over four ranks hybrid is shifted), so the hybrid and shifted
# digests coincide.
PINNED_SYM_SYMBOLIC_DIGESTS = {
    ("flat", 1): "079768e9761ee08efa99e35471b4af65dea2bcb9e7b8f903046a8901346f0318",
    ("flat", 4): "ce6f765fb089d846bf976c20941ffdae10aa2d672f9b7b670d2d027b0a786713",
    ("flat", None): "8f204102b5f68751d6c852c0f8797fd37738cb89e968f006f1e25c548883e2cb",
    ("binary", 1): "a7f184427e76fbd1f88c142f344a95d0c7131cfd04409843de27c43c94420d8a",
    ("binary", 4): "1a08e4a27ee33cf70ac37585574427816bb39d728f33038d85e1228070d56510",
    ("binary", None): "ae8f11fcc940a3317f53b1034e30b92160f1b66b1da57ced180db2ec478f6ed8",
    ("shifted", 1): "d97126401936b8796f832f5d51b143de07a19967b2e79fe4a45898e29bf93c0a",
    ("shifted", 4): "38a2ac882398b3d93d80fa128209c8fc8b83304f1866c8eb2a9485b642678a47",
    ("shifted", None): "f543c2c07f89ee1c1ca89e88160828f915c4654aa702a10e3ae4a5f35a7521e7",
    ("randperm", 1): "84fe59fec8c71c6df9def75166a922b9872aea65dd1bd9bdf5f350bccfa02ae5",
    ("randperm", 4): "a9cd5af8825f249a898d78ee0a96df57f0f695b4506d1edc26cff7d1c0b1ece0",
    ("randperm", None): "d2c9ffef9fa9513e89df1f434b290654c5e0f4d9a9fbfb6ee7b4f2dc6413f94c",
    ("hybrid", 1): "d97126401936b8796f832f5d51b143de07a19967b2e79fe4a45898e29bf93c0a",
    ("hybrid", 4): "38a2ac882398b3d93d80fa128209c8fc8b83304f1866c8eb2a9485b642678a47",
    ("hybrid", None): "f543c2c07f89ee1c1ca89e88160828f915c4654aa702a10e3ae4a5f35a7521e7",
    ("binomial", 1): "d16869b3ffeca261c61742a08dacee77789c4de738752ff37bab6c6673a35db9",
    ("binomial", 4): "9101bbb8f92318abfac24981693fec71b9d1651f9d2be050927526026a6937d4",
    ("binomial", None): "5fe5a5e1fc39017d81654cb28015029be215199af7522e6f53673f0b8fb94f56",
}

# ("hybrid", 4) with an event log: the log's digest (692 records).
PINNED_SYM_EVENT_LOG_DIGEST = (
    "706a096eb1e9ec0b33d4ad166fddce2072c5272e599cc998df731608960ebfd4"
)
# ("binary", 4) with ``per_message_cpu_overhead=2e-7``.
PINNED_SYM_OVERHEAD_DIGEST = (
    "cf1bc82a08dbb7ef6a598810ac10f80dd36b014414ede9755da740bca43e3e39"
)


def _run(struct, scheme, lookahead, engine, **kwargs):
    net = NetworkConfig(cores_per_node=2, nodes_per_group=2, jitter_sigma=0.25)
    return SimulatedPSelInv(
        struct, ProcessorGrid(2, 4), scheme, network=net, seed=3,
        placement_seed=5, jitter_seed=11, lookahead=lookahead,
        hybrid_threshold=3, engine=engine, **kwargs,
    ).run()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("lookahead", [1, 4, None])
@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_sym_symbolic_outcome_pinned(scheme, lookahead, engine, digest_struct):
    res = _run(digest_struct, scheme, lookahead, engine)
    got = symbolic_outcome_digest(res)
    assert got == PINNED_SYM_SYMBOLIC_DIGESTS[(scheme, lookahead)]


@pytest.mark.parametrize("engine", ENGINES)
def test_sym_event_log_pinned(engine, digest_struct):
    log: list = []
    res = _run(digest_struct, "hybrid", 4, engine, event_log=log)
    # The log is observation only: the outcome is the unlogged one.
    assert symbolic_outcome_digest(res) == PINNED_SYM_SYMBOLIC_DIGESTS[
        ("hybrid", 4)
    ]
    assert len(log) == 692
    assert event_log_digest(log) == PINNED_SYM_EVENT_LOG_DIGEST


@pytest.mark.parametrize("engine", ENGINES)
def test_sym_per_message_overhead_pinned(engine, digest_struct):
    res = _run(digest_struct, "binary", 4, engine,
               per_message_cpu_overhead=2e-7)
    assert symbolic_outcome_digest(res) == PINNED_SYM_OVERHEAD_DIGEST
