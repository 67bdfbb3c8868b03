"""Property-based tests of the simulated machine's global invariants.

Random message storms must preserve: byte conservation (everything sent
is received), per-channel FIFO order, causality (no event before its
cause), and determinism (same seed, same trace).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate import Machine, Network, NetworkConfig


def storm(machine, sends):
    """Post a batch of (src, dst, size) sends; returns delivery log."""
    log = []
    cid = machine.category_id("storm")

    def deliver(dst, payload, aux):
        src, tag = aux
        log.append((src, dst, tag, machine.now))

    for t, (s, d, b) in enumerate(sends):
        machine.send_pt(s, d, t, b, cid, deliver, (s, t))
    machine.run()
    return log


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 7), st.integers(1, 10**6)
        ),
        min_size=1,
        max_size=60,
    ),
    st.integers(0, 2**31 - 1),
)
def test_conservation_and_fifo_property(sends, seed):
    cfg = NetworkConfig(jitter_sigma=0.3, cores_per_node=2, nodes_per_group=2)
    m = Machine(8, Network(8, cfg, jitter_seed=seed))
    log = storm(m, sends)
    # Every message is delivered exactly once.
    assert len(log) == len(sends)
    delivered_tags = sorted(tag for _, _, tag, _ in log)
    assert delivered_tags == list(range(len(sends)))
    # Byte conservation per category.
    total = sum(b for s, d, b in sends if s != d)
    assert m.stats.total_sent().sum() == total
    assert m.stats.total_received().sum() == total
    # FIFO per (src, dst): delivery order respects posting order.
    per_channel: dict = {}
    for src, dst, tag, t in log:
        per_channel.setdefault((src, dst), []).append(tag)
    for chan, tags in per_channel.items():
        assert tags == sorted(tags), f"channel {chan} reordered: {tags}"
    # Causality: all delivery times nonnegative and finite.
    for _, _, _, t in log:
        assert 0 <= t < np.inf


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10**5)),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2**31 - 1),
)
def test_determinism_property(sends, seed):
    def trace():
        cfg = NetworkConfig(jitter_sigma=0.25, cores_per_node=2)
        m = Machine(6, Network(6, cfg, jitter_seed=seed))
        return tuple(tuple(e) for e in storm(m, sends))

    assert trace() == trace()


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 64), st.integers(1, 10**7))
def test_broadcast_reaches_everyone_property(nranks, nbytes):
    """A shifted-tree broadcast over random machine sizes delivers to all
    participants, with total traffic (p-1) * nbytes."""
    from repro.comm.collectives import VecBroadcast
    from repro.comm.trees import compiled_tree

    m = Machine(nranks, Network(nranks, NetworkConfig()))
    participants = set(range(nranks))
    tree = compiled_tree("shifted", nranks // 2, tuple(range(nranks)), nbytes)
    got = set()
    bc = VecBroadcast(
        m, tree, "b", nbytes, "x", lambda ctx, rank, payload: got.add(rank),
        None,
    )
    bc.start()
    m.run()
    assert got == participants
    assert m.stats.total_sent().sum() == (nranks - 1) * nbytes


def test_compute_busy_never_exceeds_makespan():
    # Note: a compute task only advances the clock when it has a
    # completion callback (fireless tasks merely occupy the CPU clock for
    # later tasks), so give each task a no-op continuation.
    m = Machine(4, Network(4, NetworkConfig()))
    rng = np.random.default_rng(0)
    for _ in range(50):
        m.post_compute(
            int(rng.integers(0, 4)), float(rng.random()) * 1e-3, lambda: None
        )
    end = m.run()
    assert (m.stats.compute_busy <= end + 1e-12).all()
