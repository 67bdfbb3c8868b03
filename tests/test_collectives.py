"""Tests for the compiled tree broadcast / reduce over both machines.

Every test runs on the heapq :class:`Machine` and on :class:`VecMachine`,
the two machines both drivers run their protocols on -- except the
counted-reduction property, which delivers a reduction's messages by
hand (on a recording stand-in machine) to control their interleaving
with the local tasks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import VecBroadcast, VecReduce
from repro.comm.trees import TREE_SCHEMES, compiled_tree
from repro.simulate import Machine, Network, NetworkConfig, VecMachine

MACHINES = (Machine, VecMachine)


def machines(n=16):
    """One fresh machine of each kind, ``n`` ranks on the default network."""
    return [cls(n, Network(n, NetworkConfig())) for cls in MACHINES]


def tree_of(scheme, root, participants, seed=0):
    return compiled_tree(scheme, root, tuple(sorted(participants)), seed)


def reduce_over(m, tree, contributors, out, nbytes=64, tag="r"):
    """A sum reduction whose completion appends the value to ``out``;
    returns it with its rank -> tree position map."""
    pos = dict(zip(tree.ranks, range(tree.size)))
    red = VecReduce(
        m, tree, tag, nbytes, "row-reduce", [pos[r] for r in contributors],
        [1] * len(contributors), lambda ctx, value: out.append(value), None,
    )
    return red, pos


def total_messages(m):
    return sum(arr.sum() for arr in m.stats.messages_sent.values())


@pytest.mark.parametrize("scheme", ["flat", "binary", "shifted", "randperm", "hybrid"])
@pytest.mark.parametrize("nparticipants", [1, 2, 5, 13])
class TestBroadcast:
    def test_payload_reaches_every_participant(self, scheme, nparticipants):
        for m in machines():
            participants = set(range(0, nparticipants))
            root = nparticipants - 1
            tree = tree_of(scheme, root, participants, seed=3)
            delivered = {}
            bc = VecBroadcast(
                m, tree, "tag", 1000, "col-bcast",
                lambda ctx, rank, payload: delivered.setdefault(
                    rank, (ctx, payload)
                ),
                "ctx",
            )
            bc.start(payload="DATA")
            m.run()
            assert set(delivered) == participants
            assert all(v == ("ctx", "DATA") for v in delivered.values())

    def test_message_count_is_p_minus_1(self, scheme, nparticipants):
        for m in machines():
            tree = tree_of(scheme, 0, range(nparticipants), seed=3)
            bc = VecBroadcast(
                m, tree, "t", 64, "col-bcast", lambda c, r, p: None, None
            )
            bc.start()
            m.run()
            assert total_messages(m) == nparticipants - 1


class TestBroadcastMisuse:
    def test_double_start_rejected(self):
        for m in machines():
            tree = tree_of("flat", 0, {0, 1})
            bc = VecBroadcast(m, tree, "t", 8, "x", lambda c, r, p: None, None)
            bc.start()
            with pytest.raises(RuntimeError, match="started twice"):
                bc.start()


@pytest.mark.parametrize("scheme", ["flat", "binary", "shifted"])
@pytest.mark.parametrize("nparticipants", [1, 2, 6, 12])
class TestReduce:
    def test_sum_reaches_root(self, scheme, nparticipants):
        for m in machines():
            participants = range(nparticipants)
            tree = tree_of(scheme, 0, participants, seed=9)
            result = []
            red, pos = reduce_over(m, tree, participants, result, nbytes=256)
            for r in participants:
                red.contribute_pos(pos[r], np.array([float(r)]))
            m.run()
            assert len(result) == 1
            assert result[0][0] == pytest.approx(sum(range(nparticipants)))
            assert total_messages(m) == nparticipants - 1

    def test_symbolic_mode_counts_only(self, scheme, nparticipants):
        for m in machines():
            participants = range(nparticipants)
            tree = tree_of(scheme, 0, participants, seed=9)
            done = []
            red, pos = reduce_over(m, tree, participants, done, nbytes=128)
            for r in participants:
                red.contribute_pos(pos[r])
            m.run()
            assert done == [None]


class TestReduceEdgeCases:
    def test_root_not_a_contributor(self):
        for m in machines():
            tree = tree_of("binary", 0, {0, 1, 2, 3})
            out = []
            red, pos = reduce_over(m, tree, (1, 2, 3), out)
            for r in (1, 2, 3):
                red.contribute_pos(pos[r], np.array([1.0]))
            m.run()
            assert out and out[0][0] == pytest.approx(3.0)

    def test_contributions_arrive_late(self):
        # Contributions staggered in virtual time must still all combine.
        for m in machines():
            participants = range(5)
            tree = tree_of("shifted", 2, participants, seed=4)
            out = []
            red, pos = reduce_over(m, tree, participants, out)
            for i, r in enumerate(participants):
                m.sim.schedule(
                    0.1 * (i + 1),
                    lambda p=pos[r]: red.contribute_pos(p, np.array([2.0])),
                )
            m.run()
            assert out[0][0] == pytest.approx(10.0)

    def test_leaf_relay_finishes_at_construction(self):
        # A participant that neither contributes nor has children sends
        # its (empty) partial up as soon as the reduction is built.
        for m in machines():
            tree = tree_of("flat", 0, {0, 1, 2})
            out = []
            red, pos = reduce_over(m, tree, (0, 1), out)
            assert m.sim.pending() == 1
            red.contribute_pos(pos[0], np.array([1.0]))
            red.contribute_pos(pos[1], np.array([2.0]))
            m.run()
            assert out[0][0] == pytest.approx(3.0)
            assert total_messages(m) == 2


class TestConcurrentCollectives:
    def test_many_overlapping_broadcasts(self):
        """Multiple restricted collectives in flight simultaneously --
        the paper's central requirement."""
        for m in machines(12):
            delivered = {t: set() for t in range(10)}
            bcasts = []
            for t in range(10):
                participants = set(range(t % 3, 12, t % 4 + 1))
                tree = tree_of("shifted", min(participants), participants, seed=t)
                bcasts.append(VecBroadcast(
                    m, tree, t, 100 * (t + 1), "col-bcast",
                    lambda ctx, rank, payload: delivered[ctx].add(rank), t,
                ))
            for bc in bcasts:
                bc.start()
            m.run()
            for t, bc in enumerate(bcasts):
                assert delivered[t] == set(bc.tree.ranks)


class _Wire:
    """A stand-in machine for one reduction: it records every send as
    ``(clock, src rank, parent position, payload)`` and delivers none."""

    coll_shapes = None

    def __init__(self, clock):
        self.clock = clock
        self.sent = []

    def category_id(self, name):
        return 0

    def send_pt(self, src, dst, tag, nbytes, cid, cb, aux=0, payload=None):
        self.sent.append((self.clock[0], src, aux, payload))


# Magnitudes far apart, so that a different summation order changes bits.
_TERMS = st.sampled_from([1e16, -1e16, 1.0, -2.5, 0.1, 3e-8, 7.0, 1e-3])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(TREE_SCHEMES),
       numeric=st.booleans(), max_tasks=st.sampled_from([1, 4]))
def test_counted_reduce_matches_countdown_oracle(data, scheme, numeric,
                                                 max_tasks):
    """A reduction that counts each contributor's local tasks behaves as
    the driver pattern it replaces: a countdown dict and a partial sum
    per contributor outside the collective, then one contribution per
    contributor to a count-of-one reduction.  Over a random tree, random
    local task counts (all one when ``max_tasks`` is 1) and a random
    interleaving of local tasks and child messages, every position sends
    at the same step, the root completes at the same step, and the root
    value is the same to the bit."""
    ranks = sorted(data.draw(st.sets(st.integers(0, 15), min_size=1,
                                     max_size=12)))
    root = data.draw(st.sampled_from(ranks))
    tree = compiled_tree(scheme, root, tuple(ranks),
                         data.draw(st.integers(0, 99)))
    counts = {
        p: data.draw(st.integers(1, max_tasks))
        for p in data.draw(st.sets(st.integers(0, tree.size - 1)))
    }
    tasks = {
        p: [np.array([data.draw(_TERMS)]) if numeric else None
            for _ in range(n)]
        for p, n in counts.items()
    }
    clock = [0]
    new, old = _Wire(clock), _Wire(clock)
    done_new, done_old = [], []
    red = VecReduce(
        new, tree, "r", 8, "row-reduce", list(counts), list(counts.values()),
        lambda ctx, value: done_new.append((clock[0], value)), None,
    )
    # The oracle: a countdown dict, a partial sum accumulated in arrival
    # order and one contribute_pos per contributor.
    oracle = VecReduce(
        old, tree, "r", 8, "row-reduce", list(counts), [1] * len(counts),
        lambda ctx, value: done_old.append((clock[0], value)), None,
    )
    left = dict(counts)
    partials = {}

    def oracle_task(pos, value):
        if value is not None:
            cur = partials.get(pos)
            partials[pos] = value if cur is None else cur + value
        left[pos] -= 1
        if left[pos] == 0:
            oracle.contribute_pos(pos, partials.pop(pos, None))

    inflight: list[int] = []
    seen = 0
    while True:
        assert [s[:3] for s in new.sent] == [s[:3] for s in old.sent]
        inflight += range(seen, len(new.sent))
        seen = len(new.sent)
        choices = [("task", p) for p in sorted(tasks) if tasks[p]]
        choices += [("msg", x) for x in inflight]
        if not choices:
            break
        kind, x = data.draw(st.sampled_from(choices))
        clock[0] += 1
        if kind == "task":
            value = tasks[x].pop(0)
            red.contribute_pos(x, value)
            oracle_task(x, value)
        else:
            inflight.remove(x)
            for wire, r in ((new, red), (old, oracle)):
                _, _, parent, payload = wire.sent[x]
                r.on_message(tree.ranks[parent], payload, parent)
    # Every non-root position sent once; the root completed once.
    assert sorted(s[1] for s in new.sent) == sorted(tree.ranks[1:])
    assert len(done_new) == len(done_old) == 1
    assert done_new[0][0] == done_old[0][0]
    got, want = done_new[0][1], done_old[0][1]
    if numeric and counts:
        assert got.tobytes() == want.tobytes()
    else:
        assert got is None and want is None
