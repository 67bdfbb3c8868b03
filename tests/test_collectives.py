"""Tests for the compiled tree broadcast / reduce over both machines.

Every test runs on the heapq :class:`Machine` and on :class:`VecMachine`,
the two machines both drivers run their protocols on.
"""

import numpy as np
import pytest

from repro.comm.collectives import VecBroadcast, VecReduce
from repro.comm.trees import compiled_tree
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
        lambda ctx, value: out.append(value), None,
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
