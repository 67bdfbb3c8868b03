"""Tests for the DES kernel, network model, and machine."""

import gc
import weakref

import numpy as np
import pytest

from repro.simulate import Machine, Network, NetworkConfig, Simulator, VecMachine


class TestSimulator:
    def test_time_ordering(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        assert sim.run() == 3.0
        assert log == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(0.5, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 1.5)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_run_until_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(2))
        sim.run(until=5.0)
        assert log == [1]
        assert sim.pending() == 1

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestNetwork:
    def test_distance_classes(self):
        cfg = NetworkConfig(cores_per_node=4, nodes_per_group=2)
        net = Network(32, cfg)
        assert net.distance_class(0, 3) == 0  # same node
        assert net.distance_class(0, 4) == 1  # same group
        assert net.distance_class(0, 31) == 2  # across groups

    def test_transit_monotone_in_distance(self):
        cfg = NetworkConfig(cores_per_node=4, nodes_per_group=2)
        net = Network(64, cfg)
        b = 10_000
        t0 = net.transit_time(0, 1, b)
        t1 = net.transit_time(0, 5, b)
        t2 = net.transit_time(0, 63, b)
        assert t0 < t1 < t2

    def test_transit_monotone_in_size(self):
        net = Network(8)
        assert net.transit_time(0, 1, 100) < net.transit_time(0, 1, 10**6)

    def test_jitter_deterministic_per_seed(self):
        cfg = NetworkConfig(cores_per_node=1, jitter_sigma=0.3)
        n1 = Network(16, cfg, jitter_seed=5)
        n2 = Network(16, cfg, jitter_seed=5)
        n3 = Network(16, cfg, jitter_seed=6)
        t1 = [n1.transit_time(0, j, 1000) for j in range(1, 16)]
        t2 = [n2.transit_time(0, j, 1000) for j in range(1, 16)]
        t3 = [n3.transit_time(0, j, 1000) for j in range(1, 16)]
        assert t1 == t2
        assert t1 != t3

    def test_jitter_symmetric(self):
        cfg = NetworkConfig(cores_per_node=1, jitter_sigma=0.3)
        net = Network(8, cfg, jitter_seed=1)
        assert net.transit_time(2, 6, 500) == net.transit_time(6, 2, 500)

    def test_no_jitter_by_default(self):
        net = Network(8)
        assert net._pair_jitter(0, 7) == 1.0

    def test_placement_shuffles_nodes(self):
        cfg = NetworkConfig(cores_per_node=2)
        a = Network(32, cfg, placement_seed=None)
        b = Network(32, cfg, placement_seed=3)
        assert not np.array_equal(a.node_of, b.node_of)
        # Same multiset of node ids.
        assert sorted(a.node_of.tolist()) == sorted(b.node_of.tolist())

    def test_injection_and_ejection(self):
        cfg = NetworkConfig(
            injection_overhead=1e-6,
            injection_bandwidth=1e9,
            ejection_bandwidth=2e9,
        )
        net = Network(4, cfg)
        assert net.injection_time(1000) == pytest.approx(2e-6)
        assert net.ejection_time(1000) == pytest.approx(5e-7)


def _send(m, src, dst, tag, nbytes, category, cb=None, payload=None):
    """``send_pt`` with the category by name; ``cb(dst, payload, aux)``
    defaults to dropping the message, and ``aux`` carries the tag."""
    m.send_pt(
        src, dst, tag, nbytes, m.category_id(category),
        cb or (lambda dst, payload, aux: None), tag, payload,
    )


class TestMachine:
    def _machine(self, n=4, **cfg):
        return Machine(n, Network(n, NetworkConfig(**cfg)))

    def test_send_delivers_to_handler(self):
        m = self._machine()
        got = []
        _send(m, 0, 1, "t", 100, "test",
              lambda dst, payload, aux: got.append((dst, payload, aux)),
              payload="hello")
        m.run()
        assert got == [(1, "hello", "t")]

    def test_self_send_costs_nothing_and_is_uncounted(self):
        m = self._machine()
        got = []
        _send(m, 2, 2, "t", 10**9, "test",
              lambda dst, payload, aux: got.append(aux))
        end = m.run()
        assert got == ["t"]
        assert end == 0.0
        assert m.stats.total_sent().sum() == 0

    def test_stats_accounting(self):
        m = self._machine()
        _send(m, 0, 1, "a", 500, "cat1")
        _send(m, 0, 2, "b", 300, "cat2")
        m.run()
        assert m.stats.total_sent("cat1")[0] == 500
        assert m.stats.total_sent("cat2")[0] == 300
        assert m.stats.total_sent()[0] == 800
        assert m.stats.total_received("cat1")[1] == 500
        assert m.stats.total_received("cat2")[2] == 300

    def test_nic_serialization(self):
        # Two messages from one sender must serialize through its NIC.
        m = self._machine(injection_overhead=1e-3, injection_bandwidth=1e12)
        arrivals = []

        def arrive(dst, payload, aux):
            arrivals.append(m.now)

        _send(m, 0, 1, "a", 8, "x", arrive)
        _send(m, 0, 2, "b", 8, "x", arrive)
        m.run()
        assert arrivals[1] - arrivals[0] >= 1e-3 * 0.99

    def test_channel_fifo(self):
        # A big message followed by a small one on the same channel must
        # not be overtaken.
        m = self._machine(injection_bandwidth=1e12)
        order = []

        def arrive(dst, payload, aux):
            order.append(aux)

        _send(m, 0, 1, "big", 10**7, "x", arrive)
        _send(m, 0, 1, "small", 1, "x", arrive)
        m.run()
        assert order == ["big", "small"]

    def test_compute_serializes_on_cpu(self):
        m = self._machine()
        times = []
        m.post_compute(0, 1.0, lambda: times.append(m.now))
        m.post_compute(0, 2.0, lambda: times.append(m.now))
        m.run()
        assert times == [1.0, 3.0]
        assert m.stats.compute_busy[0] == pytest.approx(3.0)

    def test_compute_flops_conversion(self):
        m = self._machine(flop_rate=1e9, task_overhead=0.0)
        done = []
        m.post_compute(0, 0.0, lambda: done.append(m.now), flops=2e9)
        m.run()
        assert done[0] == pytest.approx(2.0)

    def test_makespan_is_final_event_time(self):
        m = self._machine()
        _send(m, 0, 3, "t", 10**6, "x")
        end = m.run()
        assert end > 0


class TestRunPausesCollector:
    """``Machine.run`` disables the cyclic GC for the drain only."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def _machine(self):
        m = Machine(2, Network(2, NetworkConfig()))
        seen = []
        m.post_compute(0, 1.0, lambda: seen.append(gc.isenabled()))
        return m, seen

    def test_reenabled_after_drain(self):
        gc.enable()
        m, seen = self._machine()
        m.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_frees_earlier_cyclic_garbage_first(self):
        # A paused drain never advances the collector's generations, so
        # run() collects once up front or dead simulations pile up.
        gc.enable()

        class Node:
            pass

        node = Node()
        node.cycle = node
        ref = weakref.ref(node)
        del node
        m, _ = self._machine()
        m.run()
        assert ref() is None

    def test_reenabled_after_max_events_error(self):
        gc.enable()
        m, _ = self._machine()
        m.post_compute(1, 1.0, lambda: None)
        with pytest.raises(RuntimeError, match="exceeded 1 events"):
            m.run(max_events=1)
        assert gc.isenabled()

    def test_stays_disabled_when_caller_disabled_it(self):
        gc.disable()
        m, seen = self._machine()
        m.run()
        assert seen == [False]
        assert not gc.isenabled()

    @pytest.mark.parametrize("cls", [Machine, VecMachine])
    def test_stepped_drain_collects_once(self, cls, monkeypatch):
        # A stepped drain pauses the collector on every run() call but
        # makes only the first call's full collection.
        gc.enable()
        calls = []
        monkeypatch.setattr(gc, "collect", lambda *a: calls.append(a))
        m = cls(2, Network(2, NetworkConfig()))
        seen = []
        for _ in range(3):
            m.post_compute(0, 1.0, lambda: seen.append(gc.isenabled()))
        for horizon in (1.5, 2.5, 3.5):
            m.run(until=horizon)
            assert gc.isenabled()
        assert seen == [False] * 3
        assert len(calls) == 1


class TestNetworkConfigImmutability:
    def test_frozen(self):
        cfg = NetworkConfig()
        with pytest.raises(Exception):
            cfg.flop_rate = 1.0  # type: ignore[misc]

    def test_machine_rejects_undersized_network(self):
        net = Network(4)
        with pytest.raises(ValueError, match="fewer ranks"):
            Machine(8, net)


class TestRunUntilWithGuard:
    def test_until_and_max_events_combine(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(until=4.5, max_events=100)
        assert sim.events_processed == 5
        assert sim.pending() == 5
