"""Vectorized engine: calendar queue, point-route machine, bit-identity.

The vectorized engine is an optimization of the heapq engine's scheduler
and machine, never a behavior change.  Both engines run the same compiled
PSelInv protocol, so the cross-engine tests here check the scheduler and
the machine; the protocol itself is checked by the outcome digests of
``tests/test_pselinv_pinned.py``.  Four layers pin the engines:

* **Scheduler.**  The calendar-queue :class:`VecSimulator` executes ANY
  mix of ``schedule``/``schedule_at``/``schedule_msg`` calls in exactly
  the (time, seq) order of the binary-heap :class:`Simulator` -- pinned
  by Hypothesis properties over random schedules, including mid-run
  scheduling into the bucket currently draining -- and the bounded-run
  contract (``until`` leaves ``now`` at the last executed event;
  ``max_events`` raises with the queue intact) holds identically.
* **Machine.**  :class:`VecMachine` reproduces :class:`Machine`
  bit-for-bit on scripted traffic: same timestamps, same stats dicts,
  same trace events, including a wide same-timestamp fan-in drained
  unbounded and bounded.
* **Stats read-outs.**  A drained :class:`VecMachine`'s read-out views
  and totals match :class:`Machine`'s exactly, with integer message
  counts and copies, not aliases, of the live tallies.
* **Full runs.**  Symbolic, numeric, telemetry, event-log and
  per-message-overhead runs agree across the two schedulers and
  machines bit-for-bit: makespan, event count, every stats table, the
  numeric inverse, the trace-event stream, the ``repro trace`` output
  and the metrics.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.comm.trees import TREE_SCHEMES
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.obs import HotSpotMonitor, MetricsRegistry, Telemetry
from repro.runner import ExperimentSpec, RunRecord, cache
from repro.simulate import (
    Machine,
    Network,
    NetworkConfig,
    Simulator,
    VecMachine,
    VecSimulator,
)
from repro.sparse import analyze, from_dense
from repro.sparse.factor import factorize
from repro.workloads import dg_hamiltonian

from .test_complex import random_complex_symmetric

# ---------------------------------------------------------------------------
# Calendar queue vs heapq: exact execution-order equivalence
# ---------------------------------------------------------------------------

# Times spanning sub-bucket spacing, exact ties, and multi-bucket jumps
# (bucket width is 1e-7): the regimes where calendar ordering can break.
_time_st = st.one_of(
    st.sampled_from([0.0, 1e-9, 5e-8, 1e-7, 1.0000001e-7, 2e-7, 1e-6, 3.7e-6]),
    st.floats(min_value=0.0, max_value=1e-5, allow_nan=False),
)

# A schedule program: initial events, each optionally chaining one
# follow-up event at now + delta when it executes (exercises mid-drain
# scheduling, including into the active bucket).
_program_st = st.lists(
    st.tuples(_time_st, st.one_of(st.none(), _time_st)),
    min_size=0,
    max_size=40,
)


def _execute(sim, program, use_msg_api: bool):
    """Run ``program`` on ``sim``; returns the (label, now) trace."""
    trace = []

    def make_cb(idx, chain):
        def cb(_arg=None):
            trace.append((idx, sim.now))
            if chain is not None:
                if use_msg_api:
                    sim.schedule_msg(sim.now + chain, hid, (idx, "chained"))
                else:
                    sim.schedule(chain, chained, (idx, "chained"))

        return cb

    def chained(tag):
        trace.append((tag, sim.now))

    if use_msg_api:
        hid = sim.register_handler(chained)
    cbs = [make_cb(i, chain) for i, (t, chain) in enumerate(program)]
    for i, (t, _chain) in enumerate(program):
        sim.schedule_at(t, cbs[i])
    end = sim.run()
    return trace, end, sim.events_processed


@settings(max_examples=200, deadline=None)
@given(program=_program_st)
def test_calendar_queue_matches_heapq_order(program):
    legacy = _execute(Simulator(), program, use_msg_api=False)
    calendar = _execute(VecSimulator(), program, use_msg_api=False)
    assert calendar == legacy


@settings(max_examples=100, deadline=None)
@given(program=_program_st)
def test_schedule_msg_matches_heapq_order(program):
    legacy = _execute(Simulator(), program, use_msg_api=False)
    calendar = _execute(VecSimulator(), program, use_msg_api=True)
    assert calendar == legacy


@settings(max_examples=100, deadline=None)
@given(
    program=_program_st,
    until=st.one_of(st.none(), _time_st),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)
def test_bounded_run_equivalence(program, until, max_events):
    """until/max_events behave identically: same trace, same now, same
    error, and the queue survives a max_events abort intact."""
    results = []
    for sim in (Simulator(), VecSimulator()):
        trace = []
        for i, (t, _chain) in enumerate(program):
            sim.schedule_at(t, lambda i=i: trace.append((i, sim.now)))
        try:
            sim.run(until=until, max_events=max_events)
            err = None
        except RuntimeError as e:
            err = str(e)
        # Draining the remainder must pick up exactly where the bounded
        # run stopped, in the same order.
        sim.run()
        results.append((trace, sim.now, sim.events_processed, err))
    assert results[0] == results[1]


# Like _program_st, but an event may fan out into several follow-ups,
# so the queue depth rises mid-drain instead of peaking at the start.
_fanout_program_st = st.lists(
    st.tuples(_time_st, st.lists(_time_st, max_size=3)),
    min_size=0,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(program=_fanout_program_st)
def test_drain_with_metrics_matches_heapq(program):
    """Metrics attached keep the unbounded calendar drain (no per-event
    fallback): same order as heapq, same ``sim.events`` and the exact
    queue-depth high-water mark."""
    out = []
    vec = VecSimulator()
    for sim in (Simulator(), vec):
        reg = MetricsRegistry()
        sim.attach_metrics(reg)
        trace = []

        def make_cb(idx, chains, sim=sim, trace=trace):
            def cb():
                trace.append((idx, sim.now))
                for c, delta in enumerate(chains):
                    sim.schedule(delta, trace.append, ((idx, c), "chained"))
            return cb

        for i, (t, chains) in enumerate(program):
            sim.schedule_at(t, make_cb(i, chains))
        sim.run()
        out.append((trace, sim.now, _metrics_sans_wall_clock(reg.snapshot())))
    assert out[0] == out[1]
    assert (vec.buckets_drained > 0) == bool(program)  # the calendar drain ran


_flat_time_st = st.floats(min_value=0.0, max_value=1e-5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(_flat_time_st, min_size=0, max_size=30),
    until=st.one_of(st.none(), _flat_time_st),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
def test_vec_bounded_run_matches_heapq(times, until, max_events):
    """The calendar loop's bounded-run contract equals the heapq
    reference: same executed order, same final clock, same error, and
    the queue survives to a full drain."""
    results = []
    for sim in (Simulator(), VecSimulator()):
        trace = []
        for i, t in enumerate(times):
            sim.schedule_at(t, lambda i=i: trace.append((i, sim.now)))
        try:
            sim.run(until=until, max_events=max_events)
            err = None
        except RuntimeError as e:
            err = str(e)
        sim.run()
        results.append((trace, sim.now, sim.events_processed, err))
    assert results[0] == results[1]


class TestCalendarSimulatorUnit:
    def test_tie_break_is_schedule_order(self):
        sim = VecSimulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_same_bucket_different_times_sorted(self):
        # Distinct timestamps inside one bucket must still execute in
        # time order, not append order.
        sim = VecSimulator()
        w = VecSimulator.BUCKET_WIDTH
        log = []
        sim.schedule_at(0.9 * w, lambda: log.append("late"))
        sim.schedule_at(0.1 * w, lambda: log.append("early"))
        sim.run()
        assert log == ["early", "late"]

    def test_mid_drain_insert_into_active_bucket(self):
        # An event scheduled while its own bucket drains must run within
        # the same drain, in time order.
        sim = VecSimulator()
        w = VecSimulator.BUCKET_WIDTH
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule_at(0.5 * w, lambda: log.append(("mid", sim.now)))

        sim.schedule_at(0.1 * w, first)
        sim.schedule_at(0.9 * w, lambda: log.append(("last", sim.now)))
        sim.run()
        assert log == [
            ("first", 0.1 * w), ("mid", 0.5 * w), ("last", 0.9 * w)
        ]

    def test_bucket_width_is_not_settable(self):
        # The width is a class constant: a constructor argument would
        # silently change nothing, so none is accepted.
        with pytest.raises(TypeError):
            VecSimulator(0.0)

    def test_negative_delay_rejected(self):
        sim = VecSimulator()
        with pytest.raises(ValueError, match="negative delay"):
            sim.schedule(-1e-9, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = VecSimulator()
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError, match="in the past"):
            sim.run()

    def test_max_events_guard_message(self):
        sim = VecSimulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="exceeded 100 events"):
            sim.run(max_events=100)

    def test_until_leaves_now_at_last_executed_event(self):
        # The documented bounded-run contract: now is the timestamp of
        # the last executed event, never advanced to the horizon.
        for sim in (Simulator(), VecSimulator()):
            sim.schedule_at(1.0, lambda: None)
            sim.schedule_at(10.0, lambda: None)
            assert sim.run(until=5.0) == 1.0
            assert sim.now == 1.0
            assert sim.pending() == 1
            # Horizons are absolute: a second bounded run resumes.
            assert sim.run(until=10.0) == 10.0
            assert sim.pending() == 0

    def test_repeated_bounded_runs_drain_everything(self):
        for cls in (Simulator, VecSimulator):
            sim = cls()
            log = []
            for i in range(10):
                sim.schedule_at(float(i), lambda i=i: log.append(i))
            for horizon in (2.5, 4.0, 100.0):
                sim.run(until=horizon)
            assert log == list(range(10))
            assert sim.events_processed == 10

    def test_handler_table_dispatch(self):
        sim = VecSimulator()
        got = []
        hid = sim.register_handler(got.append)
        assert hid >= 2
        sim.schedule_msg(1e-6, hid, "payload")
        sim.run()
        assert got == ["payload"]


def test_vec_occupancy_stats():
    sim = VecSimulator()
    hid = sim.register_handler(lambda arg: None)
    # Two buckets: 12 events in one, 1 in another.
    for i in range(12):
        sim.schedule_msg(1e-6 + i * 1e-9, hid, i)
    sim.schedule_msg(5e-6, hid, "lone")
    sim.run()
    occ = sim.occupancy_stats()
    assert occ["events"] == 13
    assert occ["buckets_drained"] == 2
    assert occ["max_bucket_events"] == 12
    assert occ["mean_bucket_events"] == pytest.approx(6.5)


def test_vec_occupancy_stats_ignores_bounded_runs():
    """The occupancy tally covers the unbounded drains only: events a
    bounded run executes do not inflate the per-bucket mean."""
    sim = VecSimulator()
    hid = sim.register_handler(lambda arg: None)
    for i in range(10):  # ten one-event buckets, 1us apart
        sim.schedule_msg((i + 1) * 1e-6, hid, i)
    sim.run(until=5.5e-6)
    sim.run()
    occ = sim.occupancy_stats()
    assert sim.events_processed == 10
    assert occ["buckets_drained"] == 5
    assert occ["events"] == 5
    assert occ["max_bucket_events"] == 1
    assert occ["mean_bucket_events"] == 1.0


# ---------------------------------------------------------------------------
# VecMachine vs Machine: identical behavior on scripted traffic
# ---------------------------------------------------------------------------


def _machines(n=4, **cfg):
    net_cfg = NetworkConfig(**cfg)
    return (
        Machine(n, Network(n, net_cfg)),
        VecMachine(n, Network(n, net_cfg)),
    )


class TestMachineParity:
    def test_legacy_handler_compat(self):
        # set_handler-based delivery (Message view) works on both.
        for m in _machines():
            got = []
            m.set_handler(1, lambda msg: got.append((msg.src, msg.payload)))
            m.post_send(0, 1, "t", 100, "test", payload="hello")
            m.run()
            assert got == [(0, "hello")]

    def test_point_send_delivers_to_callback(self):
        # The point route hands (dst, payload, aux) to the callback,
        # past any rank handler -- on the hooked route as well.
        for log in (None, []):
            m = VecMachine(4, Network(4, NetworkConfig()), event_log=log)
            got = []
            m.set_handler(1, lambda msg: got.append("handler"))
            m.send_pt(0, 1, "t", 64, m.category_id("test"),
                      lambda dst, payload, aux: got.append((dst, payload, aux)),
                      7, "p")
            m.run()
            assert got == [(1, "p", 7)]

    def test_missing_handler_raises(self):
        for m in _machines():
            m.post_send(0, 1, "t", 10, "x")
            with pytest.raises(RuntimeError, match="no handler"):
                m.run()

    def test_identical_timestamps_and_stats(self):
        # A deterministic traffic script (fan-in, fan-out, self-sends,
        # repeated channels) must produce bit-identical delivery times
        # and stats dicts on both machines.
        mlegacy, mvec = _machines(8, jitter_sigma=0.0)
        outs = []
        for m in (mlegacy, mvec):
            log = []
            for r in range(8):
                m.set_handler(r, lambda msg, m=m: log.append(
                    (msg.src, msg.dst, msg.tag, m.now)))
            for i in range(6):
                m.post_send(0, 1 + i % 3, ("msg", i), 1000 * (i + 1), "a")
                m.post_send(i % 4, 5, ("fan", i), 512, "b")
                m.post_send(2, 2, ("self", i), 9999, "c")
            m.post_compute(3, 0.0, flops=1e6)
            end = m.run()
            outs.append((
                log,
                end,
                {k: list(v) for k, v in m.stats._sent.items()},
                {k: list(v) for k, v in m.stats._messages_sent.items()},
                {k: list(v) for k, v in m.stats._received.items()},
                list(m.stats._compute_busy),
                list(m.stats._nic_out_busy),
                list(m.stats._nic_in_busy),
                list(m.stats._recv_overhead_busy),
            ))
        assert outs[0] == outs[1]

    def test_trace_event_log_identical(self):
        # The HB-checker hook: both machines emit the same TraceEvents.
        net_cfg = NetworkConfig()
        log_a, log_b = [], []
        ma = Machine(4, Network(4, net_cfg), event_log=log_a)
        mb = VecMachine(4, Network(4, net_cfg), event_log=log_b)
        for m, log in ((ma, log_a), (mb, log_b)):
            m.set_handler(1, lambda msg: None)
            m.set_handler(2, lambda msg: None)
            m.post_send(0, 1, "x", 100, "cat")
            m.post_send(0, 2, "y", 200, "cat")
            m.post_send(1, 1, "self", 50, "cat")
            m.run()
        assert log_a == log_b

    def test_non_overtaking_clamp(self):
        # A large message and then a small one on one inter-node channel:
        # the small one would arrive first, so the channel clock holds it
        # back to the large one's arrival, on both machines alike.
        big, small = 1_000_000, 8
        outs = []
        for m in _machines(4, cores_per_node=2, jitter_sigma=0.3):
            net = m.network
            assert net.distance_class(0, 2) != 0
            got = []
            m.set_handler(2, lambda msg, m=m: got.append((msg.tag, m.now)))
            m.post_send(0, 2, "big", big, "cat")
            m.post_send(0, 2, "small", small, "cat")
            m.run()
            big_done = net.injection_time(big)
            big_arrival = big_done + net.transit_time(0, 2, big)
            small_arrival = (big_done + net.injection_time(small)
                             + net.transit_time(0, 2, small))
            assert small_arrival < big_arrival
            assert m._channel_last == {2: big_arrival}  # the clamp fired
            assert [tag for tag, _ in got] == ["big", "small"]
            outs.append(got)
        assert outs[0] == outs[1]

    def test_negative_compute_rejected(self):
        for m in _machines():
            with pytest.raises(ValueError, match="negative compute"):
                m.post_compute(0, -1.0)


# ---------------------------------------------------------------------------
# Same-instant fan-in: one bucket, one handler id, many receives
# ---------------------------------------------------------------------------

_N = 24


def _machine(cls):
    return cls(_N, Network(_N, NetworkConfig(jitter_sigma=0.0)))


def _fan_in(m, categories=("fan",)):
    """Same-instant fan-in: _N - 1 equal sends into rank 0.  With zero
    jitter the receive events share one timestamp, one bucket, and one
    handler id.  Returns the delivery log."""
    got = []
    if isinstance(m, VecMachine):
        cb = lambda dst, payload, aux: got.append((dst, m.now, aux))  # noqa: E731
        cids = [m.category_id(c) for c in categories]
        for src in range(1, _N):
            m.send_pt(src, 0, ("t", src), 4096, cids[src % len(cids)], cb, src)
    else:
        m.set_handler(0, lambda msg: got.append((msg.dst, m.now, msg.src)))
        for src in range(1, _N):
            m.post_send(src, 0, ("t", src), 4096,
                        categories[src % len(categories)])
    return got


def _drain_outcome(m, got):
    return (
        got,
        m.now,
        {k: list(v) for k, v in m.stats._received.items()},
        {k: list(v) for k, v in m.stats._sent.items()},
        {k: list(v) for k, v in m.stats._messages_sent.items()},
        list(m.stats._nic_in_busy),
        list(m.stats._recv_overhead_busy),
    )


@pytest.mark.parametrize("categories", [("fan",), ("a", "b")])
def test_same_instant_fan_in_matches_legacy(categories):
    """A same-instant fan-in, single- and mixed-category, drains on the
    vectorized machine exactly as on the legacy machine."""
    ml = _machine(Machine)
    got_l = _fan_in(ml, categories)
    ml.run()

    mv = _machine(VecMachine)
    got_v = _fan_in(mv, categories)
    mv.run()

    assert _drain_outcome(mv, got_v) == _drain_outcome(ml, got_l)


def test_queue_depth_high_water_on_fan_in():
    """The unbounded drain's depth high-water equals the heapq value on
    a same-instant fan-in."""
    gauges = []
    for cls in (Machine, VecMachine):
        m = _machine(cls)
        reg = MetricsRegistry()
        m.sim.attach_metrics(reg)
        _fan_in(m)
        m.run()
        gauges.append(reg.snapshot()["gauges"]["sim.queue_depth_high_water"])
    assert gauges[1] == gauges[0] == _N - 1


def test_bounded_fan_in_matches_legacy():
    """A fan-in drained through successive ``until`` horizons matches the
    legacy machine's bounded drain exactly."""
    ml = _machine(Machine)
    got_l = _fan_in(ml)
    horizons = (1e-6, 5e-6, 1.0)
    for h in horizons:
        ml.sim.run(until=h)
    assert ml.sim.pending() == 0

    mv = _machine(VecMachine)
    got_v = _fan_in(mv)
    for h in horizons:
        mv.sim.run(until=h)
    assert mv.sim.pending() == 0
    assert mv.sim.events_processed == ml.sim.events_processed
    assert _drain_outcome(mv, got_v) == _drain_outcome(ml, got_l)


def test_vec_machine_stats_readouts_match_legacy():
    """A drained VecMachine's stats read-outs equal the legacy machine's:
    per-category bytes and integer counts, and both totals.  Read-outs
    are copies, so mutating one leaves the live tallies alone."""
    outs = []
    for cls in (Machine, VecMachine):
        m = _machine(cls)
        _fan_in(m, ("a", "b"))
        m.run()
        outs.append(m.stats)
    a, b = outs
    assert list(b.sent) == list(a.sent) == ["b", "a"]
    for k in ("a", "b"):
        assert list(b.sent[k]) == list(a.sent[k])
        assert list(b.received[k]) == list(a.received[k])
        assert list(b.messages_sent[k]) == list(a.messages_sent[k])
        assert list(b.total_sent(k)) == list(a.total_sent(k))
        assert list(b.total_received(k)) == list(a.total_received(k))
    assert b.messages_sent["a"].dtype == np.int64
    assert list(b.total_sent()) == list(a.total_sent())
    assert list(b.total_received()) == list(a.total_received())
    assert list(b.total_sent("missing")) == [0.0] * _N
    for view in (b.sent["a"], b.received["a"], b.messages_sent["a"],
                 b.total_sent("a"), b.total_received("a")):
        view[:] = 999
    assert b.sent["a"][2] == 4096.0
    assert b.received["a"][0] == 4096.0 * (_N // 2 - 1)
    assert b.messages_sent["a"][2] == 1


# ---------------------------------------------------------------------------
# Full-protocol engine equivalence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    m = dg_hamiltonian((5, 5), 16, neighbor_hops=1,
                       rng=np.random.default_rng(11))
    return analyze(m, ordering="nd", max_supernode=8)


def _outcome(problem, engine, *, scheme, grid, seed=123, jitter_seed=7,
             jitter_sigma=0.3, lookahead=32, overhead=0.0, event_log=None,
             network=None, placement_seed=None):
    sim = SimulatedPSelInv(
        problem.struct,
        ProcessorGrid(*grid),
        scheme,
        network=network or NetworkConfig(jitter_sigma=jitter_sigma),
        seed=seed,
        jitter_seed=jitter_seed,
        placement_seed=placement_seed,
        lookahead=lookahead,
        per_message_cpu_overhead=overhead,
        engine=engine,
        event_log=event_log,
    )
    res = sim.run()
    st_ = sim.machine.stats
    return (
        res.makespan,
        res.events,
        {k: list(v) for k, v in st_._sent.items()},
        {k: list(v) for k, v in st_._messages_sent.items()},
        {k: list(v) for k, v in st_._received.items()},
        list(st_._compute_busy),
        list(st_._nic_out_busy),
        list(st_._nic_in_busy),
        list(st_._recv_overhead_busy),
    )


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(TREE_SCHEMES),
    grid=st.sampled_from([(1, 1), (2, 2), (2, 4), (4, 4)]),
    seed=st.integers(min_value=0, max_value=2**20),
    jitter_seed=st.integers(min_value=0, max_value=1000),
    jitter_sigma=st.sampled_from([0.0, 0.3, 1.5]),
    lookahead=st.sampled_from([2, 8, 32]),
)
def test_vectorized_matches_legacy_random_plans(
    problem, scheme, grid, seed, jitter_seed, jitter_sigma, lookahead
):
    """Randomized end-to-end identity: Hypothesis draws the simulation
    parameters, the real planner generates the supernode plans."""
    kwargs = dict(scheme=scheme, grid=grid, seed=seed,
                  jitter_seed=jitter_seed, jitter_sigma=jitter_sigma,
                  lookahead=lookahead)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "legacy", **kwargs))


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_vectorized_matches_legacy(problem, scheme):
    kwargs = dict(scheme=scheme, grid=(2, 4), seed=123, jitter_seed=7,
                  jitter_sigma=0.4, lookahead=4)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "legacy", **kwargs))


@pytest.mark.parametrize("scheme", ["shifted", "binary", "flat", "hybrid"])
def test_engines_bit_identical(problem, scheme):
    for grid in ((2, 2), (4, 4), (1, 1)):
        kwargs = dict(scheme=scheme, grid=grid, jitter_seed=77)
        assert (_outcome(problem, "vectorized", **kwargs)
                == _outcome(problem, "legacy", **kwargs)), (scheme, grid)


def test_engines_identical_event_log(problem):
    """The repro-check trace hook sees the same send/deliver stream
    under the default jitter, on both engines."""
    log_l: list = []
    log_v: list = []
    _outcome(problem, "legacy", scheme="shifted", grid=(2, 2), event_log=log_l)
    _outcome(problem, "vectorized", scheme="shifted", grid=(2, 2),
             event_log=log_v)
    assert log_l == log_v
    assert log_l  # non-vacuous: the stream exists


@pytest.fixture(scope="module")
def quick():
    """The quick-tier spec's problem and its raw numeric factor."""
    prob = cache.get_problem("audikw_1", "tiny", 8)
    return prob, factorize(prob.matrix, prob.struct)


def _telemetry(grid):
    return Telemetry(
        metrics=MetricsRegistry(), hotspots=HotSpotMonitor(grid.size)
    )


def _metrics_sans_wall_clock(metrics: dict) -> dict:
    """A metrics snapshot without the two wall-clock gauges (the only
    series allowed to differ between engines)."""
    wall = ("sim.wall_seconds", "sim.events_per_sec")
    out = dict(metrics)
    out["gauges"] = {
        k: v for k, v in metrics["gauges"].items()
        if k.split("{")[0] not in wall
    }
    return out


@pytest.mark.parametrize("mode", ["symbolic", "numeric", "telemetry"])
@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_default_engine_record_matches_legacy(quick, scheme, mode):
    """The library default engine, in every mode, reproduces the legacy
    record -- and the numeric inverse and telemetry series as well."""
    prob, factor = quick
    spec = ExperimentSpec(
        "audikw_1", (3, 4), scheme, scale="tiny",
        network=NetworkConfig(jitter_sigma=0.3), seed=17, jitter_seed=5,
        lookahead=4,
    )
    grid = ProcessorGrid(*spec.grid)
    results, telemetries = [], []
    for engine in ({}, {"engine": "legacy"}):
        telemetry = _telemetry(grid) if mode == "telemetry" else None
        telemetries.append(telemetry)
        results.append(SimulatedPSelInv(
            prob.struct, grid, scheme, network=spec.network, seed=spec.seed,
            jitter_seed=spec.jitter_seed, lookahead=spec.lookahead,
            factor=factor if mode == "numeric" else None,
            telemetry=telemetry, **engine,
        ).run())
    default, legacy = (RunRecord.from_result(spec, r) for r in results)
    assert default.same_outcome(legacy)
    if mode == "numeric":
        assert np.array_equal(
            results[0].inverse.to_dense_at_structure(),
            results[1].inverse.to_dense_at_structure(),
        )
    if mode == "telemetry":
        snaps = [_metrics_sans_wall_clock(t.metrics.snapshot())
                 for t in telemetries]
        assert snaps[0] == snaps[1]
        assert snaps[0]["histograms"]  # non-vacuous: coll.* series exist


def _numeric_inverse(prob, scheme, grid, engine):
    res = SimulatedPSelInv(
        prob.struct, ProcessorGrid(*grid), scheme,
        factor=factorize(prob.matrix, prob.struct), seed=5, jitter_seed=3,
        network=NetworkConfig(jitter_sigma=0.3), engine=engine,
    ).run()
    return res.inverse.to_dense_at_structure()


@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_numeric_inverse_bit_equal_dg(problem, scheme):
    """The compiled protocol carries real payloads: the distributed
    inverse equals the legacy engine's bit for bit."""
    assert np.array_equal(
        _numeric_inverse(problem, scheme, (2, 4), "vectorized"),
        _numeric_inverse(problem, scheme, (2, 4), "legacy"),
    )


def test_numeric_inverse_bit_equal_complex_symmetric():
    rng = np.random.default_rng(11)
    prob = analyze(from_dense(random_complex_symmetric(50, 3.5, rng)),
                   ordering="amd")
    got = _numeric_inverse(prob, "shifted", (3, 3), "vectorized")
    assert np.iscomplexobj(got)
    assert np.array_equal(got, _numeric_inverse(prob, "shifted", (3, 3), "legacy"))


def test_vectorized_trace_log_identical(problem):
    """The repro-check trace hook sees the same send/deliver stream
    (the hooked point route, compiled protocol)."""
    logs = {}
    for engine in ("legacy", "vectorized"):
        log: list = []
        _outcome(problem, engine, scheme="shifted", grid=(2, 2), seed=5,
                 jitter_seed=3, jitter_sigma=0.2, event_log=log)
        logs[engine] = log
    assert logs["vectorized"] == logs["legacy"]
    assert logs["legacy"]  # non-vacuous: the stream exists


def test_vectorized_with_per_message_overhead(problem):
    """A per-delivery CPU tax (a deliver-stage hook) must still match
    the legacy engine exactly."""
    kwargs = dict(scheme="shifted", grid=(2, 2), seed=9, jitter_seed=1,
                  jitter_sigma=0.1, overhead=2e-7)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "legacy", **kwargs))


@pytest.mark.parametrize("engine", ["vectorized", "legacy"])
@pytest.mark.parametrize("overhead", [-2e-7, float("nan")])
def test_invalid_per_message_overhead_rejected(problem, engine, overhead):
    """A negative or NaN per-message tax is an error on both engines,
    like a negative compute time, instead of running as zero."""
    with pytest.raises(ValueError, match="per_message_cpu_overhead"):
        SimulatedPSelInv(problem.struct, ProcessorGrid(2, 2), "shifted",
                         per_message_cpu_overhead=overhead, engine=engine)


def _max_fanout(log) -> int:
    """The widest fan-out in an event log: sends of one tag by one rank."""
    sends: dict = {}
    for ev in log:
        if ev.kind == "send" and ev.src != ev.dst:
            key = (ev.src, ev.tag)
            sends[key] = sends.get(key, 0) + 1
    return max(sends.values())


@pytest.mark.parametrize("scheme", ["flat", "hybrid"])
def test_wide_fanout_matches_legacy(problem, scheme):
    """Grid columns of 8 ranks give fan-outs of 6 and more: hook-free,
    and then with an event log and a per-message tax, both engines
    agree on the whole outcome and on the event stream."""
    kwargs = dict(scheme=scheme, grid=(8, 2), seed=3, jitter_seed=11,
                  jitter_sigma=0.3)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "legacy", **kwargs))
    outs, logs = [], []
    for engine in ("vectorized", "legacy"):
        log: list = []
        outs.append(_outcome(problem, engine, overhead=2e-7, event_log=log,
                             **kwargs))
        logs.append(log)
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]
    assert _max_fanout(logs[0]) >= 6  # non-vacuous


@pytest.mark.parametrize("scheme", ["flat", "shifted", "randperm"])
def test_node_pair_costs_match_legacy(problem, scheme):
    """Two ranks per node, two nodes per group and a shuffled placement:
    the vectorized machine's node-pair cost memo and used-pairs channel
    clocks reproduce the legacy machine, hook-free and with an event log
    and a per-message tax, over all three distance classes."""
    net = NetworkConfig(cores_per_node=2, nodes_per_group=2,
                        jitter_sigma=0.3)
    kwargs = dict(scheme=scheme, grid=(4, 4), seed=8, jitter_seed=2,
                  network=net, placement_seed=5)

    def outcomes(engine):
        log: list = []
        hooked = _outcome(problem, engine, overhead=2e-7, event_log=log,
                          **kwargs)
        return _outcome(problem, engine, **kwargs), hooked, log

    vec = outcomes("vectorized")
    assert vec == outcomes("legacy")
    network = Network(16, net, placement_seed=5)
    assert network.nnodes == 8
    classes = {
        network.distance_class(ev.src, ev.dst)
        for ev in vec[2] if ev.kind == "send" and ev.src != ev.dst
    }
    assert classes == {0, 1, 2}  # non-vacuous


def test_overhead_with_telemetry_matches_legacy(problem):
    """Per-message overhead and telemetry together: same record, same
    metrics, same hot-spot tallies and the same labelled compute spans
    (msg-overhead included) on the timeline."""
    spec = ExperimentSpec("dg", (2, 4), "hybrid", seed=9, jitter_seed=1,
                          per_message_cpu_overhead=2e-7)
    grid = ProcessorGrid(*spec.grid)
    runs = []
    for engine in ("vectorized", "legacy"):
        telemetry = Telemetry.full(grid.size)
        res = SimulatedPSelInv(
            problem.struct, grid, spec.scheme, seed=spec.seed,
            jitter_seed=spec.jitter_seed,
            per_message_cpu_overhead=spec.per_message_cpu_overhead,
            telemetry=telemetry, engine=engine,
        ).run()
        runs.append((
            RunRecord.from_result(spec, res),
            _metrics_sans_wall_clock(telemetry.metrics.snapshot()),
            telemetry.hotspots.report(5),
            telemetry.timeline.compute_spans,
        ))
    (rec_v, *rest_v), (rec_l, *rest_l) = runs
    assert rec_v.same_outcome(rec_l)
    assert rest_v == rest_l
    assert any(label == "msg-overhead" for *_, label in rest_v[2])


def test_repro_trace_byte_identical(tmp_path, capsys):
    """``repro trace`` writes the same bytes on both engines, and the
    metrics differ only in the two wall-clock gauges."""
    out = {}
    for engine in ("vectorized", "legacy"):
        trace = tmp_path / f"{engine}.trace.json"
        metrics = tmp_path / f"{engine}.metrics.json"
        assert cli.main([
            "trace", "-o", str(trace), "--metrics-out", str(metrics),
            "--engine", engine,
        ]) == 0
        out[engine] = (
            trace.read_bytes(),
            _metrics_sans_wall_clock(json.loads(metrics.read_text())),
        )
    assert out["vectorized"] == out["legacy"]
    capsys.readouterr()


def test_vec_machine_on_calendar_engine(problem):
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(2, 2), "shifted", engine="vectorized"
    )
    assert isinstance(sim.machine, VecMachine)
    assert isinstance(sim.machine.sim, VecSimulator)
    res = sim.run()
    assert res.events > 0
    occ = sim.machine.sim.occupancy_stats()
    assert occ["events"] == res.events
    assert occ["buckets_drained"] > 0


def test_unknown_engine_rejected(problem):
    # "batch" named a third engine that no longer exists.
    for engine in ("turbo", "batch"):
        with pytest.raises(ValueError, match="unknown engine"):
            SimulatedPSelInv(
                problem.struct, ProcessorGrid(2, 2), "shifted", engine=engine
            )
