"""Vectorized engine: compiled collectives, slice dispatch, bit-identity.

The vectorized engine's contract is the batch engine's, verbatim: it is
an optimization, never a behavior change.  Three layers pin it:

* **Randomized end-to-end identity.**  Hypothesis draws simulation
  parameters (scheme -- all six tree families -- grid shape, seeds,
  jitter, lookahead), the real planner generates the supernode plans,
  and the full run must agree bit-for-bit with the per-message batch
  engine: makespan, event count, every stats table, and (separately)
  the send/deliver trace-event stream.
* **Slice dispatch.**  The batched receive dispatchers are forced to
  fire (a wide same-timestamp fan-in) and must reproduce the scalar
  machines exactly; bounded runs (``until``/``max_events``) must never
  enter a slice companion -- the scalar-fallback contract.
* **Column stats.**  :class:`VecCommStats` keeps numpy columns but the
  read-out views and totals match :class:`CommStats` exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.trees import TREE_SCHEMES
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.obs import HotSpotMonitor, MetricsRegistry, Telemetry
from repro.runner import ExperimentSpec, RunRecord, cache
from repro.simulate import (
    BatchMachine,
    CommStats,
    Network,
    NetworkConfig,
    Simulator,
    VecCommStats,
    VecMachine,
    VecSimulator,
)
from repro.simulate.machine import Message
from repro.sparse import analyze
from repro.sparse.factor import factorize
from repro.workloads import dg_hamiltonian

ALL_SCHEMES = ("flat", "binary", "binomial", "shifted", "randperm", "hybrid")


@pytest.fixture(scope="module")
def problem():
    m = dg_hamiltonian((5, 5), 16, neighbor_hops=1,
                       rng=np.random.default_rng(11))
    return analyze(m, ordering="nd", max_supernode=8)


def _outcome(problem, engine, *, scheme, grid, seed, jitter_seed,
             jitter_sigma, lookahead, overhead=0.0, event_log=None):
    sim = SimulatedPSelInv(
        problem.struct,
        ProcessorGrid(*grid),
        scheme,
        network=NetworkConfig(jitter_sigma=jitter_sigma),
        seed=seed,
        jitter_seed=jitter_seed,
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


# ---------------------------------------------------------------------------
# Randomized end-to-end identity (real planner, all six schemes)
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    grid=st.sampled_from([(1, 1), (2, 2), (2, 4), (4, 4)]),
    seed=st.integers(min_value=0, max_value=2**20),
    jitter_seed=st.integers(min_value=0, max_value=1000),
    jitter_sigma=st.sampled_from([0.0, 0.3, 1.5]),
    lookahead=st.sampled_from([2, 8, 32]),
)
def test_vectorized_matches_batch_random_plans(
    problem, scheme, grid, seed, jitter_seed, jitter_sigma, lookahead
):
    kwargs = dict(scheme=scheme, grid=grid, seed=seed,
                  jitter_seed=jitter_seed, jitter_sigma=jitter_sigma,
                  lookahead=lookahead)
    batch = _outcome(problem, "batch", **kwargs)
    vec = _outcome(problem, "vectorized", **kwargs)
    assert vec == batch


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_vectorized_matches_legacy(problem, scheme):
    kwargs = dict(scheme=scheme, grid=(2, 4), seed=123, jitter_seed=7,
                  jitter_sigma=0.4, lookahead=4)
    legacy = _outcome(problem, "legacy", **kwargs)
    vec = _outcome(problem, "vectorized", **kwargs)
    assert vec == legacy


@pytest.fixture(scope="module")
def quick():
    """The quick-tier spec's problem and its raw numeric factor."""
    prob = cache.get_problem("audikw_1", "tiny", 8)
    return prob, factorize(prob.matrix, prob.struct)


@pytest.mark.parametrize("mode", ["symbolic", "numeric", "telemetry"])
@pytest.mark.parametrize("scheme", TREE_SCHEMES)
def test_default_engine_record_matches_legacy(quick, scheme, mode):
    """The library default engine -- including its numeric and telemetry
    fallback onto the batch protocol -- reproduces the legacy record."""
    prob, factor = quick
    spec = ExperimentSpec(
        "audikw_1", (3, 4), scheme, scale="tiny",
        network=NetworkConfig(jitter_sigma=0.3), seed=17, jitter_seed=5,
        lookahead=4,
    )
    grid = ProcessorGrid(*spec.grid)
    results = []
    for engine in ({}, {"engine": "legacy"}):
        telemetry = None
        if mode == "telemetry":
            telemetry = Telemetry(
                metrics=MetricsRegistry(), hotspots=HotSpotMonitor(grid.size)
            )
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


def test_vectorized_trace_log_identical(problem):
    """The repro-check trace hook sees the same send/deliver stream
    (the trace path disables the fast closures but not the compiled
    protocol -- both layers must agree with the batch engine)."""
    logs = {}
    for engine in ("batch", "vectorized"):
        log: list = []
        _outcome(problem, engine, scheme="shifted", grid=(2, 2), seed=5,
                 jitter_seed=3, jitter_sigma=0.2, lookahead=32,
                 event_log=log)
        logs[engine] = log
    assert logs["vectorized"] == logs["batch"]
    assert logs["batch"]  # non-vacuous: the stream exists


def test_vectorized_with_per_message_overhead(problem):
    """A per-delivery CPU tax disables the fast path; the generic
    primitives must still match the batch engine exactly."""
    kwargs = dict(scheme="shifted", grid=(2, 2), seed=9, jitter_seed=1,
                  jitter_sigma=0.1, lookahead=32, overhead=2e-7)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "batch", **kwargs))


# ---------------------------------------------------------------------------
# Slice dispatch: forced to fire, and forbidden on bounded runs
# ---------------------------------------------------------------------------

_N = 24  # fan-in width _N - 1 = 23 comfortably exceeds VecSimulator.MIN_RUN


def _machine(cls):
    return cls(_N, Network(_N, NetworkConfig(jitter_sigma=0.0)))


def _count_slice_dispatches(machine):
    """Wrap every installed batch companion with a call counter."""
    sim = machine.sim
    counts = [0]
    for hid, fn in enumerate(sim._btable):
        if fn is None:
            continue

        def wrapped(batch, lo, hi, _fn=fn):
            counts[0] += 1
            return _fn(batch, lo, hi)

        sim._btable[hid] = wrapped
    return counts


def _fan_in(m, *, use_point_route, categories=("fan",)):
    """Same-instant fan-in: _N - 1 equal sends into rank 0.  With zero
    jitter the receive events share one timestamp, one bucket, and one
    handler id -- a maximal slice run."""
    got = []
    cb = lambda dst, payload, aux: got.append((dst, m.now, aux))  # noqa: E731
    cids = [m.category_id(c) for c in categories]
    for src in range(1, _N):
        cid = cids[src % len(cids)]
        if use_point_route:
            m.send_pt(src, 0, ("t", src), 4096, cid, cb, src)
        else:
            m.send(src, 0, ("t", src), 4096, cid, None, cb, src)
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


@pytest.mark.parametrize("use_point_route", [False, True])
@pytest.mark.parametrize("categories", [("fan",), ("a", "b")])
def test_slice_dispatch_fires_and_matches_batch(use_point_route, categories):
    """Both receive dispatchers (SoA route and point route), on both the
    single-category scatter and the mixed-category fallback, reproduce
    the per-message batch machine bit-for-bit -- and provably fire."""
    mb = _machine(BatchMachine)
    got_b = _fan_in(mb, use_point_route=False, categories=categories)
    mb.run()

    mv = _machine(VecMachine)
    counts = _count_slice_dispatches(mv)
    got_v = _fan_in(mv, use_point_route=use_point_route,
                    categories=categories)
    mv.run()

    assert counts[0] > 0, "slice companion never fired"
    assert _drain_outcome(mv, got_v) == _drain_outcome(mb, got_b)


def test_bounded_run_never_enters_slice_companion():
    """``until``/``max_events`` runs use the inherited scalar loops --
    a slice dispatch there could jump the horizon.  Poison every slice
    companion; a fully bounded drain must never call one, and must
    still match the batch machine's bounded drain exactly."""
    mb = _machine(BatchMachine)
    got_b = _fan_in(mb, use_point_route=False)
    horizons = (1e-6, 5e-6, 1.0)
    for h in horizons:
        mb.sim.run(until=h)
    assert mb.sim.pending() == 0

    mv = _machine(VecMachine)
    for hid, fn in enumerate(mv.sim._btable):
        if fn is not None:
            def poisoned(batch, lo, hi):  # pragma: no cover
                raise AssertionError("slice companion on a bounded run")
            mv.sim._btable[hid] = poisoned
    got_v = _fan_in(mv, use_point_route=True)
    for h in horizons:
        mv.sim.run(until=h)
    assert mv.sim.pending() == 0
    assert mv.sim.events_processed == mb.sim.events_processed
    assert _drain_outcome(mv, got_v) == _drain_outcome(mb, got_b)


# ---------------------------------------------------------------------------
# VecSimulator bounded-run + occupancy contracts
# ---------------------------------------------------------------------------

_time_st = st.floats(min_value=0.0, max_value=1e-5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(_time_st, min_size=0, max_size=30),
    until=st.one_of(st.none(), _time_st),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
def test_vec_bounded_run_matches_heapq(times, until, max_events):
    """The batched dispatcher's bounded-run contract equals the heapq
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


# ---------------------------------------------------------------------------
# VecCommStats: numpy columns, CommStats-identical read-outs
# ---------------------------------------------------------------------------


def test_vec_stats_columns_match_commstats():
    a, b = CommStats(4), VecCommStats(4)
    traffic = [
        Message(1, 3, "t0", 100, "x"),
        Message(1, 2, "t1", 50, "x"),
        Message(2, 0, "t2", 7, "y"),
    ]
    for s in (a, b):
        for msg in traffic:
            s.on_send(msg)
        s.on_receive(traffic[0])
    assert isinstance(b._sent["x"], np.ndarray)
    for k in ("x", "y"):
        assert list(b.sent[k]) == list(a.sent[k])
        assert list(b.messages_sent[k]) == list(a.messages_sent[k])
    assert b.messages_sent["x"].dtype == np.int64
    assert list(b.received["x"]) == list(a.received["x"])
    assert list(b.total_sent()) == list(a.total_sent())
    assert list(b.total_sent("x")) == list(a.total_sent("x"))
    assert list(b.total_sent("missing")) == [0.0] * 4
    assert list(b.total_received("x")) == list(a.total_received("x"))
    # Read-outs are copies, not aliases of the live columns.
    view = b.sent["x"]
    view[1] = 999.0
    assert b._sent["x"][1] != 999.0


def test_vec_machine_uses_column_stats(problem):
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(2, 2), "shifted", engine="vectorized"
    )
    assert isinstance(sim.machine, VecMachine)
    assert isinstance(sim.machine.stats, VecCommStats)
    assert isinstance(sim.machine.sim, VecSimulator)
    res = sim.run()
    assert res.events > 0
    occ = sim.machine.sim.occupancy_stats()
    assert occ["events"] == res.events
    assert occ["buckets_drained"] > 0
