"""Bounded-memory drain: the vectorized engine's footprint follows what is
still pending, not what has already run.

* **Scheduler.**  A calendar entry carries its own ``(time, seq, hid,
  arg)`` state and is freed with its bucket, so draining a long chain
  with only a few events pending at a time allocates a fixed amount,
  whatever the chain's length.
* **Protocol.**  A finished supernode releases its compiled tables and
  numeric panels, and no collective is kept alive by a reference cycle:
  with the cyclic collector off for the whole run, no
  :class:`VecBroadcast` / :class:`VecReduce` survives it.
* **Machine.**  Per-pair state follows the traffic: wire costs are
  memoized per node pair and channel clocks exist only for the
  (src, dst) pairs that carried a message, so nothing is sized
  ``nranks**2``.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.comm.collectives import VecBroadcast, VecReduce
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.simulate import Network, VecMachine, VecSimulator
from repro.sparse import analyze
from repro.sparse.factor import factorize
from repro.workloads import dg_hamiltonian, make_workload

from .test_pselinv_numeric import PINNED_DG_INVERSE_SHA256

#: Traced-peak bound of a drain, in bytes.  A few pending entries and
#: calendar buckets take a few kB; a per-event column of a 200k-event
#: chain alone takes ~1.6 MB of pointers (plus ~4.8 MB of float objects
#: for a time column).
DRAIN_PEAK_BOUND = 64 * 1024

#: Traced bound of constructing a 1,024-rank machine: a few per-rank
#: lists of 8 kB each and a 43 x 43 node-pair memo, where two dense
#: per-(src, dst) tables would take 16 MiB.
MACHINE_TRACED_BOUND = 256 * 1024


def _drain_peak(nevents: int, chains: int, bounded: bool) -> int:
    """Traced peak of draining ``chains`` interleaved self-rescheduling
    chains of ``nevents`` events in total."""
    sim = VecSimulator()
    left = [nevents - chains]

    def step(k):
        if left[0] > 0:
            left[0] -= 1
            # Steps of 1-3 bucket widths: new buckets all the time.
            sim.schedule_msg(sim.now + (1 + k % 3) * 1.0e-7, hid, k + 1)

    hid = sim.register_handler(step)
    for c in range(chains):
        sim.schedule_msg(c * 1.0e-8, hid, c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if bounded:
            sim.run(max_events=nevents + 1)
        else:
            sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.events_processed == nevents
    assert sim.pending() == 0
    return peak - base


@pytest.mark.parametrize("bounded", [False, True], ids=["drain", "scalar"])
@pytest.mark.parametrize("nevents", [20_000, 200_000])
def test_drain_peak_does_not_grow_with_event_count(nevents, bounded):
    peak = _drain_peak(nevents, chains=4, bounded=bounded)
    assert peak < DRAIN_PEAK_BOUND, (
        f"{nevents}-event drain peaked at {peak} B traced"
    )


def _assert_protocol_released(sim: SimulatedPSelInv) -> None:
    live = [
        type(o).__name__
        for o in gc.get_objects()
        if isinstance(o, (VecBroadcast, VecReduce))
    ]
    assert not live, f"{len(live)} collectives outlived the run"
    for st in sim.states:
        if not st.plan.blocks:
            continue
        k = st.plan.k
        assert st.bcast_gemms == {} and st.norm_vec == {}, k
        assert st.rr_info is None, k
        assert st.gemms_left is None and st.diag_left is None, k
        assert st.lhat is None and st.uhat is None and st.base is None, k
        assert st.diag_value is not None or not sim.numeric, k


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_symbolic_run_frees_its_protocol(collector_off):
    prob = analyze(make_workload("audikw_1", "tiny"), ordering="nd")
    sim = SimulatedPSelInv(prob.struct, ProcessorGrid(4, 4), "shifted",
                           seed=3, lookahead=4)
    res = sim.run()
    assert res.events > 0
    _assert_protocol_released(sim)


def test_numeric_run_frees_its_protocol(collector_off):
    # The configuration of test_numeric_inverse_bytes_pinned.
    a = dg_hamiltonian((5, 5), 4, rng=np.random.default_rng(0))
    prob = analyze(a, ordering="nd", max_supernode=8)
    fac = factorize(prob.matrix, prob.struct)
    sim = SimulatedPSelInv(
        prob.struct, ProcessorGrid(2, 4), "shifted", factor=fac, seed=0
    )
    res = sim.run()
    got = res.inverse.to_dense_at_structure().tobytes()
    assert hashlib.sha256(got).hexdigest() == PINNED_DG_INVERSE_SHA256
    _assert_protocol_released(sim)


def test_machine_state_not_sized_by_rank_pairs():
    network = Network(1024)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine = VecMachine(1024, network)
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert machine.nranks == 1024
    assert traced < MACHINE_TRACED_BOUND, f"{traced} B traced"


@pytest.mark.parametrize("engine", ["vectorized", "legacy"])
def test_channel_clocks_only_for_used_pairs(engine):
    prob = analyze(make_workload("audikw_1", "tiny"), ordering="nd")
    log: list = []
    sim = SimulatedPSelInv(prob.struct, ProcessorGrid(4, 4), "shifted",
                           seed=3, event_log=log, engine=engine)
    sim.run()
    used = {
        (ev.src, ev.dst) for ev in log if ev.kind == "send" and ev.src != ev.dst
    }
    assert len(used) > 16
    assert len(sim.machine._channel_last) == len(used)
