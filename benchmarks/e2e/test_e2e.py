"""Tests of the benchmark's own machinery.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

from compare import compare, verdict  # noqa: E402
from digest import conservation_errors, record_digest, volume_digest  # noqa: E402
from ledger import LAYERS, layer_of_module  # noqa: E402
from repro.core import ProcessorGrid, VolumeReport  # noqa: E402
from repro.runner import ExperimentSpec, RunRecord  # noqa: E402


def make_record() -> RunRecord:
    rng = np.random.default_rng(5)
    return RunRecord(
        spec=ExperimentSpec("audikw_1", (2, 2), "shifted"),
        makespan=1.25e-3,
        events=1234,
        compute_time=4.0e-4,
        communication_time=8.5e-4,
        sent={"col-bcast": rng.random(4) * 1e6, "row-reduce": rng.random(4) * 1e6},
        received={"col-bcast": rng.random(4) * 1e6, "row-reduce": rng.random(4) * 1e6},
        messages_sent={"col-bcast": np.arange(4), "row-reduce": np.arange(4) + 7},
        compute_busy=rng.random(4),
        recv_overhead_busy=rng.random(4),
        nic_out_busy=rng.random(4),
        nic_in_busy=rng.random(4),
    )


def record_arrays(rec: RunRecord):
    for table in (rec.sent, rec.received, rec.messages_sent):
        yield from table.values()
    for name in ("compute_busy", "recv_overhead_busy", "nic_out_busy", "nic_in_busy"):
        yield getattr(rec, name)


def test_record_digest_sees_every_array_element():
    rec = make_record()
    base = record_digest(rec)
    assert record_digest(make_record()) == base
    seen = set()
    for arr in record_arrays(rec):
        for i in range(arr.size):
            old = arr.flat[i]
            arr.flat[i] = old + 1
            seen.add(record_digest(rec))
            arr.flat[i] = old
    assert base not in seen
    assert len(seen) == sum(a.size for a in record_arrays(rec))
    assert record_digest(rec) == base


@pytest.mark.parametrize(
    "field, value",
    [("events", 1235), ("makespan", np.nextafter(1.25e-3, 1)),
     ("compute_time", 4.1e-4), ("communication_time", 8.4e-4)],
)
def test_record_digest_sees_every_scalar(field, value):
    rec = make_record()
    base = record_digest(rec)
    setattr(rec, field, value)
    assert record_digest(rec) != base


def test_record_digest_ignores_host_fields():
    rec = make_record()
    base = record_digest(rec)
    rec.wall_seconds = 3.0
    rec.metrics = {"snapshot": {}}
    assert record_digest(rec) == base


def make_report() -> VolumeReport:
    rep = VolumeReport(grid=ProcessorGrid(2, 2), scheme="flat")
    rep.sent = {"col-bcast": np.array([8, 0, 16, 0])}
    rep.received = {"col-bcast": np.array([0, 8, 0, 16])}
    rep.messages = {"col-bcast": np.array([1, 0, 2, 0])}
    rep.max_degree = {"col-bcast": 2}
    return rep


def test_volume_digest_sees_every_counter():
    summary = [{"col_bcast": {"max": 1.5}}]
    base = volume_digest([make_report()], summary)
    seen = set()
    for table in ("sent", "received", "messages"):
        for i in range(4):
            rep = make_report()
            getattr(rep, table)["col-bcast"][i] += 1
            seen.add(volume_digest([rep], summary))
    rep = make_report()
    rep.max_degree["col-bcast"] = 3
    seen.add(volume_digest([rep], summary))
    seen.add(volume_digest([make_report()], [{"col_bcast": {"max": 1.25}}]))
    assert base not in seen and len(seen) == 14


def test_conservation_errors_name_the_category():
    sent = {"a": np.array([1.0, 2.0]), "b": np.array([5.0])}
    assert conservation_errors(sent, {"a": np.array([3.0]), "b": np.array([5.0])}) == []
    errors = conservation_errors(sent, {"a": np.array([3.0])})
    assert len(errors) == 1 and errors[0].startswith("b:")


def test_module_layer_map_covers_the_package():
    modules = sorted(p.relative_to(SRC / "repro").as_posix() for p in (SRC / "repro").rglob("*.py"))
    assert modules
    unmapped = [m for m in modules if layer_of_module(m) is None]
    assert unmapped == []
    assert {layer_of_module(m) for m in modules} <= set(LAYERS)


A = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


@pytest.mark.parametrize(
    "b, bound, better, expected",
    [
        ([x * 0.8 for x in A], 0.1, "lower", "improved"),
        ([x * 1.05 for x in A], 0.1, "lower", "within bound"),
        ([x * 1.2 for x in A], 0.1, "lower", "worse"),
        ([x * 0.8 for x in A], 0.1, "higher", "worse"),
        ([x * 1.2 for x in A], 0.1, "higher", "improved"),
        (list(A), 0.1, "lower", "within bound"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0], 0.1, "lower", "unresolved"),
        ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 0.1, "lower", "improved"),
        # Wide spread, but every change run beats every parent run.
        ([5.0, 5.0, 5.0] + [9.89] * 7, 0.1, "lower", "improved"),
        ([5.0, 5.0, 5.0] + [9.89] * 7, 0.1, "higher", "worse"),
        # Wide spread, and every change run is worse than every parent run.
        ([10.2] * 7 + [20.0] * 3, 0.1, "lower", "worse"),
        ([10.2] * 7 + [20.0] * 3, 0.1, "higher", "improved"),
    ],
)
def test_compare_verdicts(b, bound, better, expected):
    assert verdict(A, b, bound, better) == expected


def run_result(seed, failed=0, digest="d", op_s=1.0, seconds=10.0):
    return {"workload": "w", "seed": seed, "seconds": seconds, "attempted": 4,
            "failed": failed, "digest": digest, "metrics": {"op_s": op_s}}


METRICS = [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}]
PARENT = [run_result(s) for s in range(10)]


def test_compare_flags_any_new_failure_and_digest_change():
    lines, code = compare(PARENT, [run_result(s) for s in range(10)], METRICS)
    assert code == 0 and "ops_failed_frac" in lines[-1]
    lines, code = compare(PARENT, [run_result(s, failed=int(s == 3)) for s in range(10)], METRICS)
    assert code == 1 and lines[-1].split()[-3] == "worse"
    change = [run_result(s, digest="e" if s == 2 else "d") for s in range(10)]
    lines, code = compare(PARENT, change, METRICS)
    assert code == 1 and lines[-1].startswith("DIGEST MISMATCH w seed 2")


def test_compare_exit_code_of_unresolved_and_run_length_mismatch():
    change = [run_result(s, op_s=0.5 if s % 2 else 1.5) for s in range(10)]
    lines, code = compare(PARENT, change, METRICS)
    assert code == 3 and " unresolved " in lines[1]
    lines, code = compare(PARENT, [run_result(s, seconds=5.0) for s in range(10)], METRICS)
    assert code == 1 and lines[-1].startswith("RUN LENGTH MISMATCH")
