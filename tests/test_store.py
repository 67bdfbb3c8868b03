"""Persistent result store: hashing stability, round-trips, corruption.

The store's contract (see ``docs/caching.md``) has three legs:

1. **Spec-hash stability** -- the hash keys on exactly the fields that
   influence the outcome: ``label`` and ``engine`` are excluded, floats
   are exact, nested
   ``NetworkConfig`` fields count, and telemetry specs are uncacheable.
2. **Round-trip fidelity** -- a stored record replays bit-identically
   (``same_outcome``) with the caller's spec re-attached.
3. **Corruption tolerance** -- truncated, bit-flipped, or garbage
   entries are detected (magic/length/crc) and treated as misses; the
   run recomputes and overwrites, never crashes.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.runner import ExperimentSpec, RunRecord, run_experiment
from repro.runner import store as store_mod
from repro.runner.store import RunStore, cacheable, spec_hash
from repro.simulate import NetworkConfig


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    """Every test gets its own store root and clean knobs/stats."""
    for var in ("REPRO_STORE", "REPRO_STORE_REFRESH", "REPRO_STORE_DIR"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    store_mod.reset_stats()
    yield
    store_mod.reset_stats()


SPEC = ExperimentSpec(
    "audikw_1",
    (4, 4),
    "shifted",
    scale="tiny",
    network=NetworkConfig(jitter_sigma=0.1),
    jitter_seed=3,
)


class TestSpecHash:
    def test_stable_across_calls_and_processes(self):
        # Hex sha256 of canonical JSON: no id()/hash() randomization.
        h1, h2 = spec_hash(SPEC), spec_hash(SPEC)
        assert h1 == h2
        assert len(h1) == 64 and int(h1, 16) >= 0

    def test_label_excluded(self):
        relabeled = dataclasses.replace(SPEC, label="fig8/run3")
        assert spec_hash(relabeled) == spec_hash(SPEC)

    def test_engine_excluded(self):
        # The engines are bit-identical, so the choice must not split
        # the store.
        hashes = {
            spec_hash(dataclasses.replace(SPEC, engine=engine))
            for engine in ("legacy", "vectorized")
        }
        assert hashes == {spec_hash(SPEC)}

    def test_every_execution_field_matters(self):
        variants = [
            dataclasses.replace(SPEC, scheme="flat"),
            dataclasses.replace(SPEC, grid=(8, 8)),
            dataclasses.replace(SPEC, seed=SPEC.seed + 1),
            dataclasses.replace(SPEC, jitter_seed=SPEC.jitter_seed + 1),
            dataclasses.replace(SPEC, placement_seed=5),
            dataclasses.replace(SPEC, lookahead=8),
            dataclasses.replace(SPEC, per_message_cpu_overhead=1e-9),
            dataclasses.replace(
                SPEC, network=NetworkConfig(jitter_sigma=0.2)
            ),
            dataclasses.replace(SPEC, network=None),
        ]
        hashes = {spec_hash(v) for v in variants}
        assert len(hashes) == len(variants)
        assert spec_hash(SPEC) not in hashes

    def test_float_fields_hash_exactly(self):
        # 0.1 + 0.2 != 0.3 in binary: the hash must see the difference
        # (float.hex canonicalization, no decimal rounding).
        a = dataclasses.replace(SPEC, per_message_cpu_overhead=0.1 + 0.2)
        b = dataclasses.replace(SPEC, per_message_cpu_overhead=0.3)
        assert spec_hash(a) != spec_hash(b)

    def test_telemetry_specs_not_cacheable(self):
        assert cacheable(SPEC)
        assert not cacheable(dataclasses.replace(SPEC, telemetry=True))

    def test_non_experiment_specs_not_cacheable(self):
        from repro.runner import VolumeSpec

        assert not cacheable(VolumeSpec("audikw_1", (4, 4), "flat"))


class TestRoundTrip:
    def test_record_round_trips_bit_identically(self):
        record = run_experiment(SPEC)
        rs = RunStore()
        rs.put(SPEC, record)
        loaded = rs.get(SPEC)
        assert loaded is not None
        assert loaded.same_outcome(record)
        assert np.array_equal(loaded.compute_busy, record.compute_busy)
        assert loaded.wall_seconds == record.wall_seconds

    def test_loaded_record_carries_callers_spec(self):
        record = run_experiment(SPEC)
        RunStore().put(SPEC, record)
        relabeled = dataclasses.replace(SPEC, label="warm/17")
        loaded = RunStore().get(relabeled)
        assert loaded is not None
        assert loaded.spec.label == "warm/17"
        assert loaded.same_outcome(record)

    def test_miss_on_absent_entry(self):
        assert RunStore().get(SPEC) is None
        assert store_mod.store_stats()["misses"] == 1

    def test_stats_count_round_trip(self):
        record = run_experiment(SPEC)
        rs = RunStore()
        rs.put(SPEC, record)
        rs.get(SPEC)
        stats = store_mod.store_stats()
        assert stats["writes"] == 1 and stats["hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]


class TestCorruptionTolerance:
    def _stored(self) -> tuple[RunStore, str, RunRecord]:
        record = run_experiment(SPEC)
        rs = RunStore()
        rs.put(SPEC, record)
        return rs, rs.path_for(spec_hash(SPEC)), record

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: b"",  # emptied
            lambda blob: b"garbage" * 40,  # wrong magic
            lambda blob: blob[:20] + bytes([blob[20] ^ 0xFF]) + blob[21:],
        ],
        ids=["truncated", "empty", "garbage", "bitflip"],
    )
    def test_corrupt_entry_is_a_miss_then_recomputes(self, corrupt):
        rs, path, record = self._stored()
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(corrupt(blob))
        store_mod.reset_stats()
        assert rs.get(SPEC) is None  # detected, not raised
        stats = store_mod.store_stats()
        assert stats["errors"] == 1 and stats["misses"] == 1
        # The recompute path overwrites the bad entry with a good one.
        rs.put(SPEC, record)
        loaded = rs.get(SPEC)
        assert loaded is not None and loaded.same_outcome(record)

    def test_unpicklable_payload_with_valid_crc_is_a_miss(self):
        # crc/length fine, pickle garbage: the last line of defense.
        import struct as structlib
        import zlib

        rs, path, _ = self._stored()
        payload = b"\x80\x05not really a pickle"
        blob = (
            store_mod._HEADER.pack(
                store_mod._MAGIC, zlib.crc32(payload), len(payload)
            )
            + payload
        )
        with open(path, "wb") as fh:
            fh.write(blob)
        store_mod.reset_stats()
        assert rs.get(SPEC) is None
        assert store_mod.store_stats()["errors"] == 1

    def test_put_failure_is_counted_not_raised(self, tmp_path, monkeypatch):
        # Unwritable root: the store is an accelerator, not a dependency.
        record = run_experiment(SPEC)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be\n")
        rs = RunStore(str(blocked))
        store_mod.reset_stats()
        rs.put(SPEC, record)  # must not raise
        assert store_mod.store_stats()["errors"] == 1
        assert store_mod.store_stats()["writes"] == 0


class TestRunnerIntegration:
    def test_warm_run_skips_simulation(self, monkeypatch):
        store_mod.configure(enabled=True)
        cold = run_experiment(SPEC)
        # Any attempt to simulate on the warm path is a loud failure.
        import repro.core.pselinv as pselinv

        def _boom(*a, **k):
            raise AssertionError("simulated on a store hit")

        monkeypatch.setattr(pselinv, "SimulatedPSelInv", _boom)
        warm = run_experiment(SPEC)
        assert warm.same_outcome(cold)

    def test_refresh_recomputes_and_overwrites(self):
        store_mod.configure(enabled=True)
        cold = run_experiment(SPEC)
        path = RunStore().path_for(spec_hash(SPEC))
        mtime = os.stat(path).st_mtime_ns
        store_mod.configure(refresh=True)
        refreshed = run_experiment(SPEC)
        assert refreshed.same_outcome(cold)
        assert os.stat(path).st_mtime_ns != mtime  # rewritten

    def test_disabled_store_never_touches_disk(self, tmp_path):
        store_mod.configure(enabled=False)
        run_experiment(SPEC)
        assert not (tmp_path / "store").exists()

    def test_parallel_sweep_merges_store_stats(self):
        from repro.runner import ParallelRunner

        store_mod.configure(enabled=True)
        specs = [
            dataclasses.replace(SPEC, jitter_seed=j, label=f"run{j}")
            for j in range(4)
        ]
        runner = ParallelRunner(jobs=2)
        runner.run(specs)
        warm = ParallelRunner(jobs=2)
        records = warm.run(specs)
        assert len(records) == 4
        # Worker-side store hits made it back to the parent's stats.
        assert warm.stats.get("store.hits") == 4
        snap = warm.metrics_snapshot()
        assert snap["gauges"]["runner.store.hit_rate"] == 1.0
