"""Picklable experiment descriptions and compact cross-process results.

The parallel runner ships work to worker processes as *specs* -- small
frozen dataclasses of primitives (strings, ints, tuples, a frozen
:class:`~repro.simulate.network.NetworkConfig`) -- and ships results
back as *records* of plain floats and numpy arrays.  Nothing heavy
(analyzed problems, supernode plans, communication trees) ever crosses a
process boundary: workers rebuild those through the per-process memo
caches in :mod:`repro.runner.cache`.

Two spec kinds cover the paper's sweeps:

* :class:`ExperimentSpec` -- one discrete-event PSelInv simulation
  (Fig. 8 / Fig. 9 / ablations); executes to a :class:`RunRecord`.
* :class:`VolumeSpec` -- one analytic volume computation (Tables I/II,
  Figs. 4-7); executes to a
  :class:`~repro.core.volume.VolumeReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..simulate.network import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.pselinv import PSelInvResult

__all__ = ["ExperimentSpec", "VolumeSpec", "RunRecord"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One deterministic DES run, fully described by picklable values.

    ``workload``/``scale``/``max_supernode`` identify the analyzed
    problem (the per-worker cache key); the rest parameterize
    :class:`~repro.core.pselinv.SimulatedPSelInv` exactly.  ``label`` is
    an opaque caller tag for correlating records with sweep axes (it
    does not influence execution).
    """

    workload: str
    grid: tuple[int, int]
    scheme: str
    scale: str = "small"
    max_supernode: int = 8
    network: NetworkConfig | None = None
    seed: int = 20160523
    placement_seed: int | None = None
    jitter_seed: int = 0
    lookahead: int | None = 32
    hybrid_threshold: int = 8
    per_message_cpu_overhead: float = 0.0
    max_events: int | None = None
    label: str = ""
    # Enable the observability layer (repro.obs) for this run: the worker
    # attaches a metrics registry + hot-spot monitor and ships the
    # snapshot back in ``RunRecord.metrics``.  Off by default; the
    # simulated outcome is bit-identical either way.
    telemetry: bool = False
    # DES engine: "vectorized" (default: calendar-queue scheduler plus
    # compiled collective state machines and one scalar per-message
    # route, for every mode) or "legacy" (binary-heap reference oracle); any other value
    # is rejected when the run starts.  The simulated outcome is
    # bit-identical across engines, so the result store does not hash
    # this field; it exists for head-to-head benchmarking and as an
    # escape hatch / oracle.
    engine: str = "vectorized"

    def describe(self) -> str:
        """One line naming the experiment (used in progress and errors)."""
        tag = f" [{self.label}]" if self.label else ""
        return (
            f"{self.workload}/{self.scale} grid={self.grid[0]}x{self.grid[1]} "
            f"scheme={self.scheme} seed={self.seed} "
            f"jitter={self.jitter_seed} placement={self.placement_seed}{tag}"
        )


@dataclass(frozen=True)
class VolumeSpec:
    """One analytic :func:`~repro.core.communication_volumes` evaluation."""

    workload: str
    grid: tuple[int, int]
    scheme: str
    scale: str = "small"
    max_supernode: int = 8
    seed: int = 20160523
    label: str = ""

    def describe(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return (
            f"volumes {self.workload}/{self.scale} "
            f"grid={self.grid[0]}x{self.grid[1]} scheme={self.scheme}{tag}"
        )


def _dict_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@dataclass
class RunRecord:
    """The cross-process result of one DES experiment.

    Holds everything the sweep benchmarks read out of a
    :class:`~repro.core.pselinv.PSelInvResult` -- elapsed virtual time,
    event count, the Fig. 9 compute/communication split, and the
    per-rank :class:`~repro.simulate.machine.CommStats` tables -- as
    plain floats and numpy arrays, so a record pickles in microseconds
    regardless of problem size.
    """

    spec: ExperimentSpec
    makespan: float
    events: int
    compute_time: float
    communication_time: float
    sent: dict[str, np.ndarray] = field(default_factory=dict)
    received: dict[str, np.ndarray] = field(default_factory=dict)
    messages_sent: dict[str, np.ndarray] = field(default_factory=dict)
    compute_busy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    recv_overhead_busy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nic_out_busy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nic_in_busy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Observability payload (populated when ``spec.telemetry``): the
    # worker-side metrics snapshot plus derived hot-spot statistics.
    # Host-dependent (wall clock), so deliberately excluded from
    # :meth:`same_outcome`.
    metrics: dict = field(default_factory=dict)
    # Host wall-clock seconds the worker spent in the DES (always
    # recorded; excluded from :meth:`same_outcome` for the same reason).
    wall_seconds: float = 0.0

    @classmethod
    def from_result(cls, spec: ExperimentSpec, res: "PSelInvResult") -> "RunRecord":
        stats = res.stats
        return cls(
            spec=spec,
            makespan=res.makespan,
            events=res.events,
            compute_time=res.compute_time,
            communication_time=res.communication_time,
            sent=stats.sent,
            received=stats.received,
            messages_sent=stats.messages_sent,
            compute_busy=stats.compute_busy,
            recv_overhead_busy=stats.recv_overhead_busy,
            nic_out_busy=stats.nic_out_busy,
            nic_in_busy=stats.nic_in_busy,
        )

    def same_outcome(self, other: "RunRecord") -> bool:
        """Bitwise equality of every simulated quantity (spec/label aside).

        This is the parallel-vs-serial determinism contract: two records
        for the same spec must agree exactly, not approximately.
        """
        return (
            self.makespan == other.makespan
            and self.events == other.events
            and self.compute_time == other.compute_time
            and self.communication_time == other.communication_time
            and _dict_equal(self.sent, other.sent)
            and _dict_equal(self.received, other.received)
            and _dict_equal(self.messages_sent, other.messages_sent)
            and np.array_equal(self.compute_busy, other.compute_busy)
            and np.array_equal(self.recv_overhead_busy, other.recv_overhead_busy)
            and np.array_equal(self.nic_out_busy, other.nic_out_busy)
            and np.array_equal(self.nic_in_busy, other.nic_in_busy)
        )
