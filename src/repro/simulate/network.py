"""Hierarchical network model of an Edison-like distributed machine.

The paper's platform (NERSC Edison, Cray XC30, Aries dragonfly) shows up in
its analysis through three mechanisms, all modelled here:

1. **Injection serialization** -- a rank's outgoing messages share one NIC,
   so a flat-tree root that must push ``p - 1`` messages pays for them
   back-to-back.  This is the "instantaneous hot spot" of section III.
2. **Hierarchical locality** -- ranks on the same node communicate through
   shared memory (low latency, high bandwidth); ranks in the same
   electrical group are closer than ranks across groups.  MPI places
   consecutive ranks on the same node first, which is why the binary
   tree's "split the sorted rank list" heuristic keeps traffic local.
3. **Inhomogeneity / placement variability** -- different job placements
   and shared routers make nominally identical runs differ.  We model it
   as a seeded log-normal multiplier per node pair plus an optional random
   node placement, which is exactly the paper's explanation of its error
   bars (Fig. 8).

Default constants are loosely calibrated to Edison-class hardware
(microsecond latencies, GB/s links) but are knobs, not measurements; the
reproduction targets curve *shapes*, not absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkConfig", "Network"]


@dataclass(frozen=True)
class NetworkConfig:
    """Tunable parameters of the machine model (times in seconds, bytes)."""

    cores_per_node: int = 24
    nodes_per_group: int = 64
    # Point-to-point latency by distance class.
    latency_intra_node: float = 6.0e-7
    latency_intra_group: float = 1.8e-6
    latency_inter_group: float = 3.0e-6
    # Per-byte transfer cost (1 / bandwidth) by distance class.  These are
    # effective per-flow MPI bandwidths (well below link rates, as on any
    # loaded dragonfly), not hardware peaks.
    bw_intra_node: float = 6.0e9
    bw_intra_group: float = 2.2e9
    bw_inter_group: float = 1.6e9
    # NIC injection: per-message overhead + per-byte serialization at the
    # sender.  This is the resource a flat-tree root saturates.
    injection_overhead: float = 1.0e-6
    injection_bandwidth: float = 2.5e9
    # NIC ejection: per-byte serialization at the receiver.  This is what
    # a flat *reduce* root saturates when p-1 contributions converge.
    ejection_bandwidth: float = 2.5e9
    # Receive-side per-message CPU overhead (matching + copy start).
    receive_overhead: float = 8.0e-7
    # Log-normal jitter sigma applied per node pair (0 = homogeneous net).
    jitter_sigma: float = 0.0
    # Compute rate per rank, flops/second (BLAS3 on small supernodal
    # blocks on one Ivy Bridge core-ish).
    flop_rate: float = 8.0e9
    # Fixed per-task dispatch overhead (scheduling, pointer chasing).
    task_overhead: float = 5.0e-7


class Network:
    """Distance, transfer-time, and jitter queries for a set of ranks.

    ``placement_seed`` shuffles the rank -> node assignment at node
    granularity (None keeps the linear MPI-like placement);
    ``jitter_seed`` draws the per-node-pair multipliers.  Jitter factors
    are memoized lazily so huge rank counts stay cheap.

    The transfer-time queries sit on the simulator's innermost loop (one
    :meth:`injection_time` + :meth:`transit_time` per message, millions
    per run), so the constructor flattens the config into per-distance-
    class ``(latency, 1/bandwidth)`` scalars and the jitter memo into a
    dense ``node x node`` table at sweep-sized node counts -- the
    queries then run on local loads, one multiply, and one add, with no
    per-call attribute chasing, tuple hashing, or branching on config.
    """

    # Below this node count the pair-jitter memo is a flat dense list
    # indexed ``a * nnodes + b`` (every grid the sweeps use lands here:
    # even 46x46 ranks / 24 per node is only 89 nodes); above it the
    # dense table would waste memory and the dict memo takes over.
    _FLAT_JITTER_MAX_NODES = 512

    def __init__(
        self,
        nranks: int,
        config: NetworkConfig | None = None,
        *,
        placement_seed: int | None = None,
        jitter_seed: int = 0,
    ) -> None:
        self.nranks = nranks
        self.config = config or NetworkConfig()
        cfg = self.config
        nnodes = (nranks + cfg.cores_per_node - 1) // cfg.cores_per_node
        self.nnodes = nnodes
        node_ids = np.arange(nnodes)
        if placement_seed is not None:
            rng = np.random.default_rng(placement_seed)
            node_ids = rng.permutation(node_ids)
        # node_of[r]: the physical node hosting rank r.
        node_of = node_ids[np.arange(nranks) // cfg.cores_per_node]
        self.node_of = node_of
        self.group_of = node_of // cfg.nodes_per_group
        # Hot-path copies as plain lists (scalar ndarray indexing is slow).
        self._node_list = node_of.tolist()
        self._group_list = self.group_of.tolist()
        self._jitter_rng = np.random.default_rng(jitter_seed)
        self._jitter_seed = jitter_seed
        self._jitter: dict[tuple[int, int], float] = {}
        # Flattened per-distance-class (latency, 1/bandwidth) table and
        # NIC constants (see class docstring).
        self._lat0, self._lat1, self._lat2 = (
            cfg.latency_intra_node,
            cfg.latency_intra_group,
            cfg.latency_inter_group,
        )
        self._ibw0 = 1.0 / cfg.bw_intra_node
        self._ibw1 = 1.0 / cfg.bw_intra_group
        self._ibw2 = 1.0 / cfg.bw_inter_group
        self._inj_overhead = cfg.injection_overhead
        self._inj_ibw = 1.0 / cfg.injection_bandwidth
        self._ej_ibw = 1.0 / cfg.ejection_bandwidth
        self._no_jitter = cfg.jitter_sigma <= 0
        # Dense jitter memo, 0.0 = "not drawn yet" (a log-normal draw is
        # never exactly zero, so the sentinel cannot collide).
        if not self._no_jitter and nnodes <= self._FLAT_JITTER_MAX_NODES:
            self._jitter_flat: list[float] | None = [0.0] * (nnodes * nnodes)
        else:
            self._jitter_flat = None

    # -- queries ------------------------------------------------------------

    def distance_class(self, src: int, dst: int) -> int:
        """0 = same node, 1 = same group, 2 = across groups."""
        if self._node_list[src] == self._node_list[dst]:
            return 0
        if self._group_list[src] == self._group_list[dst]:
            return 1
        return 2

    def _draw_jitter(self, a: int, b: int) -> float:
        """The per-node-pair log-normal draw, ``a < b`` node ids.

        Derived deterministically from the pair so lookup order does not
        change the draw (and the flat and dict memos agree exactly).
        """
        rng = np.random.default_rng(
            (self._jitter_seed * 1_000_003 + a * 1009 + b) & 0x7FFFFFFF
        )
        return float(rng.lognormal(mean=0.0, sigma=self.config.jitter_sigma))

    def _node_jitter(self, a: int, b: int) -> float:
        """Memoized jitter factor for a distinct node pair."""
        if a > b:
            a, b = b, a
        flat = self._jitter_flat
        if flat is not None:
            idx = a * self.nnodes + b
            j = flat[idx]
            if j == 0.0:
                j = self._draw_jitter(a, b)
                flat[idx] = j
            return j
        key = (a, b)
        j = self._jitter.get(key)
        if j is None:
            j = self._draw_jitter(a, b)
            self._jitter[key] = j
        return j

    def _pair_jitter(self, src: int, dst: int) -> float:
        if self._no_jitter:
            return 1.0
        a, b = self._node_list[src], self._node_list[dst]
        if a == b:
            return 1.0  # shared memory does not jitter
        return self._node_jitter(a, b)

    def injection_time(self, nbytes: int) -> float:
        """Sender NIC occupancy for one message."""
        return self._inj_overhead + nbytes * self._inj_ibw

    def ejection_time(self, nbytes: int) -> float:
        """Receiver NIC occupancy for one message."""
        return nbytes * self._ej_ibw

    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        """Wire time after injection: latency + size / bandwidth, jittered."""
        nl = self._node_list
        a = nl[src]
        b = nl[dst]
        if a == b:
            return self._lat0 + nbytes * self._ibw0
        gl = self._group_list
        if gl[src] == gl[dst]:
            t = self._lat1 + nbytes * self._ibw1
        else:
            t = self._lat2 + nbytes * self._ibw2
        if self._no_jitter:
            return t
        return t * self._node_jitter(a, b)

    def compute_time(self, flops: float) -> float:
        """CPU time for a compute task of the given flop count."""
        return self.config.task_overhead + flops / self.config.flop_rate

    def pair_params(self, src: int, dst: int) -> tuple[float, float, float]:
        """``(latency, 1/bandwidth, jitter)`` for one rank pair.

        It reads only the two ranks' nodes and groups, so the vectorized
        machine memoizes the triple per *node* pair and computes
        ``transit = (latency + nbytes / bandwidth) * jitter`` inline.
        Bit-identical to :meth:`transit_time` for every case: intra-node
        and jitter-free pairs return a jitter of exactly 1.0, and an
        IEEE multiply by 1.0 preserves the value bit-for-bit, while the
        jittered case uses the same ``(lat + nb*ibw) * j`` op order.
        """
        nl = self._node_list
        a = nl[src]
        b = nl[dst]
        if a == b:
            return (self._lat0, self._ibw0, 1.0)
        if self._group_list[src] == self._group_list[dst]:
            lat, ibw = self._lat1, self._ibw1
        else:
            lat, ibw = self._lat2, self._ibw2
        if self._no_jitter:
            return (lat, ibw, 1.0)
        return (lat, ibw, self._node_jitter(a, b))
