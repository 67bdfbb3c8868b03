"""Discrete-event simulator of a distributed-memory message-passing machine.

Substitutes for the paper's physical testbed (NERSC Edison, Cray XC30):
rank-level CPU and NIC resources, a hierarchical network with seeded
inhomogeneity, MPI-like asynchronous point-to-point messaging, and
per-rank communication-volume accounting.
"""

from .engine import Simulator, VecSimulator
from .machine import (
    CommStats,
    Machine,
    Message,
    TraceEvent,
    VecCommStats,
    VecMachine,
)
from .network import Network, NetworkConfig

__all__ = [
    "CommStats",
    "Machine",
    "Message",
    "Network",
    "NetworkConfig",
    "Simulator",
    "TraceEvent",
    "VecCommStats",
    "VecMachine",
    "VecSimulator",
]
