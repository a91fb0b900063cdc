"""Simulated network substrate.

Replaces the paper's testbed LAN (embedded boards on Ethernet) with a
deterministic model: per-link latency/jitter/loss/bandwidth, true multicast
semantics (one emission reaches every group member), node up/down state for
fault injection, and wire-level statistics used by the bandwidth experiments
(E3, E4 in DESIGN.md).
"""

from repro.simnet.models import LinkModel
from repro.simnet.network import SimNetwork, SimNic
from repro.simnet.packet import Packet
from repro.simnet.stats import NetworkStats

__all__ = [
    "LinkModel",
    "SimNetwork",
    "SimNic",
    "Packet",
    "NetworkStats",
]
