"""Wire-level statistics.

The bandwidth claims in the paper (§4.1: "one packet sent can arrive to
multiple nodes"; §4.4: "huge performance benefits") are about *emissions* —
how many times a sender serializes a datagram — versus *deliveries*. The
network counts both, globally and per node.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.transport.addressing import WIRE_OVERHEAD_BYTES


@dataclass
class Counter:
    """One direction's packet/byte tally."""

    packets: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.packets += 1
        self.bytes += size

    @property
    def overhead_bytes(self) -> int:
        """Bytes spent on fixed per-datagram headers — the cost batching
        amortizes (each packet pays :data:`WIRE_OVERHEAD_BYTES` once)."""
        return self.packets * WIRE_OVERHEAD_BYTES

    @property
    def payload_bytes(self) -> int:
        return self.bytes - self.overhead_bytes


@dataclass
class NetworkStats:
    """Aggregate and per-node counters maintained by :class:`SimNetwork`.

    - ``emissions``: datagrams handed to the medium (a multicast send counts
      once, no matter how many members the group has).
    - ``deliveries``: datagrams arriving at a NIC receiver.
    - ``drops_loss``: deliveries suppressed by the link loss model.
    - ``drops_down``: deliveries suppressed because a node was down.
    - ``drops_nomember``: multicast emissions that found no group member.
    """

    emissions: Counter = field(default_factory=Counter)
    deliveries: Counter = field(default_factory=Counter)
    drops_loss: Counter = field(default_factory=Counter)
    drops_down: Counter = field(default_factory=Counter)
    drops_nomember: Counter = field(default_factory=Counter)
    emissions_by_node: Dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )
    deliveries_by_node: Dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )

    def record_emission(self, node: str, size: int) -> None:
        self.emissions.add(size)
        self.emissions_by_node[node].add(size)

    def record_delivery(self, node: str, size: int) -> None:
        self.deliveries.add(size)
        self.deliveries_by_node[node].add(size)

    def snapshot(self) -> Dict[str, int]:
        """A flat dict convenient for printing benchmark rows."""
        return {
            "emissions": self.emissions.packets,
            "emitted_bytes": self.emissions.bytes,
            "emitted_overhead_bytes": self.emissions.overhead_bytes,
            "deliveries": self.deliveries.packets,
            "delivered_bytes": self.deliveries.bytes,
            "delivered_overhead_bytes": self.deliveries.overhead_bytes,
            "drops_loss": self.drops_loss.packets,
            "drops_down": self.drops_down.packets,
        }

    def export(self, registry, prefix: str = "net.", **labels: str) -> None:
        """Sync these counters into a unified
        :class:`~repro.observability.metrics.MetricsRegistry` as gauges
        (set, not incremented, so repeated exports stay idempotent). Called
        lazily at snapshot time — the packet hot path never pays for it."""
        pairs = [
            ("emissions", self.emissions),
            ("deliveries", self.deliveries),
            ("drops_loss", self.drops_loss),
            ("drops_down", self.drops_down),
            ("drops_nomember", self.drops_nomember),
        ]
        for name, counter in pairs:
            registry.gauge(f"{prefix}{name}_packets", **labels).set(counter.packets)
            registry.gauge(f"{prefix}{name}_bytes", **labels).set(counter.bytes)
            registry.gauge(f"{prefix}{name}_overhead_bytes", **labels).set(
                counter.overhead_bytes
            )
        for node, counter in self.emissions_by_node.items():
            registry.gauge(
                f"{prefix}emissions_packets", node=node, **labels
            ).set(counter.packets)
        for node, counter in self.deliveries_by_node.items():
            registry.gauge(
                f"{prefix}deliveries_packets", node=node, **labels
            ).set(counter.packets)


__all__ = ["NetworkStats", "Counter"]
