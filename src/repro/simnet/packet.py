"""The unit of transmission on the simulated network."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.addressing import WIRE_OVERHEAD_BYTES, Address, Destination, GroupName


@dataclass
class Packet:
    """A datagram in flight.

    ``payload`` is opaque to the network; framing and demultiplexing happen
    in the PEPt Protocol layer above.
    """

    source: Address
    destination: Destination
    payload: bytes
    # Filled in by the network on delivery; useful for traces.
    sent_at: float = field(default=0.0)
    delivered_at: float = field(default=0.0)

    @property
    def size(self) -> int:
        """Bytes this packet occupies on the wire, headers included."""
        return len(self.payload) + WIRE_OVERHEAD_BYTES

    @property
    def is_multicast(self) -> bool:
        return isinstance(self.destination, GroupName)


__all__ = ["Packet"]
