"""The raw (bytes-level) transport interface."""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.transport.addressing import Address, Destination, GroupName

#: Callback invoked with (payload, source_address) for every datagram.
RawReceiver = Callable[[bytes, Address], None]


@runtime_checkable
class RawTransport(Protocol):
    """Moves opaque datagrams between nodes.

    Implementations must support unicast to an :class:`Address`, multicast
    to a :class:`GroupName`, and group membership management. They never
    interpret payloads.
    """

    @property
    def node(self) -> str:
        """The local node identifier."""
        ...

    @property
    def mtu(self) -> int:
        """Largest payload (bytes) accepted by :meth:`send_bytes`."""
        ...

    def open(self, port: int, receiver: RawReceiver) -> Address:
        """Bind the local endpoint and start delivering datagrams to
        ``receiver``. Returns the bound address."""
        ...

    def send_bytes(self, destination: Destination, payload: bytes) -> None:
        """Emit one datagram."""
        ...

    def join(self, group: GroupName) -> None:
        ...

    def leave(self, group: GroupName) -> None:
        ...

    def close(self) -> None:
        ...


__all__ = ["RawTransport", "RawReceiver"]
