"""Network addressing.

A unicast :class:`Address` is ``(node, port)``; multicast destinations are
:class:`GroupName` strings (e.g. ``"mcast.var.gps.position"``). The service
container owns all port and group assignment — services never see these
types (§3, "Network management and abstraction").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Address:
    """Unicast endpoint: a node identifier plus a port number."""

    node: str
    port: int

    def __post_init__(self) -> None:
        if not self.node:
            raise ValueError("node id must be non-empty")
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


class GroupName(str):
    """A multicast group identifier.

    Conventional prefixes used by the middleware:

    - ``mcast.control`` — container announce/heartbeat traffic
    - ``mcast.var.<variable>`` — one group per published variable
    - ``mcast.file.<resource>`` — one group per file-transfer session
    """

    def __new__(cls, value: str) -> "GroupName":
        if not value.startswith("mcast."):
            raise ValueError(f"multicast group names must start with 'mcast.': {value!r}")
        return super().__new__(cls, value)


Destination = Union[Address, GroupName]

# Fixed per-datagram overhead charged on the wire, standing in for
# Ethernet + IP + UDP headers (14 + 20 + 8 bytes, rounded).
WIRE_OVERHEAD_BYTES = 42

CONTROL_GROUP = GroupName("mcast.control")

#: Backbone group joined by relay and ground-station containers in a
#: federated fleet; zone summaries travel here (never raw zone traffic).
BACKBONE_GROUP = GroupName("mcast.control.backbone")


def zone_control_group(zone: str) -> GroupName:
    """The control group of one fleet zone — announce/heartbeat traffic of
    a federated fleet stays inside the zone instead of flooding the domain."""
    return GroupName(f"mcast.control.zone.{zone}")


def variable_group(variable_name: str) -> GroupName:
    """The multicast group a published variable's samples travel on."""
    return GroupName(f"mcast.var.{variable_name}")


def file_group(resource_name: str) -> GroupName:
    """The multicast group a file-transfer session's chunks travel on."""
    return GroupName(f"mcast.file.{resource_name}")


__all__ = [
    "Address",
    "GroupName",
    "Destination",
    "WIRE_OVERHEAD_BYTES",
    "CONTROL_GROUP",
    "BACKBONE_GROUP",
    "variable_group",
    "file_group",
    "zone_control_group",
]
