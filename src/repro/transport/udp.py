"""The shared registry of one wall-clock UDP 'LAN'.

Each node maps to a UDP socket on 127.0.0.1, opened by
:class:`~repro.transport.udp_async.AsyncUdpTransport`. Unicast is a plain
datagram to the registered socket address; multicast groups are emulated
with a shared in-process membership registry and sender-side fan-out
(loopback interfaces rarely support true IGMP, and the runtime is
single-process anyway). The PEPt layering means nothing above the
transport can tell the difference.

The registry is copy-on-write: every mutation (register/unregister/join/
leave — rare, topology-time events) rebuilds an immutable
:class:`RegistryView` under the mutation lock and publishes it with one
attribute store. The send path — called for every datagram — reads the
current view without taking any lock (an attribute load is atomic under
the GIL), and multicast fan-out walks a pre-sorted, pre-resolved member
tuple instead of re-sorting and re-resolving per send.
"""

from __future__ import annotations

import threading
from typing import Dict, Set, Tuple

from repro.transport.addressing import Address, GroupName

#: Loopback-safe datagram size.
UDP_MTU = 8192

#: A resolved multicast member: (node, port, sockaddr).
_Member = Tuple[str, int, Tuple[str, int]]


class RegistryView:
    """An immutable snapshot of the network registry.

    Send paths hold a reference to one view for the duration of a send;
    concurrent mutations publish a *new* view and never touch this one, so
    no lock is needed on the read side.
    """

    __slots__ = ("node_to_sockaddr", "sockaddr_to_node", "groups")

    def __init__(
        self,
        node_to_sockaddr: Dict[Tuple[str, int], Tuple[str, int]],
        sockaddr_to_node: Dict[Tuple[str, int], Address],
        groups: Dict[GroupName, Tuple[_Member, ...]],
    ):
        self.node_to_sockaddr = node_to_sockaddr
        self.sockaddr_to_node = sockaddr_to_node
        self.groups = groups


_EMPTY_VIEW = RegistryView({}, {}, {})


class UdpNetwork:
    """Shared state of one wall-clock-runtime 'LAN': node → socket address
    mapping plus multicast membership, published as copy-on-write views."""

    def __init__(self, host: str = "127.0.0.1", base_port: int = 0):
        self.host = host
        self.base_port = base_port  # 0 = ephemeral ports chosen by the OS
        self._lock = threading.Lock()
        self._node_to_sockaddr: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: Built once per registration, so the receive path reads a ready
        #: source :class:`Address` per datagram instead of constructing one.
        self._sockaddr_to_node: Dict[Tuple[str, int], Address] = {}
        self._group_members: Dict[GroupName, Set[Tuple[str, int]]] = {}
        self._next_port_offset = 0
        #: The current immutable snapshot; republished on every mutation.
        self.view: RegistryView = _EMPTY_VIEW

    # -- port allotment ------------------------------------------------------
    def _allot_bind_port(self) -> int:
        """The OS port the next transport should bind.

        With ``base_port == 0`` every socket gets an ephemeral port. With a
        non-zero base, ports are deterministic: ``base_port``, ``base_port+1``,
        … in open order, so a test harness can predict (and pre-clash) them.
        """
        if self.base_port == 0:
            return 0
        with self._lock:
            port = self.base_port + self._next_port_offset
            self._next_port_offset += 1
        return port

    # -- registry used by transports ----------------------------------------
    def _rebuild_view(self) -> None:
        """Rebuild and publish the snapshot. Caller holds ``self._lock``."""
        node_to_sockaddr = dict(self._node_to_sockaddr)
        groups: Dict[GroupName, Tuple[_Member, ...]] = {}
        for group, members in self._group_members.items():
            resolved = []
            for node, port in sorted(members):
                sockaddr = node_to_sockaddr.get((node, port))
                if sockaddr is not None:  # closed-but-never-left members drop out
                    resolved.append((node, port, sockaddr))
            groups[group] = tuple(resolved)
        self.view = RegistryView(
            node_to_sockaddr, dict(self._sockaddr_to_node), groups
        )

    def _register(self, node: str, port: int, sockaddr: Tuple[str, int]) -> None:
        with self._lock:
            self._node_to_sockaddr[(node, port)] = sockaddr
            self._sockaddr_to_node[sockaddr] = Address(node, port)
            self._rebuild_view()

    def _unregister(self, node: str, port: int) -> None:
        with self._lock:
            sockaddr = self._node_to_sockaddr.pop((node, port), None)
            if sockaddr is not None:
                self._sockaddr_to_node.pop(sockaddr, None)
            self._rebuild_view()

    def _join(self, node: str, port: int, group: GroupName) -> None:
        with self._lock:
            self._group_members.setdefault(group, set()).add((node, port))
            self._rebuild_view()

    def _leave(self, node: str, port: int, group: GroupName) -> None:
        with self._lock:
            members = self._group_members.get(group)
            if members:
                members.discard((node, port))
                self._rebuild_view()


__all__ = ["UdpNetwork", "RegistryView", "UDP_MTU"]
