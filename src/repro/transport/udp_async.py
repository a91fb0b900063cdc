"""Batch-I/O UDP transport for the asyncio runtime.

The :class:`~repro.transport.base.RawTransport` contract over one real
UDP socket per node, built for throughput on an asyncio event loop:

- **Burst ingress.** The socket is non-blocking and registered with the
  loop's selector. One readable callback drains the socket in a tight
  ``recvmsg_into`` loop over a preallocated buffer ring — up to
  :data:`RECV_BURST` datagrams per wakeup — and delivers the whole burst to
  the receiver inline. There is no cross-thread post at all: the loop
  thread *is* the serialization domain.
- **Scatter/gather egress.** :meth:`send_buffers` accepts the unjoined
  buffer list produced by ``Frame.encode_views`` / the zero-copy batcher
  and hands it to ``socket.sendmsg`` as-is, so a datagram is never
  materialized contiguously in userspace. Sends queue on a deque drained
  by one ``call_soon`` callback per burst; when the socket buffer fills,
  the drain re-arms on writability instead of dropping or spinning.
- **Lock-free resolution.** Destination and multicast-member lookups read
  the shared :class:`~repro.transport.udp.UdpNetwork` copy-on-write
  snapshot — no lock, no per-send sort; fan-out walks a pre-sorted,
  pre-resolved member tuple.

Where ``recvmsg_into``/``sendmsg`` are missing (non-POSIX stacks), the
transport degrades to ``recvfrom``/``sendto`` loops with identical
semantics.
"""

from __future__ import annotations

import socket
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.simnet.addressing import Address, GroupName
from repro.simnet.packet import Destination
from repro.transport.base import RawReceiver
from repro.transport.udp import UDP_MTU, UdpNetwork
from repro.util.errors import TransportError

_HAS_RECVMSG_INTO = hasattr(socket.socket, "recvmsg_into")
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")

#: Cap on datagrams drained per readable wakeup — bounds how long one
#: burst can monopolize the loop before timers get a turn.
RECV_BURST = 64

#: Receive buffer requested for every socket. All containers of a runtime
#: share one loop thread, so whatever a publisher sends in one turn must fit
#: its subscribers' socket buffers whole; the kernel default (~208 KiB) holds
#: about a hundred MTU-sized batches (1,100 telemetry samples) and silently
#: drops the rest of a catch-up burst. The kernel clamps the request to
#: ``rmem_max`` without error.
RECV_BUFFER_BYTES = 4 * 1024 * 1024


class AsyncUdpTransport:
    """A :class:`RawTransport` over one non-blocking UDP socket on an
    asyncio event loop.

    All methods must be called on the loop thread (the runtime's
    serialization domain) — which is where container code runs anyway.
    """

    def __init__(self, network: UdpNetwork, node: str, loop):
        self._network = network
        self._node = node
        self._loop = loop
        self._port: Optional[int] = None
        self._socket: Optional[socket.socket] = None
        self._receiver: Optional[RawReceiver] = None
        # Preallocated ingress ring: recvmsg_into fills these in place, so
        # steady-state receive allocates only the right-sized copy-out, not
        # a fresh MTU-sized buffer per datagram. Slots are reused round-
        # robin within a burst; payloads are copied out before reuse.
        self._ring = [bytearray(UDP_MTU + 1) for _ in range(min(RECV_BURST, 16))]
        self._ring_views = [memoryview(buf) for buf in self._ring]
        # Egress queue of (sockaddr, buffer-list) pairs; armed at most one
        # drain callback at a time.
        self._egress: Deque[Tuple[Tuple[str, int], Sequence[bytes]]] = deque()
        self._drain_armed = False
        self._writer_armed = False
        self._closing = False
        # Telemetry for the benchmark/tests.
        self.recv_wakeups = 0
        self.recv_datagrams = 0
        self.sent_datagrams = 0
        self.send_drains = 0
        self.send_blocked = 0

    @property
    def node(self) -> str:
        return self._node

    @property
    def mtu(self) -> int:
        return UDP_MTU

    # -- lifecycle -----------------------------------------------------------
    def open(self, port: int, receiver: RawReceiver) -> Address:
        if self._socket is not None:
            raise TransportError("transport already open")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        bind_port = self._network._allot_bind_port()
        try:
            sock.bind((self._network.host, bind_port))
        except OSError as exc:
            sock.close()
            raise TransportError(
                f"cannot bind UDP port {bind_port} for node {self._node!r}: {exc}"
            ) from exc
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES)
        self._socket = sock
        self._port = port
        self._receiver = receiver
        self._closing = False
        self._network._register(self._node, port, sock.getsockname())
        self._loop.add_reader(sock.fileno(), self._on_readable)
        return Address(self._node, port)

    def close(self) -> None:
        self._closing = True
        sock = self._socket
        if sock is None:
            return
        self._network._unregister(self._node, self._port)
        self._loop.remove_reader(sock.fileno())
        if self._writer_armed:
            self._loop.remove_writer(sock.fileno())
            self._writer_armed = False
        # Best-effort flush of anything still queued (BYE frames, final
        # ACKs); a full socket buffer at close time drops the tail, which
        # is what a real NIC would do too.
        while self._egress:
            sockaddr, views = self._egress.popleft()
            try:
                self._sendmsg(sock, views, sockaddr)
            except OSError:
                break
        self._egress.clear()
        sock.close()
        self._socket = None

    # -- egress ----------------------------------------------------------------
    def send_bytes(self, destination: Destination, payload: bytes) -> None:
        self.send_buffers(destination, (payload,))

    def send_buffers(
        self, destination: Destination, views: Sequence[bytes]
    ) -> None:
        """Queue one datagram given as an unjoined buffer list."""
        if self._socket is None:
            raise TransportError("transport not open")
        total = sum(map(len, views))
        if total > UDP_MTU:
            raise TransportError(f"payload exceeds UDP MTU {UDP_MTU}")
        view = self._network.view  # one atomic read; no lock on the send path
        egress = self._egress
        if isinstance(destination, GroupName):
            for node, port, sockaddr in view.groups.get(destination, ()):
                if node == self._node and port == self._port:
                    continue
                egress.append((sockaddr, views))
        else:
            sockaddr = view.node_to_sockaddr.get(
                (destination.node, destination.port)
            )
            if sockaddr is None:
                return  # unknown destination: dropped, like a LAN
            egress.append((sockaddr, views))
        if egress and not self._drain_armed and not self._writer_armed:
            self._drain_armed = True
            self._loop.call_soon(self._drain_egress)

    def _drain_egress(self) -> None:
        """Send every queued datagram in one callback; on a full socket
        buffer, re-arm on writability instead of busy-retrying."""
        self._drain_armed = False
        sock = self._socket
        if sock is None:
            return
        egress = self._egress
        self.send_drains += 1
        while egress:
            sockaddr, views = egress[0]
            try:
                self._sendmsg(sock, views, sockaddr)
            except (BlockingIOError, InterruptedError):
                self.send_blocked += 1
                if not self._writer_armed:
                    self._writer_armed = True
                    self._loop.add_writer(sock.fileno(), self._on_writable)
                return
            except OSError:
                egress.clear()  # socket torn down underneath us
                return
            egress.popleft()
            self.sent_datagrams += 1

    def _on_writable(self) -> None:
        sock = self._socket
        if sock is not None:
            self._loop.remove_writer(sock.fileno())
        self._writer_armed = False
        self._drain_egress()

    if _HAS_SENDMSG:

        @staticmethod
        def _sendmsg(sock, views: Sequence[bytes], sockaddr) -> None:
            sock.sendmsg(views, (), 0, sockaddr)

    else:  # pragma: no cover — non-POSIX fallback

        @staticmethod
        def _sendmsg(sock, views: Sequence[bytes], sockaddr) -> None:
            sock.sendto(b"".join(views), sockaddr)

    # -- ingress ---------------------------------------------------------------
    def _on_readable(self) -> None:
        """Drain the socket in one wakeup and deliver the burst inline."""
        sock = self._socket
        if sock is None or self._closing:
            return
        receiver = self._receiver
        network_view = self._network.view
        ring = self._ring_views
        slots = len(ring)
        self.recv_wakeups += 1
        for i in range(RECV_BURST):
            try:
                if _HAS_RECVMSG_INTO:
                    slot = ring[i % slots]
                    nbytes, _anc, _flags, sockaddr = sock.recvmsg_into(
                        (slot,), 0
                    )
                    payload = bytes(slot[:nbytes])
                else:  # pragma: no cover — non-POSIX fallback
                    payload, sockaddr = sock.recvfrom(UDP_MTU + 1)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                return  # socket closed underneath us
            self.recv_datagrams += 1
            entry = network_view.sockaddr_to_node.get(sockaddr)
            source = (
                Address(entry[0], entry[1])
                if entry is not None
                else _UNKNOWN_SOURCE
            )
            if receiver is not None:
                receiver(payload, source)
        # Anything still queued re-triggers the (level-triggered) selector
        # on the next loop pass, so timers never starve behind a flood.

    # -- groups ----------------------------------------------------------------
    def join(self, group: GroupName) -> None:
        if self._port is None:
            raise TransportError("transport not open")
        self._network._join(self._node, self._port, group)

    def leave(self, group: GroupName) -> None:
        if self._port is not None:
            self._network._leave(self._node, self._port, group)


_UNKNOWN_SOURCE = Address("unknown", 0)


__all__ = ["AsyncUdpTransport", "RECV_BURST"]
