"""Unit suite for the copy-on-write UDP registry and the socket transport
that resolves through it.

The registry is the shared state of one wall-clock 'LAN': node → sockaddr
mapping plus multicast membership, published as immutable snapshots that
send paths read without locks. These tests pin down the snapshot
semantics and that concurrent mutation/resolution never tears a view;
then, with :class:`AsyncUdpTransport` on a real event loop, the
deterministic base-port allocator, the unknown-sender path, multicast
fan-out and the MTU bound.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.transport.addressing import Address, GroupName
from repro.transport.udp import UDP_MTU, UdpNetwork
from repro.transport.udp_async import AsyncUdpTransport
from repro.util.errors import TransportError


def addr(node, port=1):
    return Address(node, port)


def resolve(net, node, port=1):
    return net.view.node_to_sockaddr.get((node, port))


def source_of(net, sockaddr):
    return net.view.sockaddr_to_node.get(sockaddr)


def members(net, group):
    return {(node, port) for node, port, _ in net.view.groups.get(group, ())}


class TestRegistry:
    def test_register_resolve_unregister(self):
        net = UdpNetwork()
        assert resolve(net, "a") is None
        net._register("a", 1, ("127.0.0.1", 40001))
        assert resolve(net, "a") == ("127.0.0.1", 40001)
        assert source_of(net, ("127.0.0.1", 40001)) == addr("a")
        net._unregister("a", 1)
        assert resolve(net, "a") is None
        assert source_of(net, ("127.0.0.1", 40001)) is None

    def test_unknown_sender_resolves_to_none(self):
        net = UdpNetwork()
        net._register("a", 1, ("127.0.0.1", 40001))
        assert source_of(net, ("127.0.0.1", 49999)) is None

    def test_snapshot_is_immutable_and_republished(self):
        net = UdpNetwork()
        before = net.view
        net._register("a", 1, ("127.0.0.1", 40001))
        after = net.view
        assert after is not before
        # The old snapshot still answers from its own frozen world.
        assert before.node_to_sockaddr.get(("a", 1)) is None
        assert after.node_to_sockaddr[("a", 1)] == ("127.0.0.1", 40001)

    def test_reads_take_no_lock(self):
        net = UdpNetwork()
        net._register("a", 1, ("127.0.0.1", 40001))
        # Hold the mutation lock: resolution must still answer (it reads
        # the published snapshot, never the locked mutable state).
        with net._lock:
            assert resolve(net, "a") == ("127.0.0.1", 40001)
            assert source_of(net, ("127.0.0.1", 40001)) == addr("a")

    def test_group_membership_sorted_and_resolved(self):
        net = UdpNetwork()
        group = GroupName("mcast.test")
        for node in ("c", "a", "b"):
            net._register(node, 1, ("127.0.0.1", 41000 + ord(node)))
            net._join(node, 1, group)
        members = net.view.groups[group]
        assert [m[0] for m in members] == ["a", "b", "c"]  # pre-sorted
        assert all(m[2] == ("127.0.0.1", 41000 + ord(m[0])) for m in members)
        net._leave("b", 1, group)
        assert [m[0] for m in net.view.groups[group]] == ["a", "c"]

    def test_unregistered_member_drops_from_resolved_group(self):
        net = UdpNetwork()
        group = GroupName("mcast.test")
        net._register("a", 1, ("127.0.0.1", 41001))
        net._register("b", 1, ("127.0.0.1", 41002))
        net._join("a", 1, group)
        net._join("b", 1, group)
        # 'b' closes without leaving: fan-out must skip it.
        net._unregister("b", 1)
        assert [m[0] for m in net.view.groups[group]] == ["a"]
        assert members(net, group) == {("a", 1)}

    def test_concurrent_mutation_and_resolution(self):
        """Register/unregister storms while readers resolve: no exception,
        no torn view, correct final state."""
        net = UdpNetwork()
        group = GroupName("mcast.race")
        stop = threading.Event()
        errors = []

        def churn(node, base):
            try:
                for i in range(300):
                    net._register(node, 1, ("127.0.0.1", base + (i % 7)))
                    net._join(node, 1, group)
                    if i % 3 == 0:
                        net._leave(node, 1, group)
                    net._unregister(node, 1)
                net._register(node, 1, ("127.0.0.1", base))
                net._join(node, 1, group)
            except Exception as exc:  # pragma: no cover — the assertion
                errors.append(exc)

        def read():
            try:
                while not stop.is_set():
                    view = net.view
                    # A snapshot must always be internally consistent:
                    # every resolved group member is in the node map.
                    for _, _, sockaddr in view.groups.get(group, ()):
                        assert sockaddr in view.sockaddr_to_node
                    resolve(net, "w0")
                    members(net, group)
            except Exception as exc:  # pragma: no cover — the assertion
                errors.append(exc)

        writers = [
            threading.Thread(target=churn, args=(f"w{i}", 42000 + 10 * i))
            for i in range(4)
        ]
        readers = [threading.Thread(target=read) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert errors == []
        assert members(net, group) == {(f"w{i}", 1) for i in range(4)}
        for i in range(4):
            assert resolve(net, f"w{i}") == ("127.0.0.1", 42000 + 10 * i)


def _free_port_block(span: int) -> int:
    """A base port with ``span`` free ports above it (best effort)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    base = probe.getsockname()[1]
    probe.close()
    return base


def _ignore(payload, source):
    pass


class _Lan:
    """A bare asyncio loop on its own thread plus the transports opened on
    it. ``AsyncUdpTransport`` must only be touched on its loop's thread, so
    every transport call in the tests below goes through :meth:`call`."""

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self._opened = []

    def call(self, fn, *args):
        async def run():
            return fn(*args)

        return asyncio.run_coroutine_threadsafe(run(), self._loop).result(5.0)

    def open(self, net, node, receiver=_ignore):
        transport = AsyncUdpTransport(net, node, self._loop)
        self._opened.append(transport)  # close() is a no-op if open() raises
        self.call(transport.open, 1, receiver)
        return transport

    def close(self):
        for transport in self._opened:
            self.call(transport.close)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5.0)
        self._loop.close()


@pytest.fixture
def lan():
    lan = _Lan()
    yield lan
    lan.close()


class TestDeterministicPorts:
    def test_ephemeral_by_default(self, lan):
        net = UdpNetwork()
        lan.open(net, "n1")
        sockaddr = resolve(net, "n1")
        assert sockaddr is not None and sockaddr[1] != 0

    def test_base_port_binds_deterministic_sequence(self, lan):
        base = _free_port_block(3)
        net = UdpNetwork(base_port=base)
        for i in range(3):
            lan.open(net, f"n{i}")
        got = [resolve(net, f"n{i}")[1] for i in range(3)]
        assert got == [base, base + 1, base + 2]

    def test_base_port_collision_raises(self, lan):
        base = _free_port_block(2)
        clash = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        clash.bind(("127.0.0.1", base))  # squat the base port
        net = UdpNetwork(base_port=base)
        try:
            with pytest.raises(TransportError):
                lan.open(net, "n1")
            # The node never entered the registry.
            assert resolve(net, "n1") is None
        finally:
            clash.close()

    def test_collision_consumes_offset(self, lan):
        """After a failed bind the allocator moves on: the next transport
        gets the next port, so one squatted port cannot wedge the LAN."""
        base = _free_port_block(3)
        clash = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        clash.bind(("127.0.0.1", base))
        net = UdpNetwork(base_port=base)
        try:
            with pytest.raises(TransportError):
                lan.open(net, "bad")
            lan.open(net, "good")
            assert resolve(net, "good")[1] == base + 1
        finally:
            clash.close()


class TestTransportDelivery:
    def test_unicast_and_unknown_sender(self, lan):
        net = UdpNetwork()
        received = []
        done = threading.Event()

        def on_rx(payload, source):
            received.append((bytes(payload), source))
            done.set()

        lan.open(net, "rx", on_rx)
        tx = lan.open(net, "tx")
        lan.call(tx.send_bytes, addr("rx"), b"hello")
        assert done.wait(2.0)
        assert received == [(b"hello", addr("tx"))]

        # A datagram from a socket outside the registry arrives with
        # the sentinel unknown source, not an exception.
        done.clear()
        received.clear()
        rogue = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rogue.bind(("127.0.0.1", 0))
        rogue.sendto(b"mystery", resolve(net, "rx"))
        assert done.wait(2.0)
        rogue.close()
        assert received == [(b"mystery", Address("unknown", 0))]

    def test_multicast_skips_self_and_unknown_destination_drops(self, lan):
        net = UdpNetwork()
        group = GroupName("mcast.room")
        hits = {"a": [], "b": []}
        events = {"a": threading.Event(), "b": threading.Event()}

        def make_rx(name):
            def on_rx(payload, source):
                hits[name].append(bytes(payload))
                events[name].set()
            return on_rx

        ta = lan.open(net, "a", make_rx("a"))
        tb = lan.open(net, "b", make_rx("b"))
        lan.call(ta.join, group)
        lan.call(tb.join, group)
        lan.call(ta.send_bytes, group, b"fanout")
        assert events["b"].wait(2.0)
        time.sleep(0.05)
        assert hits["b"] == [b"fanout"]
        assert hits["a"] == []  # sender excluded from its own fan-out
        # Unknown unicast destination: silently dropped, like a LAN.
        lan.call(ta.send_bytes, addr("ghost"), b"lost")
        lan.call(lambda: None)  # fence: any queued datagram has drained
        assert ta.sent_datagrams == 1

    def test_open_twice_and_use_before_open_rejected(self, lan):
        net = UdpNetwork()
        unopened = AsyncUdpTransport(net, "late", None)
        with pytest.raises(TransportError):
            unopened.send_bytes(addr("n"), b"x")
        with pytest.raises(TransportError):
            unopened.join(GroupName("mcast.room"))
        t = lan.open(net, "n")
        with pytest.raises(TransportError):
            lan.call(t.open, 2, _ignore)

    def test_oversized_payload_rejected(self, lan):
        net = UdpNetwork()
        t = lan.open(net, "n")
        assert t.mtu == UDP_MTU
        with pytest.raises(TransportError):
            lan.call(t.send_bytes, addr("n"), b"x" * (UDP_MTU + 1))
        # The bound is on the whole datagram, however it is split up.
        with pytest.raises(TransportError):
            lan.call(t.send_buffers, addr("n"), (b"x" * UDP_MTU, b"y"))


class TestFullSendBuffer:
    def test_blocked_send_waits_for_writability_then_drains_in_order(self, lan):
        """A full socket send buffer (``BlockingIOError``) parks the queue
        and arms one writer; once the socket is writable the queued
        datagrams leave in order and nothing stays armed."""
        net = UdpNetwork()
        received = []
        done = threading.Event()
        payloads = [b"d%d" % i for i in range(8)]

        def on_rx(payload, source):
            received.append(bytes(payload))
            if len(received) == len(payloads):
                done.set()

        lan.open(net, "rx", on_rx)
        tx = lan.open(net, "tx")
        real_sendmsg = tx._sendmsg
        calls = []

        def sendmsg(sock, views, sockaddr):
            calls.append(len(calls))
            if len(calls) == 1:
                raise BlockingIOError
            real_sendmsg(sock, views, sockaddr)

        drain = tx._drain_egress
        after_drain = []  # (send_blocked, writer armed, queued) per drain

        def observed_drain():
            drain()
            after_drain.append((tx.send_blocked, tx._writer_armed, len(tx._egress)))

        def blast():
            tx._sendmsg = sendmsg
            tx._drain_egress = observed_drain
            for payload in payloads:
                tx.send_bytes(addr("rx"), payload)

        lan.call(blast)
        assert done.wait(2.0)
        assert after_drain[0] == (1, True, len(payloads))
        assert after_drain[-1] == (1, False, 0)
        assert received == payloads
        assert lan.call(lambda: (tx._drain_armed, tx._writer_armed)) == (False, False)
        assert tx.sent_datagrams == len(payloads)
        assert len(calls) == len(payloads) + 1
