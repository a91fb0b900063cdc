"""Tests for the Transport subsystem: sim binding, frame adapter."""

import pytest

from repro.protocol.frames import Frame, MessageKind
from repro.sim import Simulator
from repro.simnet import LinkModel, SimNetwork
from repro.transport import FrameTransport
from repro.transport.addressing import Address, GroupName
from repro.transport.sim import SimTransport
from repro.util import SeededRng
from repro.util.errors import TransportError


def make_sim_pair(loss=0.0, mtu=1472):
    sim = Simulator()
    net = SimNetwork(
        sim,
        SeededRng(1),
        default_link=LinkModel(latency=0.001, jitter=0.0, loss=loss, bandwidth_bps=0.0, mtu=mtu),
    )
    ta = SimTransport(net, "a")
    tb = SimTransport(net, "b")
    return sim, net, ta, tb


class TestSimTransport:
    def test_unicast_bytes(self):
        sim, _, ta, tb = make_sim_pair()
        got = []
        ta.open(5000, lambda data, src: None)
        tb.open(5000, lambda data, src: got.append((data, src)))
        ta.send_bytes(Address("b", 5000), b"ping")
        sim.run()
        assert got == [(b"ping", Address("a", 5000))]

    def test_port_filtering(self):
        sim, _, ta, tb = make_sim_pair()
        got = []
        ta.open(5000, lambda d, s: None)
        tb.open(5000, lambda d, s: got.append(d))
        ta.send_bytes(Address("b", 9999), b"wrong port")
        sim.run()
        assert got == []

    def test_multicast(self):
        sim, net, ta, tb = make_sim_pair()
        tc = SimTransport(net, "c")
        got = []
        ta.open(5000, lambda d, s: None)
        tb.open(5000, lambda d, s: got.append(("b", d)))
        tc.open(5000, lambda d, s: got.append(("c", d)))
        group = GroupName("mcast.test")
        tb.join(group)
        tc.join(group)
        ta.send_bytes(group, b"fan")
        sim.run()
        assert sorted(got) == [("b", b"fan"), ("c", b"fan")]

    def test_send_before_open_rejected(self):
        _, _, ta, _ = make_sim_pair()
        with pytest.raises(TransportError):
            ta.send_bytes(Address("b", 5000), b"x")

    def test_double_open_rejected(self):
        _, _, ta, _ = make_sim_pair()
        ta.open(5000, lambda d, s: None)
        with pytest.raises(TransportError):
            ta.open(5001, lambda d, s: None)

    def test_close_stops_delivery(self):
        sim, _, ta, tb = make_sim_pair()
        got = []
        ta.open(5000, lambda d, s: None)
        tb.open(5000, lambda d, s: got.append(d))
        tb.close()
        ta.send_bytes(Address("b", 5000), b"x")
        sim.run()
        assert got == []


class TestFrameTransport:
    def make_frame_pair(self, mtu=1472, loss=0.0):
        sim, net, ra, rb = make_sim_pair(mtu=mtu, loss=loss)
        fa = FrameTransport(ra, clock=sim, source="ca")
        fb = FrameTransport(rb, clock=sim, source="cb")
        return sim, fa, fb

    def test_small_frame_round_trip(self):
        sim, fa, fb = self.make_frame_pair()
        got = []
        fa.open(5000, lambda f, s: None)
        fb.open(5000, lambda frames, s: got.extend((f, s) for f in frames))
        frame = Frame(kind=MessageKind.EVENT, source="ca", payload=b"evt", seq=3)
        fa.send(Address("b", 5000), frame)
        sim.run()
        assert len(got) == 1
        assert got[0][0].payload == b"evt"
        assert got[0][0].seq == 3
        assert fa.fragmented_messages == 0

    def test_large_frame_is_fragmented_and_reassembled(self):
        sim, fa, fb = self.make_frame_pair(mtu=300)
        got = []
        fa.open(5000, lambda f, s: None)
        fb.open(5000, lambda frames, s: got.extend(frames))
        payload = bytes(range(256)) * 8  # 2048 B > 300 B MTU
        fa.send(Address("b", 5000), Frame(kind=MessageKind.RPC_REQUEST, source="ca", payload=payload))
        sim.run()
        assert fa.fragmented_messages == 1
        assert len(got) == 1
        assert got[0].payload == payload
        assert got[0].kind == MessageKind.RPC_REQUEST

    def test_malformed_datagram_counted_not_raised(self):
        sim, fa, fb = self.make_frame_pair()
        errors = []
        fb._on_protocol_error = lambda exc, src: errors.append(exc)
        fb.open(5000, lambda f, s: None)
        fa._raw.open(5000, lambda d, s: None)
        # Valid in every field but the source id, which is not UTF-8.
        bad_source = (
            Frame(kind=MessageKind.EVENT, source="zz", payload=b"p")
            .encode()
            .replace(b"zz", b"\xff\xfe")
        )
        for datagram in (b"garbage!", bad_source):
            fa._raw.send_bytes(Address("b", 5000), datagram)
        sim.run()
        assert fb.malformed_datagrams == 2
        assert len(errors) == 2

    def test_lost_fragment_never_delivers_then_expires(self):
        sim, fa, fb = self.make_frame_pair(mtu=300)
        got = []
        fa.open(5000, lambda f, s: None)
        fb.open(5000, lambda frames, s: got.extend(frames))
        # Monkeypatch raw send to drop the second fragment.
        sent = {"count": 0}
        original = fa._raw.send_bytes

        def lossy(dest, payload):
            sent["count"] += 1
            if sent["count"] == 2:
                return
            original(dest, payload)

        fa._raw.send_bytes = lossy
        fa.send(Address("b", 5000), Frame(kind=MessageKind.RPC_REQUEST, source="ca", payload=b"z" * 2000))
        sim.run()
        assert got == []
        assert fb._reassembler.pending == 1
        fb.on_tick(now=100.0)
        assert fb._reassembler.pending == 0
