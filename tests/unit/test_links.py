"""Unit tests for the per-peer reliable-links managers."""


from repro.container.links import RELIABLE_CHANNEL, ReliableLinks, TcpLinks
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.peers import Peer
from repro.protocol.reliability import RetransmitPolicy
from repro.sim import Simulator


class CountingTimers:
    """The simulator as a timer service that counts what is asked of it."""

    def __init__(self, sim):
        self.sim = sim
        self.scheduled = 0

    def schedule(self, delay, fn):
        self.scheduled += 1
        return self.sim.schedule(delay, fn)


class LinkPair:
    """Two ReliableLinks instances wired back to back through the sim; each
    side holds its own :class:`Peer` for the other (``b`` at a, ``a`` at b)."""

    def __init__(self, drop_next=0):
        self.sim = Simulator()
        self.peer_b, self.peer_a = Peer("b"), Peer("a")
        self.timers_a = CountingTimers(self.sim)
        self.wire_a = []  # (instant, seq, payload) of every frame a emits
        self.delivered_a = []
        self.delivered_b = []
        self.failures = []
        self.drop_next = drop_next
        self.a = ReliableLinks(
            clock=self.sim, timers=self.timers_a, local="a",
            send_to_peer=self._a_to_peer,
            deliver=lambda f: self.delivered_a.append(f),
            on_peer_failure=lambda peer, f: self.failures.append((peer, f)),
            policy=RetransmitPolicy(initial_rto=0.05, max_retries=3),
        )
        self.b = ReliableLinks(
            clock=self.sim, timers=self.sim, local="b",
            send_to_peer=self._b_to_peer,
            deliver=lambda f: self.delivered_b.append(f),
            policy=RetransmitPolicy(initial_rto=0.05, max_retries=3),
        )

    def _a_to_peer(self, peer, frames):
        assert peer is self.peer_b
        for frame in frames:
            self.wire_a.append((self.sim.now(), frame.seq, frame.payload))
            if self.drop_next > 0:
                self.drop_next -= 1
                continue
            self.sim.call_soon(lambda frame=frame: self.b.on_frame(frame, self.peer_a))

    def _b_to_peer(self, peer, frames):
        assert peer is self.peer_a
        for frame in frames:
            self.sim.call_soon(lambda frame=frame: self.a.on_frame(frame, self.peer_b))

    def send(self, payload, kind=MessageKind.EVENT):
        return self.a.send(self.peer_b, kind, payload)

    @property
    def pending(self):
        sender = self.peer_b.sender
        return sender.unacked if sender else 0


class TestReliableLinks:
    def test_round_trip_delivery(self):
        pair = LinkPair()
        pair.send(b"hi")
        pair.sim.run()
        assert [f.payload for f in pair.delivered_b] == [b"hi"]
        assert pair.pending == 0

    def test_loss_recovered_by_retransmission(self):
        pair = LinkPair(drop_next=1)
        pair.send(b"lost then found")
        pair.sim.run(until=1.0)
        assert [f.payload for f in pair.delivered_b] == [b"lost then found"]

    def test_persistent_loss_reports_failure(self):
        pair = LinkPair(drop_next=100)
        pair.send(b"doomed")
        pair.sim.run(until=10.0)
        assert pair.delivered_b == []
        assert len(pair.failures) == 1
        assert pair.failures[0][0] is pair.peer_b

    def test_bidirectional_streams_independent(self):
        pair = LinkPair()
        pair.send(b"a->b")
        pair.b.send(pair.peer_a, MessageKind.EVENT, b"b->a")
        pair.sim.run()
        assert [f.payload for f in pair.delivered_b] == [b"a->b"]
        assert [f.payload for f in pair.delivered_a] == [b"b->a"]

    def test_non_reliable_channel_ignored(self):
        pair = LinkPair()
        frame = Frame(kind=MessageKind.VAR_SAMPLE, source="x", channel=0)
        assert pair.a.on_frame(frame, Peer("x")) is False

    def test_reset_peer_fails_pending(self):
        pair = LinkPair(drop_next=100)
        pair.send(b"in flight")
        pair.peer_b.close()
        assert len(pair.failures) == 1
        assert pair.peer_b.sender is None and pair.peer_b.receiver is None

    def test_ordered_delivery_across_kinds(self):
        pair = LinkPair()
        pair.send(b"1")
        pair.send(b"2", MessageKind.RPC_REQUEST)
        pair.send(b"3", MessageKind.FILE_SUBSCRIBE)
        pair.sim.run()
        assert [f.payload for f in pair.delivered_b] == [b"1", b"2", b"3"]
        kinds = [f.kind for f in pair.delivered_b]
        assert kinds == [
            MessageKind.EVENT,
            MessageKind.RPC_REQUEST,
            MessageKind.FILE_SUBSCRIBE,
        ]


class TestOneWakeupPerStream:
    def test_acked_sends_cost_one_timer_per_rto_not_one_per_frame(self):
        """Fails at the parent: every send and every ACK cancelled the
        stream's timer and every send scheduled another (1,000 here)."""
        pair = LinkPair()
        for i in range(1000):  # one a millisecond, each ACKed well inside the 50 ms RTO
            pair.sim.schedule(
                i * 0.001, lambda i=i: pair.send(bytes([i % 256]))
            )
        pair.sim.run(until=1.0)
        assert len(pair.delivered_b) == 1000 and pair.pending == 0
        assert len(pair.wire_a) == 1000  # nothing was retransmitted
        assert pair.timers_a.scheduled <= 1.0 / 0.05 + 1

    def test_first_transmission_behind_backed_off_frames_rearms_earlier(self):
        """The one event that moves a stream's earliest deadline earlier.
        Passes at the parent, which re-read every deadline on every send."""
        pair = LinkPair(drop_next=3)
        pair.send(b"backs off")  # due 0.05, then 0.15
        pair.sim.run(until=0.06)
        pair.send(b"fresh")  # lost too; due 0.11 < 0.15
        pair.sim.run(until=1.0)
        assert [(round(t, 9), seq) for t, seq, _ in pair.wire_a] == [
            (0.0, 1), (0.05, 1), (0.06, 2), (0.11, 2), (0.15, 1),
        ]
        assert [f.payload for f in pair.delivered_b] == [b"backs off", b"fresh"]

    def test_reset_peer_from_the_failure_callback_leaves_no_ghost(self):
        """``on_peer_failure`` resets the peer and sends again, from inside
        the wake-up that found the retries exhausted. Fails at the parent:
        back in its timer callback it cancelled the *new* sender's timer and
        armed one for the discarded sender, which went on retransmitting."""
        pair = LinkPair(drop_next=100)
        report, pair.failures = pair.failures, []

        def on_failure(peer, frame):
            report.append(frame.payload)
            if frame.payload == b"doomed":
                peer.close()
                pair.a.send(peer, MessageKind.EVENT, b"after reset")

        pair.a._on_peer_failure = on_failure
        pair.send(b"doomed")  # gives up at 0.05+0.1+0.2+0.4
        pair.sim.schedule(0.72, lambda: pair.send(b"bystander"))
        pair.sim.run(until=0.76)
        assert report == [b"doomed", b"bystander"]
        del pair.wire_a[:]
        pair.sim.run(until=0.89)
        # Only the new stream speaks: seq 1 again, at its own RTO.
        assert [(round(t, 9), seq, p) for t, seq, p in pair.wire_a] == [
            (0.8, 1, b"after reset")
        ]

    def test_reset_peer_disarms_the_armed_wakeup(self):
        """Passes at the parent (it cancelled the handle too)."""
        pair = LinkPair(drop_next=100)
        pair.send(b"old")  # wake-up armed for 0.05
        pair.sim.run(until=0.02)
        pair.peer_b.close()
        pair.send(b"new")  # its own wake-up, for 0.07
        pair.sim.run(until=0.1)
        assert [(round(t, 9), p) for t, _, p in pair.wire_a] == [
            (0.0, b"old"), (0.02, b"new"), (0.07, b"new"),
        ]


class TestTcpLinks:
    def make_pair(self):
        sim = Simulator()
        delivered = []
        links_box = {}
        self.peer_b, peer_a = Peer("b"), Peer("a")

        def a_to_peer(peer, frames):
            for frame in frames:
                sim.call_soon(lambda frame=frame: links_box["b"].on_frame(frame, peer_a))

        def b_to_peer(peer, frames):
            for frame in frames:
                sim.call_soon(lambda frame=frame: links_box["a"].on_frame(frame, self.peer_b))

        links_box["a"] = TcpLinks(
            clock=sim, timers=sim, local="a", send_to_peer=a_to_peer,
            deliver=lambda peer, payload: delivered.append((peer, payload)),
        )
        links_box["b"] = TcpLinks(
            clock=sim, timers=sim, local="b", send_to_peer=b_to_peer,
            deliver=lambda peer, payload: delivered.append((peer, payload)),
        )
        return sim, links_box["a"], links_box["b"], delivered

    def test_stream_delivery_with_handshake(self):
        sim, a, b, delivered = self.make_pair()
        a.send(self.peer_b, b"first")
        a.send(self.peer_b, b"second")
        sim.run(until=2.0)
        assert delivered == [("a", b"first"), ("a", b"second")]

    def test_wrong_channel_ignored(self):
        sim, a, b, delivered = self.make_pair()
        frame = Frame(kind=MessageKind.STREAM_SEGMENT, source="a", channel=RELIABLE_CHANNEL)
        assert b.on_frame(frame, Peer("a")) is False

    def test_reset_peer_clears_state(self):
        sim, a, b, delivered = self.make_pair()
        a.send(self.peer_b, b"x")
        sim.run(until=1.0)
        wakeup = self.peer_b.tcp_sender.wakeup
        self.peer_b.close()
        assert self.peer_b.tcp_sender is None and self.peer_b.tcp_receiver is None
        assert wakeup._at == float("-inf")
