"""Tests for the TCP-behaviour baseline stream."""


from repro.protocol.frames import MessageKind
from repro.protocol.tcp_like import TCP_EXTRA_HEADER, TcpLikeReceiver, TcpLikeSender
from repro.util import ManualClock, SeededRng


class StreamPipe:
    def __init__(self, rto=0.2):
        self.clock = ManualClock()
        self.delivered = []
        self.drop_next = 0
        self.to_receiver = []
        self.receiver = TcpLikeReceiver(
            source="rx",
            channel=1,
            emit=self._to_sender,
            deliver=self.delivered.append,
        )
        self.sender = TcpLikeSender(
            clock=self.clock, source="tx", channel=1, emit=self._to_receiver, rto=rto
        )

    def _to_receiver(self, frame):
        self.to_receiver.append(frame)
        if self.drop_next > 0:
            self.drop_next -= 1
            return
        self.receiver.on_frame(frame)

    def _to_sender(self, frame):
        self.sender.on_frame(frame)

    def tick(self, dt):
        self.clock.advance(dt)
        self.sender.poll()


class TestHandshake:
    def test_first_send_triggers_syn(self):
        pipe = StreamPipe()
        pipe.sender.send(b"hello")
        kinds = [f.kind for f in pipe.to_receiver]
        assert kinds[0] == MessageKind.STREAM_SYN
        assert MessageKind.STREAM_SEGMENT in kinds
        assert pipe.delivered == [b"hello"]

    def test_single_handshake_for_many_messages(self):
        pipe = StreamPipe()
        for i in range(5):
            pipe.sender.send(bytes([i]))
        assert pipe.sender.handshake_frames == 1
        assert pipe.delivered == [bytes([i]) for i in range(5)]

    def test_lost_syn_is_retried(self):
        pipe = StreamPipe()
        pipe.drop_next = 1  # lose the SYN
        pipe.sender.send(b"x")
        assert pipe.delivered == []
        pipe.tick(0.25)
        assert pipe.delivered == [b"x"]
        assert pipe.sender.handshake_frames == 2


class TestDelivery:
    def test_in_order_delivery(self):
        pipe = StreamPipe()
        payloads = [bytes([i]) for i in range(10)]
        for p in payloads:
            pipe.sender.send(p)
        assert pipe.delivered == payloads
        assert pipe.sender.idle

    def test_go_back_n_on_loss(self):
        pipe = StreamPipe()
        pipe.sender.send(b"warmup")  # complete the handshake
        pipe.drop_next = 1  # lose the next segment
        pipe.sender.send(b"a")
        pipe.sender.send(b"b")
        pipe.sender.send(b"c")
        # b and c arrived out of order and are buffered, not delivered.
        assert pipe.delivered == [b"warmup"]
        pipe.tick(0.25)
        assert pipe.delivered == [b"warmup", b"a", b"b", b"c"]
        # Go-back-N retransmitted all three unacked segments, not just 'a'.
        assert pipe.sender.retransmitted_segments == 3

    def test_segments_carry_tcp_header_padding(self):
        pipe = StreamPipe()
        pipe.sender.send(b"zz")
        segment = [f for f in pipe.to_receiver if f.kind == MessageKind.STREAM_SEGMENT][0]
        assert len(segment.payload) == TCP_EXTRA_HEADER + 2

    def test_receiver_acks_every_segment(self):
        pipe = StreamPipe()
        for i in range(4):
            pipe.sender.send(bytes([i]))
        assert pipe.receiver.ack_frames == 4

    def test_heavy_random_loss_eventually_delivers(self):
        rng = SeededRng(3)
        pipe = StreamPipe(rto=0.05)
        real = pipe.receiver.on_frame

        def lossy(frame):
            pipe.to_receiver.append(frame)
            if frame.kind == MessageKind.STREAM_SYN or not rng.chance(0.3):
                real(frame)

        pipe.sender._emit = lossy
        payloads = [bytes([i]) for i in range(20)]
        for p in payloads:
            pipe.sender.send(p)
        for _ in range(300):
            pipe.tick(0.05)
            if pipe.sender.idle:
                break
        assert pipe.delivered == payloads
