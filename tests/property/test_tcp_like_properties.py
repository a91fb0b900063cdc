"""Property tests of the TCP-behaviour baseline stream.

The E5 comparison is only honest if the baseline actually behaves like a
reliable in-order stream: for *any* finite pattern of segment and ack
loss (handshake included), go-back-N plus cumulative acks must eventually
deliver every message exactly once, in order. The suite drives the
deterministic ``ManualClock`` state machines directly — no sockets — so a
failing loss pattern shrinks to a minimal counterexample.

Kinds exercised: ``MessageKind.STREAM_SYN``, ``MessageKind.STREAM_SYNACK``,
``MessageKind.STREAM_SEGMENT`` and ``MessageKind.STREAM_ACK``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.tcp_like import TcpLikeReceiver, TcpLikeSender
from repro.protocol.frames import MessageKind
from repro.util import ManualClock

STREAM_KINDS = {
    MessageKind.STREAM_SYN,
    MessageKind.STREAM_SYNACK,
    MessageKind.STREAM_SEGMENT,
    MessageKind.STREAM_ACK,
}


class LossyStream:
    """Sender and receiver joined by links that drop per a finite plan;
    once a plan is exhausted the link is lossless, so delivery must
    converge."""

    def __init__(self, data_plan, ack_plan, rto=0.2):
        self.clock = ManualClock()
        self.delivered = []
        self.kinds_seen = set()
        self._data_plan = iter(data_plan)
        self._ack_plan = iter(ack_plan)
        self.receiver = TcpLikeReceiver(
            source="rx",
            channel=3,
            emit=self._to_sender,
            deliver=self.delivered.append,
        )
        self.sender = TcpLikeSender(
            clock=self.clock, source="tx", channel=3, emit=self._to_receiver, rto=rto
        )

    def _to_receiver(self, frame):
        self.kinds_seen.add(frame.kind)
        if next(self._data_plan, True):
            self.receiver.on_frame(frame)

    def _to_sender(self, frame):
        self.kinds_seen.add(frame.kind)
        if next(self._ack_plan, True):
            self.sender.on_frame(frame)

    def run_until_idle(self, max_ticks=400):
        for _ in range(max_ticks):
            if self.sender.idle:
                return
            self.clock.advance(0.25)
            self.sender.poll()
        raise AssertionError("stream did not converge after the loss plan ended")


@settings(max_examples=60, deadline=None)
@given(
    messages=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=12),
    data_plan=st.lists(st.booleans(), max_size=60),
    ack_plan=st.lists(st.booleans(), max_size=60),
)
def test_stream_delivers_everything_in_order_under_any_loss(
    messages, data_plan, ack_plan
):
    stream = LossyStream(data_plan, ack_plan)
    for message in messages:
        stream.sender.send(message)
    stream.run_until_idle()
    assert stream.delivered == messages
    assert stream.kinds_seen <= STREAM_KINDS


@settings(max_examples=30, deadline=None)
@given(messages=st.lists(st.binary(max_size=8), min_size=1, max_size=8))
def test_lossless_stream_never_retransmits(messages):
    stream = LossyStream([], [])
    for message in messages:
        stream.sender.send(message)
    stream.run_until_idle()
    assert stream.delivered == messages
    assert stream.sender.retransmitted_segments == 0
    assert stream.sender.handshake_frames == 1
