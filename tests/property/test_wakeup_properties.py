"""One wake-up per stream against the sans-io oracle.

``ReliableSender.poll``/``next_wakeup`` are the specification: a bare sender
polled at every ``next_wakeup()`` says when each retransmission and each
give-up happens. ``ReliableLinks`` arms one wake-up per stream and touches it
only when a deadline appears before the armed instant; for *any*
interleaving of sends, ACKs, NACKs, waits and peer resets it must put the
same frames on the wire at the same instants. Passes at the parent, which
re-read every deadline on every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.links import RELIABLE_CHANNEL, ReliableLinks
from repro.protocol import MessageKind, ReliableSender, RetransmitPolicy
from repro.protocol.frames import Frame
from repro.protocol.peers import Peer
from repro.protocol.reliability import encode_ack
from repro.sim import Simulator
from repro.util import ManualClock

TICK = 1 / 256  # every instant is a dyadic rational: float sums are exact
POLICIES = (
    RetransmitPolicy(initial_rto=16 * TICK, max_rto=128 * TICK, max_retries=3, window=4),
    # An RTO capped below the first one: a NACK moves a deadline *earlier*.
    RetransmitPolicy(initial_rto=32 * TICK, max_rto=8 * TICK, max_retries=3, window=4),
)

OPS = st.lists(
    st.one_of(
        st.just(("send",)),
        st.just(("send",)),
        st.tuples(st.just("wait"), st.integers(1, 48)),
        st.tuples(st.just("wait"), st.integers(1, 48)),
        st.tuples(st.just("ack"), st.integers(1, 15)),
        st.tuples(st.just("nack"), st.integers(1, 15)),
        st.just(("reset",)),
    ),
    max_size=60,
)


class Oracle:
    """A bare sender on a manual clock, polled at every ``next_wakeup()``."""

    def __init__(self, policy):
        self.clock = ManualClock()
        self.policy = policy
        self.log = []
        self.sender = None

    def _sender(self):
        if self.sender is None:
            self.sender = ReliableSender(
                clock=self.clock, source="a", channel=RELIABLE_CHANNEL,
                emit=lambda f: self.log.append((self.clock.now(), f.seq, f.flags)),
                on_failure=lambda seq, f: self.log.append((self.clock.now(), seq, "failed")),
                policy=self.policy,
            )
        return self.sender

    def send(self):
        self._sender().send(MessageKind.EVENT, b"x")

    def feed(self, frame):
        if self.sender is not None:
            feed = self.sender.on_ack_frame if frame.kind == MessageKind.ACK else self.sender.on_nack_frame
            feed(frame)

    def wait(self, until):
        while self.sender is not None:
            wakeup = self.sender.next_wakeup()
            if wakeup is None or wakeup > until:
                break
            self.clock.set(wakeup)
            self.sender.poll()
        self.clock.set(until)

    def reset(self):
        sender, self.sender = self.sender, None
        if sender is not None:
            sender.close()  # every unacknowledged frame is reported failed


class UnderTest:
    """The same stream behind ``ReliableLinks`` and a simulator's timers."""

    def __init__(self, policy):
        self.sim = Simulator()
        self.log = []
        self.peer = Peer("b")
        self.links = ReliableLinks(
            clock=self.sim, timers=self.sim, local="a",
            send_to_peer=lambda peer, f: self.log.append((self.sim.now(), f.seq, f.flags)),
            deliver=lambda f: None,
            on_peer_failure=lambda peer, f: self.log.append((self.sim.now(), f.seq, "failed")),
            policy=policy,
        )

    def send(self):
        self.links.send(self.peer, MessageKind.EVENT, b"x")

    def feed(self, frame):
        self.links.on_frame(frame, self.peer)

    def wait(self, until):
        self.sim.run(until=until)

    def reset(self):
        self.peer.close()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POLICIES), OPS)
def test_links_emit_exactly_what_the_polled_sender_emits(policy, ops):
    oracle, links = Oracle(policy), UnderTest(policy)
    now = 0.0
    for op in ops:
        if op[0] == "wait":
            now += op[1] * TICK
        elif op[0] in ("ack", "nack"):
            in_flight = sorted(oracle.sender._in_flight) if oracle.sender else []
            seqs = [seq for bit, seq in enumerate(in_flight) if op[1] >> bit & 1]
            if not seqs:
                continue
            kind = MessageKind.ACK if op[0] == "ack" else MessageKind.NACK
            frame = dict(kind=kind, source="b", payload=encode_ack(seqs), channel=RELIABLE_CHANNEL)
        for side in (oracle, links):
            if op[0] == "wait":
                side.wait(now)
            elif op[0] in ("ack", "nack"):
                side.feed(Frame(**frame))
            else:
                getattr(side, op[0])()
        assert links.log == oracle.log
    # Nothing answers any more: every frame left runs out of retries.
    for side in (oracle, links):
        side.wait(now + 16.0)
    assert links.log == oracle.log
    assert links.peer.sender is None or links.peer.sender.unacked == 0
    assert links.sim.pending == 0
