"""Property-based tests on protocol invariants.

The reliable channel must deliver every message exactly once and in order
for *any* pattern of data loss, ack loss, duplication and timer timing —
hypothesis drives those schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import (
    Fragmenter,
    MessageKind,
    Reassembler,
    ReliableReceiver,
    ReliableSender,
    RetransmitPolicy,
)
from repro.protocol.frames import Frame
from repro.util import ManualClock


class LossyHarness:
    """Sender/receiver pair whose channel behaviour is scripted by two
    boolean iterators (deliver-or-drop per frame, per direction)."""

    def __init__(self, data_plan, ack_plan):
        self.clock = ManualClock()
        self.delivered = []
        self.failed = []
        self._data_plan = iter(data_plan)
        self._ack_plan = iter(ack_plan)
        self.receiver = ReliableReceiver(
            source="tx",
            channel=1,
            emit_ack=self._maybe_ack,
            deliver=lambda frame: self.delivered.append(frame.payload),
            ack_source="rx",
        )
        self.sender = ReliableSender(
            clock=self.clock,
            source="tx",
            channel=1,
            emit=self._maybe_data,
            on_failure=lambda seq, frame: self.failed.append(seq),
            policy=RetransmitPolicy(initial_rto=0.05, window=8, max_retries=64),
        )

    def _next(self, plan):
        try:
            return next(plan)
        except StopIteration:
            return True  # plans exhaust into a perfect channel

    def _maybe_data(self, frames):
        for frame in frames:
            if self._next(self._data_plan):
                self.receiver.on_frame(frame)

    def _maybe_ack(self, frame):
        if self._next(self._ack_plan):
            self.sender.on_ack_frame(frame)

    def run_until_idle(self, max_steps=5000):
        steps = 0
        while not self.sender.idle and steps < max_steps:
            self.clock.advance(0.05)
            self.sender.poll()
            steps += 1
        return self.sender.idle


@settings(max_examples=80, deadline=None)
@given(
    messages=st.lists(st.binary(min_size=0, max_size=32), min_size=1, max_size=25),
    data_plan=st.lists(st.booleans(), max_size=200),
    ack_plan=st.lists(st.booleans(), max_size=200),
)
def test_reliable_channel_delivers_everything_in_order(messages, data_plan, ack_plan):
    harness = LossyHarness(data_plan, ack_plan)
    for message in messages:
        harness.sender.send(MessageKind.EVENT, message)
    assert harness.run_until_idle()
    assert harness.failed == []
    assert harness.delivered == messages


@settings(max_examples=80, deadline=None)
@given(
    messages=st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=15),
    dup_pattern=st.lists(st.integers(1, 3), max_size=60),
)
def test_receiver_dedupes_arbitrary_duplication(messages, dup_pattern):
    delivered = []
    rx = ReliableReceiver(
        "tx", 1, emit_ack=lambda f: None,
        deliver=lambda f: delivered.append(f.payload),
    )
    frames = [
        Frame(kind=MessageKind.EVENT, source="tx", channel=1, seq=i + 1, payload=m)
        for i, m in enumerate(messages)
    ]
    pattern = iter(dup_pattern)
    for frame in frames:
        copies = next(pattern, 1)
        for _ in range(copies):
            rx.on_frame(frame)
    assert delivered == messages


@settings(max_examples=80, deadline=None)
@given(
    messages=st.lists(st.binary(min_size=0, max_size=16), min_size=1, max_size=15),
    seed=st.integers(0, 2**16),
)
def test_receiver_restores_any_permutation(messages, seed):
    import random

    delivered = []
    rx = ReliableReceiver(
        "tx", 1, emit_ack=lambda f: None,
        deliver=lambda f: delivered.append(f.payload),
    )
    frames = [
        Frame(kind=MessageKind.EVENT, source="tx", channel=1, seq=i + 1, payload=m)
        for i, m in enumerate(messages)
    ]
    random.Random(seed).shuffle(frames)
    for frame in frames:
        rx.on_frame(frame)
    assert delivered == messages


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(0, 5000),
    mtu=st.integers(120, 1500),
    seed=st.integers(0, 2**16),
)
def test_fragmentation_reassembles_any_order(size, mtu, seed):
    import random

    payload = bytes((i * 31) % 256 for i in range(size))
    encoded = Frame(kind=MessageKind.RPC_REQUEST, source="c", payload=payload).encode()
    fragments = Fragmenter("c", mtu).fragment(encoded)
    for fragment in fragments:
        assert len(fragment.encode()) <= mtu
    random.Random(seed).shuffle(fragments)
    reasm = Reassembler()
    results = [reasm.on_fragment(f, now=0.0) for f in fragments]
    completed = [r for r in results if r is not None]
    assert completed == [encoded]


class ChaoticChannel:
    """Sender/receiver pair whose data direction drops, duplicates, delays
    and reorders frames according to a hypothesis-drawn script. Acks pass
    clean — the loss-facing ack path is covered by :class:`LossyHarness`."""

    def __init__(self, actions, seed):
        import random

        self.rng = random.Random(seed)
        self.clock = ManualClock()
        self.delivered = []
        self.failed = []
        self._actions = iter(actions)
        self._delayed = []
        self.receiver = ReliableReceiver(
            source="tx",
            channel=1,
            emit_ack=lambda frame: self.sender.on_ack_frame(frame),
            deliver=lambda frame: self.delivered.append(frame.payload),
            ack_source="rx",
        )
        self.sender = ReliableSender(
            clock=self.clock,
            source="tx",
            channel=1,
            emit=self._scripted,
            on_failure=lambda seq, frame: self.failed.append(seq),
            policy=RetransmitPolicy(initial_rto=0.05, window=8, max_retries=64),
        )

    def _scripted(self, frames):
        for frame in frames:
            action = next(self._actions, "deliver")
            if action == "drop":
                continue
            if action == "delay":
                self._delayed.append(frame)
                continue
            self.receiver.on_frame(frame)
            if action == "dup":
                self.receiver.on_frame(frame)

    def _flush_delayed(self):
        self.rng.shuffle(self._delayed)
        pending, self._delayed = self._delayed, []
        for frame in pending:
            self.receiver.on_frame(frame)

    def run_until_idle(self, max_steps=5000):
        steps = 0
        while not self.sender.idle and steps < max_steps:
            self.clock.advance(0.05)
            self._flush_delayed()
            self.sender.poll()
            steps += 1
        self._flush_delayed()
        return self.sender.idle


@settings(max_examples=80, deadline=None)
@given(
    messages=st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=20),
    actions=st.lists(
        st.sampled_from(["deliver", "drop", "dup", "delay"]), max_size=200
    ),
    seed=st.integers(0, 2**16),
)
def test_exactly_once_under_combined_drop_dup_reorder(messages, actions, seed):
    """The §4.2 guarantee under every fault class at once: whatever mix of
    loss, duplication and reordering the channel applies, the application
    sees each message exactly once, in order."""
    harness = ChaoticChannel(actions, seed)
    for message in messages:
        harness.sender.send(MessageKind.EVENT, message)
    assert harness.run_until_idle()
    assert harness.failed == []
    assert harness.delivered == messages


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(max_size=4000),
    mtu=st.integers(120, 1500),
    dup_pattern=st.lists(st.integers(1, 3), max_size=40),
    seed=st.integers(0, 2**16),
)
def test_fragmentation_byte_identical_under_duplication(payload, mtu, dup_pattern, seed):
    """Arbitrary payload bytes and chunk sizes: every reassembly completion
    must be the input byte-for-byte, however fragments arrive shuffled and
    duplicated. (Suppressing *repeat* completions of duplicated fragment
    sets is the reliability layer's dedup job, not the reassembler's.)"""
    import random

    encoded = Frame(kind=MessageKind.RPC_REQUEST, source="c", payload=payload).encode()
    fragments = Fragmenter("c", mtu).fragment(encoded)
    for fragment in fragments:
        assert len(fragment.encode()) <= mtu
    stream = []
    pattern = iter(dup_pattern)
    for fragment in fragments:
        stream.extend([fragment] * next(pattern, 1))
    random.Random(seed).shuffle(stream)
    reasm = Reassembler()
    completed = [
        r for r in (reasm.on_fragment(f, now=0.0) for f in stream) if r is not None
    ]
    assert completed
    assert all(result == encoded for result in completed)


@settings(max_examples=100, deadline=None)
@given(
    indices=st.sets(st.integers(0, 500), max_size=80),
)
def test_nack_range_compression_round_trips(indices):
    from repro.primitives.wire import indices_from_ranges, ranges_from_indices

    ranges = ranges_from_indices(indices)
    assert indices_from_ranges(ranges) == sorted(indices)
    # Compression invariant: ranges are disjoint, ordered, non-adjacent.
    for a, b in zip(ranges, ranges[1:]):
        assert a["end"] + 1 < b["start"]


@settings(max_examples=100, deadline=None)
@given(
    payload=st.binary(max_size=200),
    kind=st.sampled_from(list(MessageKind)),
    channel=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    source=st.from_regex(r"[a-z][a-z0-9\-]{0,20}", fullmatch=True),
)
def test_frame_encoding_round_trips(payload, kind, channel, seq, source):
    frame = Frame(kind=kind, source=source, payload=payload, channel=channel, seq=seq)
    decoded = Frame.decode(frame.encode())
    assert (decoded.kind, decoded.source, decoded.payload, decoded.channel, decoded.seq) == (
        kind, source, payload, channel, seq,
    )
