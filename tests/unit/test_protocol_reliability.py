"""Reliable channel tests driven with a manual clock and an in-memory pipe."""

import pytest

from repro.protocol import MessageKind, ReliableReceiver, ReliableSender, RetransmitPolicy
from repro.protocol.frames import Frame
from repro.protocol import reliability
from repro.protocol.reliability import decode_ack, encode_ack
from repro.util import ManualClock, SeededRng
from repro.util.errors import ProtocolError


class Pipe:
    """Connects a sender and receiver with scriptable loss in both directions."""

    def __init__(self, ordered=True, policy=None):
        self.clock = ManualClock()
        self.delivered = []
        self.failed = []
        self.drop_data = 0  # drop the next N data frames
        self.drop_acks = 0
        self.wire_frames = []

        self.receiver = ReliableReceiver(
            source="tx",
            channel=1,
            emit_ack=self._ack_to_sender,
            deliver=lambda f: self.delivered.append(f.payload),
            ordered=ordered,
            ack_source="rx",
        )
        self.sender = ReliableSender(
            clock=self.clock,
            source="tx",
            channel=1,
            emit=self._data_to_receiver,
            on_failure=lambda seq, f: self.failed.append(seq),
            policy=policy or RetransmitPolicy(initial_rto=0.1, window=4, max_retries=3),
        )

    def _data_to_receiver(self, frames):
        for frame in frames:
            self.wire_frames.append(frame)
            if self.drop_data > 0:
                self.drop_data -= 1
                continue
            self.receiver.on_frame(frame)

    def _ack_to_sender(self, frame):
        if self.drop_acks > 0:
            self.drop_acks -= 1
            return
        self.sender.on_ack_frame(frame)

    def tick(self, dt):
        self.clock.advance(dt)
        self.sender.poll()


class TestAckEncoding:
    def test_round_trip(self):
        assert decode_ack(encode_ack([1, 5, 9])) == [1, 5, 9]
        assert decode_ack(encode_ack([])) == []

    def test_bad_payloads(self):
        with pytest.raises(ProtocolError):
            decode_ack(b"\x01")
        with pytest.raises(ProtocolError):
            decode_ack(encode_ack([1, 2]) + b"x")


class TestHappyPath:
    def test_send_and_deliver(self):
        pipe = Pipe()
        pipe.sender.send(MessageKind.EVENT, b"one")
        pipe.sender.send(MessageKind.EVENT, b"two")
        assert pipe.delivered == [b"one", b"two"]
        assert pipe.sender.idle

    def test_seqs_are_sequential(self):
        pipe = Pipe()
        assert pipe.sender.send(MessageKind.EVENT, b"a") == 1
        assert pipe.sender.send(MessageKind.EVENT, b"b") == 2

    def test_no_retransmit_without_loss(self):
        pipe = Pipe()
        for i in range(10):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        pipe.tick(1.0)
        assert pipe.sender.retransmitted_frames == 0

    def test_next_wakeup_none_when_idle(self):
        pipe = Pipe()
        assert pipe.sender.next_wakeup() is None
        pipe.drop_data = 1
        pipe.sender.send(MessageKind.EVENT, b"x")
        assert pipe.sender.next_wakeup() == pytest.approx(0.1)


class TestRetransmission:
    def test_lost_frame_is_retransmitted_and_delivered(self):
        pipe = Pipe()
        pipe.drop_data = 1
        pipe.sender.send(MessageKind.EVENT, b"x")
        assert pipe.delivered == []
        pipe.tick(0.11)
        assert pipe.delivered == [b"x"]
        assert pipe.sender.retransmitted_frames == 1
        assert pipe.sender.idle

    def test_lost_ack_causes_duplicate_but_single_delivery(self):
        pipe = Pipe()
        pipe.drop_acks = 1
        pipe.sender.send(MessageKind.EVENT, b"x")
        assert pipe.delivered == [b"x"]
        pipe.tick(0.11)  # sender retransmits; receiver re-acks
        assert pipe.delivered == [b"x"]
        assert pipe.receiver.duplicate_frames == 1
        assert pipe.sender.idle

    def test_exponential_backoff(self):
        pipe = Pipe()
        pipe.drop_data = 100  # black hole
        pipe.sender.send(MessageKind.EVENT, b"x")
        pipe.tick(0.1)  # retry 1, rto -> 0.2
        assert pipe.sender.retransmitted_frames == 1
        pipe.tick(0.1)  # only 0.1 elapsed; not due yet
        assert pipe.sender.retransmitted_frames == 1
        pipe.tick(0.1)
        assert pipe.sender.retransmitted_frames == 2

    def test_failure_after_max_retries(self):
        pipe = Pipe()
        pipe.drop_data = 100
        pipe.sender.send(MessageKind.EVENT, b"x")
        for _ in range(10):
            pipe.tick(1.0)
        assert pipe.failed == [1]
        assert pipe.sender.failed_frames == 1
        assert pipe.sender.idle

    def test_retransmit_flag_set(self):
        pipe = Pipe()
        pipe.drop_data = 1
        pipe.sender.send(MessageKind.EVENT, b"x")
        pipe.tick(0.11)
        from repro.protocol.frames import FrameFlags

        assert pipe.wire_frames[1].flags & int(FrameFlags.RETRANSMIT)


class TestWindow:
    def test_backlog_drains_on_ack(self):
        # Window of 4: the 6 sends must all eventually arrive.
        pipe = Pipe()
        for i in range(6):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        assert pipe.delivered == [bytes([i]) for i in range(6)]

    def test_window_blocks_when_acks_missing(self):
        pipe = Pipe()
        pipe.drop_data = 100
        for i in range(6):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        # Only the window's worth went to the wire.
        assert len(pipe.wire_frames) == 4
        assert pipe.sender.unacked == 6


class TestOrdering:
    def feed(self, receiver, seqs):
        for seq in seqs:
            receiver.on_frame(
                Frame(
                    kind=MessageKind.EVENT,
                    source="tx",
                    channel=1,
                    seq=seq,
                    payload=str(seq).encode(),
                )
            )

    def test_ordered_mode_restores_order(self):
        delivered = []
        rx = ReliableReceiver(
            "tx", 1, emit_ack=lambda f: None, deliver=lambda f: delivered.append(f.seq)
        )
        self.feed(rx, [2, 3, 1, 5, 4])
        assert delivered == [1, 2, 3, 4, 5]

    def test_unordered_mode_delivers_immediately(self):
        delivered = []
        rx = ReliableReceiver(
            "tx",
            1,
            emit_ack=lambda f: None,
            deliver=lambda f: delivered.append(f.seq),
            ordered=False,
        )
        self.feed(rx, [2, 1, 3])
        assert delivered == [2, 1, 3]

    def test_unordered_mode_still_dedupes(self):
        delivered = []
        rx = ReliableReceiver(
            "tx",
            1,
            emit_ack=lambda f: None,
            deliver=lambda f: delivered.append(f.seq),
            ordered=False,
        )
        self.feed(rx, [1, 2, 2, 1, 3, 3])
        assert delivered == [1, 2, 3]

    def test_receiver_rejects_foreign_stream(self):
        rx = ReliableReceiver("tx", 1, emit_ack=lambda f: None, deliver=lambda f: None)
        with pytest.raises(ProtocolError):
            rx.on_frame(Frame(kind=MessageKind.EVENT, source="other", channel=1, seq=1))

    def test_acks_even_duplicates(self):
        acks = []
        rx = ReliableReceiver(
            "tx", 1, emit_ack=lambda f: acks.append(decode_ack(f.payload)), deliver=lambda f: None
        )
        self.feed(rx, [1, 1])
        assert acks == [[1], [1]]


class TestRaisingDeliver:
    """A ``deliver`` that raises consumes its frame's seq all the same: the
    frame was ACKed, so the sender never resends it, and a seq left
    unconsumed would hold every later frame in the reorder buffer."""

    def _receiver(self, bad_seq, ordered=True):
        attempts = []

        def deliver(frame):
            attempts.append(frame.seq)
            if frame.seq == bad_seq:
                raise ProtocolError("undecodable payload")

        rx = ReliableReceiver(
            "tx", 1, emit_ack=lambda f: None, deliver=deliver, ordered=ordered
        )
        return rx, attempts

    def _frame(self, seq):
        return Frame(kind=MessageKind.EVENT, source="tx", channel=1, seq=seq)

    @pytest.mark.parametrize("ordered", [True, False])
    def test_in_order(self, ordered):
        rx, attempts = self._receiver(bad_seq=2, ordered=ordered)
        rx.on_frame(self._frame(1))
        with pytest.raises(ProtocolError):
            rx.on_frame(self._frame(2))
        for seq in (3, 2, 4, 5):  # 2 again: a retransmission, a duplicate
            rx.on_frame(self._frame(seq))
        assert attempts == [1, 2, 3, 4, 5]
        assert (rx.delivered_frames, rx.duplicate_frames) == (5, 1)
        assert rx._pending == {}

    def test_from_the_reorder_buffer(self):
        rx, attempts = self._receiver(bad_seq=3)
        for seq in (2, 3, 4):
            rx.on_frame(self._frame(seq))
        assert attempts == []
        with pytest.raises(ProtocolError):
            rx.on_frame(self._frame(1))  # releases 2, then 3 raises
        assert attempts == [1, 2, 3]
        # 4 waited behind the raise; the next frame that arrives, whatever
        # it is, releases it first.
        for seq in (3, 5, 6):
            rx.on_frame(self._frame(seq))
        assert attempts == [1, 2, 3, 4, 5, 6]
        assert (rx.delivered_frames, rx.duplicate_frames) == (6, 1)
        assert rx._pending == {}


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetransmitPolicy(initial_rto=0)
        with pytest.raises(ValueError):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetransmitPolicy(window=0)


class TestRandomLoss:
    def test_full_delivery_under_heavy_random_loss(self):
        rng = SeededRng(99)
        pipe = Pipe(policy=RetransmitPolicy(initial_rto=0.05, window=8, max_retries=20))
        original_data = pipe._data_to_receiver

        def lossy_data(frames):
            for frame in frames:
                pipe.wire_frames.append(frame)
                if not rng.chance(0.4):
                    pipe.receiver.on_frame(frame)

        pipe.sender._emit = lossy_data
        payloads = [bytes([i]) for i in range(30)]
        for p in payloads:
            pipe.sender.send(MessageKind.EVENT, p)
        for _ in range(400):
            pipe.tick(0.05)
            if pipe.sender.idle:
                break
        assert pipe.delivered == payloads
        assert pipe.failed == []


class CoalescedPipe:
    """Sender/receiver pair with a simulated clock so the receiver's
    ACK-coalescing timer can fire."""

    def __init__(self, ack_delay=0.01, max_pending=64, policy=None):
        from repro.sim import Simulator

        self.sim = Simulator()
        self.delivered = []
        self.acks = []  # decoded seq lists, in emission order
        self.receiver = ReliableReceiver(
            source="tx",
            channel=1,
            emit_ack=self._ack_to_sender,
            deliver=lambda f: self.delivered.append(f.payload),
            ack_source="rx",
            ack_delay=ack_delay,
            timers=self.sim,
            max_pending_acks=max_pending,
        )
        self.sender = ReliableSender(
            clock=self.sim,
            source="tx",
            channel=1,
            emit=self._data_to_receiver,
            policy=policy or RetransmitPolicy(initial_rto=0.1, window=8),
        )

    def _data_to_receiver(self, frames):
        for frame in frames:
            self.receiver.on_frame(frame)

    def _ack_to_sender(self, frame):
        self.acks.append(decode_ack(frame.payload))
        self.sender.on_ack_frame(frame)


class TestAckCoalescing:
    def test_merges_seqs_into_one_ack(self):
        pipe = CoalescedPipe(ack_delay=0.01)
        for i in range(5):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        # Nothing acked yet: the delay window is open.
        assert pipe.acks == []
        assert pipe.receiver.pending_ack_count == 5
        pipe.sim.run(until=0.02)
        assert pipe.acks == [[1, 2, 3, 4, 5]]
        assert pipe.sender.idle
        assert pipe.receiver.ack_frames_sent == 1

    def test_max_delay_bounds_ack_latency(self):
        pipe = CoalescedPipe(ack_delay=0.01)
        pipe.sender.send(MessageKind.EVENT, b"x")
        pipe.sim.run(until=0.0099)
        assert pipe.acks == []
        pipe.sim.run(until=0.0101)
        assert pipe.acks == [[1]]

    def test_pending_cap_forces_early_flush(self):
        pipe = CoalescedPipe(ack_delay=10.0, max_pending=3)
        for i in range(7):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        # Two cap-triggered flushes at 3 pending; the 7th waits for a timer.
        assert pipe.acks == [[1, 2, 3], [4, 5, 6]]
        assert pipe.receiver.pending_ack_count == 1

    def test_take_pending_acks_piggyback_path(self):
        pipe = CoalescedPipe(ack_delay=0.01)
        for i in range(3):
            pipe.sender.send(MessageKind.EVENT, bytes([i]))
        taken = pipe.receiver.take_pending_acks()
        assert len(taken) == 1
        assert taken[0].kind == MessageKind.ACK
        assert decode_ack(taken[0].payload) == [1, 2, 3]
        assert pipe.receiver.pending_ack_count == 0
        # The cancelled timer must not re-ack the same seqs later.
        pipe.sim.run(until=0.1)
        assert pipe.acks == []
        assert pipe.receiver.take_pending_acks() == []

    def test_seq_pending_after_a_drain_is_flushed_at_its_own_instant(self):
        """Exact instants. Passes at the parent, whose drain cancelled the
        timer and whose next pending seq scheduled a new one."""
        pipe = CoalescedPipe(ack_delay=0.01)
        flushed = []
        emit = pipe.receiver._emit_ack
        pipe.receiver._emit_ack = lambda f: (flushed.append(pipe.sim.now()), emit(f))
        pipe.sender.send(MessageKind.EVENT, b"a")  # pending at 0: due at 10 ms
        pipe.sim.run(until=0.004)
        assert len(pipe.receiver.take_pending_acks()) == 1  # piggybacked at 4 ms
        pipe.sim.run(until=0.0042)
        pipe.sender.send(MessageKind.EVENT, b"b")  # pending 0.2 ms after the drain
        pipe.sim.run(until=0.0141)
        assert flushed == []  # the drained batch's instant (10 ms) emits nothing
        pipe.sim.run(until=1.0)
        assert flushed == [0.0042 + 0.01] and pipe.acks == [[2]]
        # The cap still flushes at once, and forgets the deadline with it.
        pipe = CoalescedPipe(ack_delay=0.01, max_pending=2)
        pipe.sender.send(MessageKind.EVENT, b"a")
        pipe.sender.send(MessageKind.EVENT, b"b")
        assert pipe.acks == [[1, 2]]
        pipe.sim.run(until=0.003)
        pipe.sender.send(MessageKind.EVENT, b"c")
        pipe.sim.run(until=0.0129)
        assert pipe.acks == [[1, 2]]
        pipe.sim.run(until=0.0131)
        assert pipe.acks == [[1, 2], [3]]

    def test_piggyback_drains_do_not_touch_the_timer(self):
        """Fails at the parent: one timer scheduled (and cancelled by the
        drain) per piggybacked batch, 100 here."""
        pipe = CoalescedPipe(ack_delay=0.01)
        made = []
        schedule = pipe.sim.schedule
        pipe.sim.schedule = lambda delay, fn: (made.append(delay), schedule(delay, fn))[1]

        def piggyback():
            for ack in pipe.receiver.take_pending_acks():
                pipe.sender.on_ack_frame(ack)

        for i in range(100):  # a frame a millisecond, drained half a millisecond later
            pipe.sim.schedule_at(i * 0.001, lambda: pipe.sender.send(MessageKind.EVENT, b"x"))
            pipe.sim.schedule_at(i * 0.001 + 0.0005, piggyback)
        pipe.sim.run(until=0.2)
        assert pipe.receiver.delivered_frames == 100 and pipe.acks == []
        assert len(made) <= 0.1 / 0.01 + 1

    def test_duplicate_seqs_merge_once(self):
        pipe = CoalescedPipe(ack_delay=0.01)
        frame = Frame(
            kind=MessageKind.EVENT, source="tx", payload=b"x", channel=1, seq=1,
        )
        pipe.receiver.on_frame(frame)
        pipe.receiver.on_frame(frame)  # duplicate still triggers an ack
        pipe.sim.run(until=0.02)
        assert pipe.acks == [[1]]

    def test_zero_delay_keeps_seed_per_frame_acks(self):
        # ack_delay=0 must behave exactly like the seed: one immediate ACK
        # per data frame, no timer involvement.
        pipe = Pipe()
        acks = []
        original = pipe.receiver._emit_ack
        pipe.receiver._emit_ack = lambda f: (acks.append(decode_ack(f.payload)), original(f))
        pipe.sender.send(MessageKind.EVENT, b"a")
        pipe.sender.send(MessageKind.EVENT, b"b")
        assert acks == [[1], [2]]
        assert pipe.sender.idle

    def test_retransmit_timing_unchanged_when_uncoalesced(self):
        pipe = Pipe(policy=RetransmitPolicy(initial_rto=0.1, window=4, max_retries=3))
        pipe.drop_data = 1
        pipe.sender.send(MessageKind.EVENT, b"x")
        assert pipe.delivered == []
        pipe.tick(0.09)
        assert len(pipe.wire_frames) == 1  # RTO not yet expired
        pipe.tick(0.02)
        assert len(pipe.wire_frames) == 2  # retransmitted at ~0.1s as before
        assert pipe.delivered == [b"x"]

    def test_coalescing_needs_timers(self):
        with pytest.raises(ValueError):
            ReliableReceiver(
                "tx", 1, emit_ack=lambda f: None, deliver=lambda f: None,
                ack_delay=0.01,
            )


class TestBoundedBacklog:
    def make_sender(self, window=2, max_backlog=3):
        from repro.util import ManualClock

        clock = ManualClock()
        wire = []
        shed = []
        sender = ReliableSender(
            clock=clock,
            source="tx",
            channel=1,
            emit=wire.extend,
            policy=RetransmitPolicy(
                initial_rto=0.1, window=window, max_backlog=max_backlog
            ),
            on_overflow=shed.append,
        )
        return clock, sender, wire, shed

    def test_sheds_beyond_backlog_bound(self):
        clock, sender, wire, shed = self.make_sender(window=2, max_backlog=3)
        seqs = [sender.send(MessageKind.EVENT, bytes([i])) for i in range(8)]
        # window(2) in flight + backlog(3) admitted; 3 shed with seq 0.
        assert seqs == [1, 2, 3, 4, 5, 0, 0, 0]
        assert sender.shed_frames == 3
        assert len(shed) == 3
        assert all(f.seq == 0 for f in shed)
        assert sender.unacked == 5

    def test_shedding_never_consumes_seqs(self):
        # The wedge hazard: a shed frame must not burn a sequence number,
        # or the ordered receiver waits forever on the gap.
        clock, sender, wire, shed = self.make_sender(window=1, max_backlog=1)
        assert sender.send(MessageKind.EVENT, b"a") == 1
        assert sender.send(MessageKind.EVENT, b"b") == 2
        assert sender.send(MessageKind.EVENT, b"c") == 0  # shed
        sender.on_acked([1])
        # The next admitted send continues the contiguous seq space.
        assert sender.send(MessageKind.EVENT, b"d") == 3

    def test_unbounded_backlog_by_default(self):
        clock, sender, wire, shed = self.make_sender(window=1, max_backlog=None)
        seqs = [sender.send(MessageKind.EVENT, bytes([i])) for i in range(50)]
        assert seqs == list(range(1, 51))
        assert sender.shed_frames == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetransmitPolicy(max_backlog=0)


def _data_frame(seq, source="tx", channel=1, payload=b"d"):
    from repro.protocol.frames import FrameFlags

    return Frame(
        kind=MessageKind.EVENT,
        source=source,
        payload=payload,
        channel=channel,
        seq=seq,
        flags=int(FrameFlags.RELIABLE),
    )


class TestAckAbuse:
    @pytest.fixture(autouse=True)
    def small_ack_budget(self, monkeypatch):
        monkeypatch.setattr(reliability, "ACK_RATE", 10.0)
        monkeypatch.setattr(reliability, "ACK_BURST", 3.0)

    def make(self):
        abuses = []
        clock = ManualClock()
        wire = []
        sender = ReliableSender(
            clock=clock,
            source="tx",
            channel=1,
            emit=wire.extend,
            policy=RetransmitPolicy(initial_rto=10.0, window=64),
            hardened=True,
            on_abuse=abuses.append,
        )
        return clock, sender, wire, abuses

    def ack(self, seqs):
        return Frame(
            kind=MessageKind.ACK, source="rx", payload=encode_ack(seqs), channel=1
        )

    def test_ack_flood_suppressed_by_budget(self):
        clock, sender, wire, abuses = self.make()
        sender.send(MessageKind.EVENT, b"a")
        for _ in range(10):
            sender.on_ack_frame(self.ack([]))
        assert sender.suppressed_acks == 7  # burst=3 honored
        assert abuses.count("ack-flood") == 7

    def test_future_ack_rejected_frame_stays_in_flight(self):
        clock, sender, wire, abuses = self.make()
        sender.send(MessageKind.EVENT, b"a")
        sender.on_ack_frame(self.ack([999]))
        assert sender.future_acks == 1
        assert "future-ack" in abuses
        assert sender.unacked == 1  # the forged ack freed nothing

    def test_duplicate_ack_counted_stale(self):
        clock, sender, wire, abuses = self.make()
        sender.send(MessageKind.EVENT, b"a")
        sender.on_ack_frame(self.ack([1]))
        sender.on_ack_frame(self.ack([1]))
        assert sender.stale_acks == 1
        assert "stale-ack" in abuses
        assert sender.idle


class TestReplayDefense:
    @pytest.fixture(autouse=True)
    def patcher(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def make(self, window=4, dup_rate=10.0, dup_burst=2.0, hardened=True):
        self.monkeypatch.setattr(reliability, "REPLAY_WINDOW", window)
        self.monkeypatch.setattr(reliability, "DUP_ACK_RATE", dup_rate)
        self.monkeypatch.setattr(reliability, "DUP_ACK_BURST", dup_burst)
        abuses = []
        clock = ManualClock()
        acks = []
        delivered = []
        receiver = ReliableReceiver(
            source="tx",
            channel=1,
            emit_ack=acks.append,
            deliver=lambda f: delivered.append(f.seq),
            ordered=True,
            ack_source="rx",
            clock=clock,
            hardened=hardened,
            on_abuse=abuses.append,
        )
        return clock, receiver, acks, delivered, abuses

    def warm(self, receiver, upto):
        for seq in range(1, upto + 1):
            receiver.on_frame(_data_frame(seq))

    def test_ancient_replay_dropped_without_ack(self):
        clock, receiver, acks, delivered, abuses = self.make(window=4)
        self.warm(receiver, 10)  # expected -> 11
        del acks[:]
        receiver.on_frame(_data_frame(3))  # 3 < 11 - 4
        assert acks == []  # no re-ACK: amplification denied
        assert receiver.replayed_frames == 1
        assert abuses == ["replay"]
        assert delivered == list(range(1, 11))

    def test_horizon_seq_not_buffered(self):
        clock, receiver, acks, delivered, abuses = self.make(window=4)
        self.warm(receiver, 10)
        receiver.on_frame(_data_frame(50))  # >= 11 + 4
        assert receiver.horizon_drops == 1
        assert abuses[-1] == "horizon"
        assert 50 not in receiver._pending
        assert not receiver._pending

    def test_in_window_duplicate_reacked_on_budget(self):
        clock, receiver, acks, delivered, abuses = self.make(
            window=8, dup_burst=2.0
        )
        self.warm(receiver, 5)
        del acks[:]
        for _ in range(5):
            receiver.on_frame(_data_frame(4))  # in-window duplicate
        assert len(acks) == 2  # dup-ACK budget = burst 2
        assert receiver.suppressed_dup_acks == 3
        assert abuses.count("dup-ack") == 3
        assert receiver.duplicate_frames == 5
        assert delivered == [1, 2, 3, 4, 5]  # never re-delivered

    def test_disabled_hardening_keeps_seed_behavior(self):
        clock, receiver, acks, delivered, abuses = self.make(window=4, hardened=False)
        self.warm(receiver, 10)
        del acks[:]
        for _ in range(20):
            receiver.on_frame(_data_frame(3))  # ancient dup, seed re-ACKs all
        assert len(acks) == 20
        assert receiver.replayed_frames == 0
        assert abuses == []
