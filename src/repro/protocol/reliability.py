"""Application-layer reliable delivery (selective ack + retransmit).

The paper maps events "over TCP or over UDP using a mechanism to acknowledge
and resend lost packets", claiming the application-layer mechanism "is more
efficient for event messages than the generic case provided by the TCP
stack" (§4.2). This module is that mechanism: per-(source, channel) sequence
numbers, *selective* acknowledgements, per-frame deadlines (one wake-up per
stream) with exponential backoff, and optional ordered delivery.

Everything here is sans-io: the classes never touch sockets or the
simulator; they emit frames through a callback and expose ``poll``/
``next_wakeup`` so either runtime can drive their timers.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.util.clock import Clock
from repro.util.errors import ProtocolError
from repro.util.wakeup import Wakeup

_ACK_COUNT = struct.Struct("<H")
_ACK_SEQ = struct.Struct("<I")
_ACK_MAX_SEQS = 0xFFFF
_RELIABLE = int(FrameFlags.RELIABLE)
_RETRANSMIT = int(FrameFlags.RETRANSMIT)
_ACK = MessageKind.ACK

#: Pending seqs that force a coalescing receiver to flush its ACK early.
ACK_COALESCE_MAX_PENDING = 64


@lru_cache(maxsize=256)
def _ack_layout(count: int) -> struct.Struct:
    """The whole selective-ack payload for ``count`` seqs as one ``Struct``,
    composed from the count and seq formats: encoding or decoding an ACK is
    one ``struct`` call, however many seqs it carries."""
    return struct.Struct(f"{_ACK_COUNT.format}{count}{_ACK_SEQ.format[1:]}")


def encode_ack(seqs: Sequence[int]) -> bytes:
    """Selective-ack payload: uint16 count + uint32 seq each."""
    count = len(seqs)
    if count > _ACK_MAX_SEQS:
        raise ProtocolError("too many seqs in one ack")
    return _ack_layout(count).pack(count, *seqs)


def decode_ack(payload: bytes) -> List[int]:
    size = len(payload)
    if size < _ACK_COUNT.size:
        raise ProtocolError("ack payload too short")
    count, odd = divmod(size - _ACK_COUNT.size, _ACK_SEQ.size)
    if not odd and count <= _ACK_MAX_SEQS:
        declared, *seqs = _ack_layout(count).unpack(payload)
        if declared == count:
            return seqs
    else:
        (declared,) = _ACK_COUNT.unpack_from(payload)
    raise ProtocolError(
        f"ack payload wrong size: {size} != {_ACK_COUNT.size + declared * _ACK_SEQ.size}"
    )


# Abuse defenses of a hardened stream (``ReliableLinks.set_hardening``),
# per (peer, channel). Fixed: no deployment tunes them, and a test that
# needs a small budget or window patches the constant.
#
# - ACK-flood rejection: an ACK-frame budget per peer, plus rejection of
#   ACKs for never-sent ("future") sequence numbers. Stale/duplicate ACKs
#   are counted and ignored.
# - Replay-window enforcement: data seqs further than REPLAY_WINDOW below
#   the receiver's contiguous point are dropped *without
#   re-acknowledgement* (re-ACKing ancient replays is the amplification an
#   attacker wants), and seqs further than REPLAY_WINDOW above it are
#   dropped instead of buffered, which bounds the out-of-order buffer an
#   attacker could otherwise grow without limit.

#: ACK frames/second per peer, and the burst of that bucket.
ACK_RATE = 500.0
ACK_BURST = 128.0
#: Honest senders keep at most ``RetransmitPolicy.window`` (default 64)
#: frames outstanding, so 256 never touches legitimate traffic — while
#: every admitted-but-gap-stalled flood frame past it is dropped *unACKed*,
#: bounding both the out-of-order buffer and the band-0 ACK amplification
#: a seq-striding flood can mint on a shaped uplink.
REPLAY_WINDOW = 256
#: Budget for re-ACKing in-window duplicates (lost-ACK recovery is
#: legitimate; a replay firehose is not).
DUP_ACK_RATE = 50.0
DUP_ACK_BURST = 16.0


class _Bucket:
    """Token bucket private to this module (admission imports frames, not
    us — keeping this local avoids a protocol-internal import cycle)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def try_take(self, now: float) -> bool:
        elapsed = now - self.stamp
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retransmission knobs.

    Defaults suit a sub-millisecond LAN; the radio-link experiments override
    them.
    """

    initial_rto: float = 0.05
    backoff: float = 2.0
    max_rto: float = 2.0
    max_retries: int = 10
    window: int = 64
    #: Cap on frames queued behind the window (``None`` = unbounded, the
    #: seed behavior). When the backlog is full, new sends are *shed before
    #: a sequence number is consumed* — shedding after allocation would
    #: leave a permanent gap that wedges the ordered receiver.
    max_backlog: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial_rto <= 0 or self.backoff < 1.0:
            raise ValueError("invalid retransmit policy")
        if self.window < 1 or self.max_retries < 0:
            raise ValueError("invalid retransmit policy")
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ValueError("invalid retransmit policy")


#: One in-flight frame: (frame, retransmit deadline, current RTO, retries so
#: far). A tuple, replaced whole on a retransmission — a first transmission
#: allocates no object besides its frame.
_InFlight = Tuple[Frame, float, float, int]
_deadline_of = itemgetter(1)


class ReliableSender:
    """Send side of one reliable stream (one destination, one channel).

    Parameters
    ----------
    clock:
        Time source (virtual or wall).
    source:
        Sending container id, stamped into every frame.
    channel:
        Stream id; receivers keep independent state per (source, channel).
    emit:
        Called with each run of frames that must go on the wire, in order,
        all of one kind and all first transmissions or all retransmissions:
        a first send is a run of one; a backlog drain, and a poll's due
        retransmissions, leave as few runs as their kinds allow. The owner
        decides the destination address.
    on_failure:
        Called with ``(seq, frame)`` when a frame exhausts its retries — the
        container uses this to declare a subscriber dead.
    on_overflow:
        Called with the *unsequenced* frame when ``policy.max_backlog`` is
        set and the backlog is full — the slow-subscriber backpressure
        signal. The frame was never admitted to the stream (seq 0).
    hardened:
        Apply the abuse defenses (the module constants above); the
        owner may also set :attr:`hardened` on an open stream.
    on_abuse:
        Called with a reason string (``"ack-flood"``, ``"future-ack"``,
        ``"stale-ack"``) each time a defense fires, so the owner can attribute abuse to the peer.

    An owner that drives the stream by wake-up rather than by polling sets
    :attr:`wakeup` to it: a send, or a backlog drain, then holds the wake-up
    to the deadline it gave what it transmitted — one clock read for both.
    """

    #: The stream's wake-up (:class:`~repro.util.wakeup.Wakeup`), if an
    #: owner attached one; ``None`` leaves timing to whoever calls ``poll``.
    wakeup: Optional[Wakeup] = None

    def __init__(
        self,
        clock: Clock,
        source: str,
        channel: int,
        emit: Callable[[Sequence[Frame]], None],
        on_failure: Optional[Callable[[int, Frame], None]] = None,
        policy: Optional[RetransmitPolicy] = None,
        on_overflow: Optional[Callable[[Frame], None]] = None,
        hardened: bool = False,
        on_abuse: Optional[Callable[[str], None]] = None,
    ):
        self._clock = clock
        self._source = source
        self._channel = channel
        self._emit = emit
        self._on_failure = on_failure
        self._on_overflow = on_overflow
        self._policy = policy or RetransmitPolicy()
        self.hardened = hardened
        self._on_abuse = on_abuse
        self._ack_bucket: Optional[_Bucket] = None
        self._next_seq = 1
        #: seq -> in-flight state, in transmission order
        self._in_flight: Dict[int, _InFlight] = {}
        self._backlog: Deque[Frame] = deque()
        # Statistics surfaced by experiment E5.
        self.sent_frames = 0
        self.retransmitted_frames = 0
        self.retransmitted_bytes = 0
        self.failed_frames = 0
        self.shed_frames = 0
        # Abuse-defense statistics (all zero unless hardening fires).
        self.suppressed_acks = 0
        self.future_acks = 0
        self.stale_acks = 0

    # -- API ------------------------------------------------------------------
    def send(self, kind: MessageKind, payload: bytes) -> int:
        """Queue a payload for reliable delivery; returns its sequence number.

        Returns 0 (never a valid seq) when the bounded backlog sheds the
        frame instead of admitting it.
        """
        policy = self._policy
        if len(self._in_flight) >= policy.window:
            if policy.max_backlog is not None and len(self._backlog) >= policy.max_backlog:
                self.shed_frames += 1
                if self._on_overflow is not None:
                    self._on_overflow(Frame(kind, self._source, payload, self._channel))
                return 0
            seq = self._next_seq
            self._next_seq = seq + 1
            self._backlog.append(
                Frame(kind, self._source, payload, self._channel, seq, _RELIABLE)
            )
            return seq
        seq = self._next_seq
        self._next_seq = seq + 1
        rto = policy.initial_rto
        deadline = self._clock.now() + rto
        frame = Frame(kind, self._source, payload, self._channel, seq, _RELIABLE)
        self._in_flight[seq] = (frame, deadline, rto, 0)
        self.sent_frames += 1
        self._emit((frame,))
        if self.wakeup is not None:
            self.wakeup.need(deadline)
        return seq

    def on_ack_frame(self, frame: Frame) -> None:
        """Feed an ACK frame received for this stream."""
        if frame.kind != _ACK:
            raise ProtocolError(f"not an ack frame: {frame!r}")
        if self.hardened:
            if self._ack_bucket is None:
                self._ack_bucket = _Bucket(ACK_RATE, ACK_BURST, self._clock.now())
            if not self._ack_bucket.try_take(self._clock.now()):
                self.suppressed_acks += 1
                self._abuse("ack-flood")
                return
        self.on_acked(decode_ack(frame.payload))

    def on_acked(self, seqs: Sequence[int]) -> None:
        in_flight = self._in_flight
        if not self.hardened:
            for seq in seqs:
                in_flight.pop(seq, None)
        else:
            for seq in seqs:
                if seq >= self._next_seq:
                    # An ACK for a sequence number this stream never issued
                    # is forgery, not a delivery report.
                    self.future_acks += 1
                    self._abuse("future-ack")
                    continue
                if in_flight.pop(seq, None) is None:
                    self.stale_acks += 1
                    self._abuse("stale-ack")
        if self._backlog:
            self._drain_backlog()

    def _abuse(self, reason: str) -> None:
        if self._on_abuse is not None:
            self._on_abuse(reason)

    def poll(self, now: Optional[float] = None) -> None:
        """Retransmit every frame whose deadline has passed, as one run
        (cut by kind), then drain the backlog. A frame out of retries ends
        the run: what was retransmitted before it leaves before its failure
        is reported, since the failure callback may reset the peer."""
        if now is None:
            now = self._clock.now()
        in_flight = self._in_flight
        policy = self._policy
        expired = [(seq, st) for seq, st in in_flight.items() if st[1] <= now]
        run: List[Frame] = []
        for seq, (frame, _, rto, retries) in expired:
            if retries >= policy.max_retries:
                self.failed_frames += 1
                del in_flight[seq]
                if run:
                    self._emit_by_kind(run)
                    run = []
                if self._on_failure is not None:
                    self._on_failure(seq, frame)
                continue
            rto = min(rto * policy.backoff, policy.max_rto)
            in_flight[seq] = (frame, now + rto, rto, retries + 1)
            frame.flags |= _RETRANSMIT
            self.retransmitted_frames += 1
            self.retransmitted_bytes += len(frame.payload)
            run.append(frame)
        if run:
            self._emit_by_kind(run)
        self._drain_backlog()

    def next_wakeup(self) -> Optional[float]:
        """Earliest time ``poll`` has work to do, or None when idle."""
        if not self._in_flight:
            return None
        return min(self._in_flight.values(), key=_deadline_of)[1]

    def close(self) -> None:
        """Discard the stream: wake-up disarmed, every frame not yet
        acknowledged (in flight, then the backlog) handed to the failure
        callback."""
        if self.wakeup is not None:
            self.wakeup.close()
        if self._on_failure is not None:
            for frame in [state[0] for state in self._in_flight.values()] + list(self._backlog):
                self._on_failure(frame.seq, frame)

    @property
    def unacked(self) -> int:
        return len(self._in_flight) + len(self._backlog)

    @property
    def idle(self) -> bool:
        return not self._in_flight and not self._backlog

    # -- internals --------------------------------------------------------------
    def _emit_by_kind(self, frames: List[Frame]) -> None:
        """Emit ``frames`` in order, cut into runs of one kind."""
        kind = frames[0].kind
        start = 0
        for stop in range(1, len(frames)):
            if frames[stop].kind is not kind:
                self._emit(frames[start:stop])
                start, kind = stop, frames[stop].kind
        self._emit(frames[start:] if start else frames)

    def _drain_backlog(self) -> None:
        """Move as much of the backlog as the window has room for into
        flight, all due at the deadline of one clock read, and emit it."""
        backlog, in_flight = self._backlog, self._in_flight
        room = self._policy.window - len(in_flight)
        if not backlog or room <= 0:
            return
        rto = self._policy.initial_rto
        deadline = self._clock.now() + rto
        run = [backlog.popleft() for _ in range(min(room, len(backlog)))]
        for frame in run:
            in_flight[frame.seq] = (frame, deadline, rto, 0)
        self.sent_frames += len(run)
        self._emit_by_kind(run)
        if self.wakeup is not None:
            self.wakeup.need(deadline)


class ReliableReceiver:
    """Receive side of one reliable stream.

    Deduplicates, optionally restores order, and acknowledges every frame it
    sees — including duplicates, so a lost ack does not cause retransmission
    storms.

    With ``ack_delay > 0`` the receiver *coalesces*: instead of one ACK
    frame per data frame, pending seqs accumulate for up to ``ack_delay``
    seconds (or until ``max_pending_acks`` are waiting) and go out merged
    into a single selective-ack frame. The egress batcher may also drain
    them early via :meth:`take_pending_acks` to piggyback on an outbound
    batch already headed to the peer. A drain only forgets the flush
    deadline; the one wake-up stays armed, fires early and finds either
    nothing or a later batch to sleep on. ``ack_delay == 0`` keeps the exact
    seed behavior: one immediate ACK per frame.
    """

    def __init__(
        self,
        source: str,
        channel: int,
        emit_ack: Callable[[Frame], None],
        deliver: Callable[[Frame], None],
        ordered: bool = True,
        ack_source: str = "",
        ack_delay: float = 0.0,
        timers=None,
        max_pending_acks: int = ACK_COALESCE_MAX_PENDING,
        clock: Optional[Clock] = None,
        hardened: bool = False,
        on_abuse: Optional[Callable[[str], None]] = None,
    ):
        if ack_delay > 0 and timers is None:
            raise ValueError("ack coalescing needs a timer service")
        self._source = source
        self._channel = channel
        self._emit_ack = emit_ack
        self._deliver = deliver
        self._ordered = ordered
        self._ack_source = ack_source or source
        self._ack_delay = ack_delay
        self._max_pending_acks = max_pending_acks
        self._clock = clock
        #: Apply the replay-window and re-ACK defenses (needs ``clock``);
        #: the owner may set it on an open stream.
        self.hardened = hardened
        self._on_abuse = on_abuse
        self._dup_ack_bucket: Optional[_Bucket] = None
        self._pending_acks: Set[int] = set()  # sorted into the ACK payload
        #: When the oldest pending seq must be flushed (None: none pending).
        self._ack_due: Optional[float] = None
        # Both runtimes' timer service is also their clock.
        self._ack_clock = clock if clock is not None else timers
        self._ack_wakeup = Wakeup(self._ack_clock, timers, self._flush_due)
        self._expected = 1  # next seq for in-order delivery
        self._pending: Dict[int, Frame] = {}  # out-of-order buffer
        #: Seqs above ``_expected`` already accepted — the duplicates to
        #: suppress: the reorder buffer itself when ordered, the seqs
        #: delivered early when not. Every seq below ``_expected`` is one.
        self._held = self._pending if ordered else set()
        self.delivered_frames = 0
        self.duplicate_frames = 0
        self.coalesced_acks = 0
        self.ack_frames_sent = 0
        # Abuse-defense statistics (all zero unless hardening fires).
        self.replayed_frames = 0
        self.horizon_drops = 0
        self.suppressed_dup_acks = 0

    def on_frame(self, frame: Frame) -> None:
        """One frame: a run of one, delivered to the stream's ``deliver``."""
        self.on_run((frame,), self._deliver)

    def on_run(self, frames: Sequence[Frame], deliver: Callable[[Frame], None]) -> None:
        """Accept, acknowledge and deliver ``frames``, in order, as
        :meth:`on_frame` would one at a time: each seq is screened (when
        hardened), pended for the ACK (or ACKed at once), flushed at
        ``max_pending_acks`` and then delivered, so the ACK frames and their
        places among the deliveries are the same however the frames are
        cut into runs.

        ``deliver`` gets every fresh frame, including those a frame releases
        from the reorder buffer, which may be of any kind. A seq is consumed
        before its frame is delivered, so a ``deliver`` that raises leaves
        no gap behind: the exception propagates, the frames after it in the
        run are left unacknowledged for the sender to resend, and successors
        still buffered are released by the next frame that arrives. The
        stream's ``hardened`` switch is read once per run."""
        source, channel = self._source, self._channel
        hardened = self.hardened
        coalesce = self._ack_delay > 0
        pending_acks = self._pending_acks
        held = self._held
        if self._expected in held:
            self._advance(deliver)  # what a raising ``deliver`` left buffered
        for frame in frames:
            if frame.source != source or frame.channel != channel:
                raise ProtocolError(
                    f"frame {frame!r} does not belong to stream ({source}, {channel})"
                )
            seq = frame.seq
            if hardened and self._screened(seq):
                continue
            # Always ack, even duplicates.
            if coalesce:
                pending_acks.add(seq)
                self.coalesced_acks += 1
                if len(pending_acks) >= self._max_pending_acks:
                    self.flush_acks()
                elif self._ack_due is None:
                    self._ack_due = due = self._ack_clock.now() + self._ack_delay
                    self._ack_wakeup.need(due)
            else:
                self._emit_ack(self._make_ack((seq,)))
            expected = self._expected
            if seq == expected:
                self._expected = seq + 1
                self.delivered_frames += 1
                deliver(frame)
                if held:
                    self._advance(deliver)
                continue
            if seq < expected or seq in held:
                self.duplicate_frames += 1
                continue
            if self._ordered:
                held[seq] = frame
                continue
            held.add(seq)
            self.delivered_frames += 1
            deliver(frame)

    def _screened(self, seq: int) -> bool:
        """The hardened stream's gate, ahead of the ACK: True when ``seq``
        ends here. A duplicate within the re-ACK budget passes on, to be
        re-ACKed and counted like any other duplicate."""
        window = REPLAY_WINDOW
        if seq < self._expected - window:
            # Ancient replay: do NOT re-ack — the re-ACK is exactly the
            # amplification a replay flood is after.
            self.replayed_frames += 1
            self._abuse("replay")
            return True
        if seq >= self._expected + window:
            # Far-future seq: buffering it would let an attacker grow
            # the out-of-order buffer without bound.
            self.horizon_drops += 1
            self._abuse("horizon")
            return True
        if seq < self._expected or seq in self._held:
            # In-window duplicate: re-ACK (lost-ACK recovery), but on a
            # budget so a duplicate firehose cannot mint ACK traffic.
            if self._dup_ack_bucket is None:
                self._dup_ack_bucket = _Bucket(DUP_ACK_RATE, DUP_ACK_BURST, self._clock.now())
            if self._dup_ack_bucket.try_take(self._clock.now()):
                return False
            self.suppressed_dup_acks += 1
            self._abuse("dup-ack")
            self.duplicate_frames += 1
            return True
        return False

    def _advance(self, deliver: Callable[[Frame], None]) -> None:
        """``_expected`` just moved: deliver the buffered successors it
        reaches (ordered), each seq consumed before its frame is delivered,
        or step past the seqs delivered early (not)."""
        if self._ordered:
            pending = self._pending
            while self._expected in pending:
                frame = pending.pop(self._expected)
                self._expected = frame.seq + 1
                self.delivered_frames += 1
                deliver(frame)
            return
        held = self._held
        while self._expected in held:
            held.discard(self._expected)
            self._expected += 1

    def _make_ack(self, seqs: Sequence[int]) -> Frame:
        self.ack_frames_sent += 1
        return Frame(_ACK, self._ack_source, encode_ack(seqs), self._channel)

    def close(self) -> None:
        """The stream is being discarded: no ACK may leave for it later."""
        self._ack_wakeup.close()

    def _flush_due(self, now: float) -> Optional[float]:
        if self._ack_due is not None and self._ack_due <= now:
            self.flush_acks()
        return self._ack_due

    def flush_acks(self) -> None:
        """Emit one merged ACK frame covering every pending seq."""
        for ack in self.take_pending_acks():
            self._emit_ack(ack)

    def take_pending_acks(self) -> List[Frame]:
        """Drain pending coalesced ACKs for piggybacking.

        Returns zero or one merged ACK frame. The caller takes ownership of
        getting it to the peer (e.g. inside an outbound batch); the flush
        deadline is forgotten so the seqs are not acked twice.
        """
        self._ack_due = None
        if not self._pending_acks:
            return []
        seqs = sorted(self._pending_acks)
        self._pending_acks.clear()
        return [self._make_ack(seqs)]

    @property
    def pending_ack_count(self) -> int:
        return len(self._pending_acks)

    def _abuse(self, reason: str) -> None:
        if self._on_abuse is not None:
            self._on_abuse(reason)


__all__ = [
    "ACK_COALESCE_MAX_PENDING",
    "RetransmitPolicy",
    "ACK_RATE",
    "ACK_BURST",
    "REPLAY_WINDOW",
    "DUP_ACK_RATE",
    "DUP_ACK_BURST",
    "ReliableSender",
    "ReliableReceiver",
    "encode_ack",
    "decode_ack",
]
