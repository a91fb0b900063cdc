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
_NACK = MessageKind.NACK


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


#: NACKs carry the same seq-list payload as selective ACKs.
encode_nack = encode_ack
decode_nack = decode_ack


@dataclass
class ReliabilityHardening:
    """Abuse-tolerance knobs for the reliable streams.

    ``enabled=False`` (the default) keeps the protocol byte- and
    behavior-identical to the seed. The object is deliberately *mutable*
    and shared by reference across every stream of a container, so
    ``SimRuntime.harden_reliability`` can arm defenses on a running fleet.

    Defenses, per (peer, channel) stream:

    - **NACK-storm suppression**: a token-bucket NACK budget per peer;
      exhausting it opens an exponentially growing penalty window during
      which that peer's NACKs are ignored (a NACK is a *request for work*
      — retransmission — so it is the cheapest amplification lever).
    - **ACK-flood rejection**: an ACK-frame budget per peer, plus
      rejection of ACKs for never-sent ("future") sequence numbers.
      Stale/duplicate ACKs are counted and ignored.
    - **Replay-window enforcement**: data seqs further than
      ``replay_window`` below the receiver's contiguous point are dropped
      *without re-acknowledgement* (re-ACKing ancient replays is the
      amplification an attacker wants), and seqs further than
      ``replay_window`` above it are dropped instead of buffered, which
      bounds the out-of-order buffer an attacker could otherwise grow
      without limit.
    """

    enabled: bool = False
    ack_rate: float = 500.0
    ack_burst: float = 128.0
    nack_rate: float = 20.0
    nack_burst: float = 8.0
    nack_penalty: float = 0.5
    nack_penalty_backoff: float = 2.0
    nack_penalty_max: float = 10.0
    #: Honest senders keep at most ``RetransmitPolicy.window`` (default 64)
    #: frames outstanding, so 256 never touches legitimate traffic — while
    #: every admitted-but-gap-stalled flood frame past it is dropped
    #: *unACKed*, bounding both the out-of-order buffer and the band-0 ACK
    #: amplification a seq-striding flood can mint on a shaped uplink.
    replay_window: int = 256
    #: Budget for re-ACKing in-window duplicates (lost-ACK recovery is
    #: legitimate; a replay firehose is not).
    dup_ack_rate: float = 50.0
    dup_ack_burst: float = 16.0

    def __post_init__(self) -> None:
        if min(self.ack_rate, self.nack_rate, self.dup_ack_rate) <= 0:
            raise ValueError("hardening rates must be positive")
        if min(self.ack_burst, self.nack_burst, self.dup_ack_burst) < 1:
            raise ValueError("hardening bursts must be >= 1")
        if self.nack_penalty <= 0 or self.nack_penalty_backoff < 1.0:
            raise ValueError("invalid nack penalty")
        if self.nack_penalty_max < self.nack_penalty:
            raise ValueError("invalid nack penalty cap")
        if self.replay_window < 1:
            raise ValueError("replay_window must be >= 1")


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
        Called with each frame that must go on the wire (first sends and
        retransmissions alike). The owner decides the destination address.
    on_failure:
        Called with ``(seq, frame)`` when a frame exhausts its retries — the
        container uses this to declare a subscriber dead.
    on_overflow:
        Called with the *unsequenced* frame when ``policy.max_backlog`` is
        set and the backlog is full — the slow-subscriber backpressure
        signal. The frame was never admitted to the stream (seq 0).
    hardening:
        Shared :class:`ReliabilityHardening`; abuse defenses apply only
        while ``hardening.enabled``.
    on_abuse:
        Called with a reason string (``"ack-flood"``, ``"future-ack"``,
        ``"stale-ack"``, ``"nack-flood"``, ``"stale-nack"``) each time a
        defense fires, so the owner can attribute abuse to the peer.

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
        emit: Callable[[Frame], None],
        on_failure: Optional[Callable[[int, Frame], None]] = None,
        policy: Optional[RetransmitPolicy] = None,
        on_overflow: Optional[Callable[[Frame], None]] = None,
        hardening: Optional[ReliabilityHardening] = None,
        on_abuse: Optional[Callable[[str], None]] = None,
    ):
        self._clock = clock
        self._source = source
        self._channel = channel
        self._emit = emit
        self._on_failure = on_failure
        self._on_overflow = on_overflow
        self._policy = policy or RetransmitPolicy()
        self._hardening = hardening
        self._on_abuse = on_abuse
        self._ack_bucket: Optional[_Bucket] = None
        self._nack_bucket: Optional[_Bucket] = None
        self._nack_ignore_until = 0.0
        self._nack_penalty = 0.0
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
        self.suppressed_nacks = 0
        self.stale_nacks = 0
        self.nack_retransmits = 0

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
        deadline = self._clock.now() + policy.initial_rto
        self._transmit(Frame(kind, self._source, payload, self._channel, seq, _RELIABLE), deadline)
        if self.wakeup is not None:
            self.wakeup.need(deadline)
        return seq

    def on_ack_frame(self, frame: Frame) -> None:
        """Feed an ACK frame received for this stream."""
        if frame.kind != _ACK:
            raise ProtocolError(f"not an ack frame: {frame!r}")
        hardening = self._hardening
        if hardening is not None and hardening.enabled:
            if self._ack_bucket is None:
                self._ack_bucket = _Bucket(
                    hardening.ack_rate, hardening.ack_burst, self._clock.now()
                )
            if not self._ack_bucket.try_take(self._clock.now()):
                self.suppressed_acks += 1
                self._abuse("ack-flood")
                return
        self.on_acked(decode_ack(frame.payload))

    def on_acked(self, seqs: Sequence[int]) -> None:
        in_flight = self._in_flight
        hardening = self._hardening
        if hardening is None or not hardening.enabled:
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

    def on_nack_frame(self, frame: Frame) -> None:
        """Feed a NACK frame: an explicit retransmit request from the peer.

        Each listed in-flight seq is retransmitted immediately (with its
        backoff state reset, as for a timer-driven retransmit). Seqs not in
        flight — already acked, never sent, or shed — are counted as stale.
        When hardening is enabled, a per-peer NACK budget applies; blowing
        it opens an exponentially growing penalty window during which every
        NACK from this peer is ignored outright.
        """
        if frame.kind != _NACK:
            raise ProtocolError(f"not a nack frame: {frame!r}")
        now = self._clock.now()
        hardening = self._hardening
        if hardening is not None and hardening.enabled:
            if now < self._nack_ignore_until:
                self.suppressed_nacks += 1
                self._abuse("nack-flood")
                return
            if self._nack_bucket is None:
                self._nack_bucket = _Bucket(
                    hardening.nack_rate, hardening.nack_burst, now
                )
            if not self._nack_bucket.try_take(now):
                self._nack_penalty = min(
                    hardening.nack_penalty
                    if self._nack_penalty == 0.0
                    else self._nack_penalty * hardening.nack_penalty_backoff,
                    hardening.nack_penalty_max,
                )
                self._nack_ignore_until = now + self._nack_penalty
                self.suppressed_nacks += 1
                self._abuse("nack-flood")
                return
        in_flight = self._in_flight
        policy = self._policy
        for seq in decode_nack(frame.payload):
            state = in_flight.get(seq)
            if state is None:
                self.stale_nacks += 1
                if hardening is not None and hardening.enabled:
                    self._abuse("stale-nack")
                continue
            resent, _, rto, retries = state
            rto = min(rto * policy.backoff, policy.max_rto)
            in_flight[seq] = (resent, now + rto, rto, retries)
            resent.flags |= _RETRANSMIT
            self.nack_retransmits += 1
            self.retransmitted_frames += 1
            self.retransmitted_bytes += len(resent.payload)
            self._emit(resent)

    def _abuse(self, reason: str) -> None:
        if self._on_abuse is not None:
            self._on_abuse(reason)

    def poll(self, now: Optional[float] = None) -> None:
        """Retransmit every frame whose deadline has passed."""
        if now is None:
            now = self._clock.now()
        in_flight = self._in_flight
        policy = self._policy
        expired = [(seq, st) for seq, st in in_flight.items() if st[1] <= now]
        for seq, (frame, _, rto, retries) in expired:
            if retries >= policy.max_retries:
                self.failed_frames += 1
                del in_flight[seq]
                if self._on_failure is not None:
                    self._on_failure(seq, frame)
                continue
            rto = min(rto * policy.backoff, policy.max_rto)
            in_flight[seq] = (frame, now + rto, rto, retries + 1)
            frame.flags |= _RETRANSMIT
            self.retransmitted_frames += 1
            self.retransmitted_bytes += len(frame.payload)
            self._emit(frame)
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
    def _transmit(self, frame: Frame, deadline: float) -> None:
        """First transmission, due for its first retransmit at ``deadline``
        (the clock read once by the caller, for every frame it sends); the
        caller then holds the wake-up, if any, to that deadline."""
        self._in_flight[frame.seq] = (frame, deadline, self._policy.initial_rto, 0)
        self.sent_frames += 1
        self._emit(frame)

    def _drain_backlog(self) -> None:
        backlog, in_flight, window = self._backlog, self._in_flight, self._policy.window
        if not backlog or len(in_flight) >= window:
            return
        deadline = self._clock.now() + self._policy.initial_rto
        while backlog and len(in_flight) < window:
            self._transmit(backlog.popleft(), deadline)
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
        max_pending_acks: int = 64,
        clock: Optional[Clock] = None,
        hardening: Optional[ReliabilityHardening] = None,
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
        self._hardening = hardening
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
        if frame.source != self._source or frame.channel != self._channel:
            raise ProtocolError(
                f"frame {frame!r} does not belong to stream "
                f"({self._source}, {self._channel})"
            )
        seq = frame.seq
        hardening = self._hardening
        if (
            hardening is not None
            and hardening.enabled
            and self._clock is not None
            and self._screened(seq, hardening)
        ):
            return
        # Always ack, even duplicates.
        if self._ack_delay > 0:
            pending_acks = self._pending_acks
            pending_acks.add(seq)
            self.coalesced_acks += 1
            if len(pending_acks) >= self._max_pending_acks:
                self.flush_acks()
            elif self._ack_due is None:
                self._ack_due = due = self._ack_clock.now() + self._ack_delay
                self._ack_wakeup.need(due)
        else:
            self._emit_ack(self._make_ack((seq,)))
        if seq == self._expected:
            self.delivered_frames += 1
            self._deliver(frame)
            self._expected = seq + 1
            if self._held:
                self._advance()
            return
        if seq < self._expected or seq in self._held:
            self.duplicate_frames += 1
            return
        if self._ordered:
            self._pending[seq] = frame
            return
        self._held.add(seq)
        self.delivered_frames += 1
        self._deliver(frame)

    def _screened(self, seq: int, hardening: ReliabilityHardening) -> bool:
        """The hardened stream's gate, ahead of the ACK: True when ``seq``
        ends here. A duplicate within the re-ACK budget passes on, to be
        re-ACKed and counted like any other duplicate."""
        window = hardening.replay_window
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
                self._dup_ack_bucket = _Bucket(
                    hardening.dup_ack_rate, hardening.dup_ack_burst, self._clock.now()
                )
            if self._dup_ack_bucket.try_take(self._clock.now()):
                return False
            self.suppressed_dup_acks += 1
            self._abuse("dup-ack")
            self.duplicate_frames += 1
            return True
        return False

    def _advance(self) -> None:
        """``_expected`` just moved: deliver the buffered successors it
        reaches (ordered), or step past the seqs delivered early (not)."""
        if self._ordered:
            pending = self._pending
            while self._expected in pending:
                frame = pending.pop(self._expected)
                self.delivered_frames += 1
                self._deliver(frame)
                self._expected = frame.seq + 1
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
    "RetransmitPolicy",
    "ReliabilityHardening",
    "ReliableSender",
    "ReliableReceiver",
    "encode_ack",
    "decode_ack",
    "encode_nack",
    "decode_nack",
]
