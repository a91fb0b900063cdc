"""Per-peer reliable messaging links.

Every pair of containers shares one ordered reliable stream (events, remote
invocations, subscriptions and file control all ride it), created lazily in
each direction. A second, TCP-modelled stream exists purely so experiment E5
can map events "over TCP" and compare.

Sans-io: the managers emit frames through the container and keep one wake-up
per stream, armed no later than its earliest retransmit deadline
(:class:`~repro.util.wakeup.Wakeup`), on the runtime's timer service.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import (
    ReliabilityHardening,
    ReliableReceiver,
    ReliableSender,
    RetransmitPolicy,
)
from repro.protocol.tcp_like import TcpLikeReceiver, TcpLikeSender
from repro.util.clock import Clock
from repro.util.wakeup import Wakeup

#: Channel carrying the main reliable stream between two containers.
RELIABLE_CHANNEL = 1
#: Channel carrying the TCP-modelled stream (experiment E5 only).
TCP_CHANNEL = 2

#: Receivers kept for sources the directory does not know. The source id is
#: whatever a frame declares, so past this many the oldest such stream is
#: closed; a known peer's stream is never counted, never closed.
MAX_STRANGER_STREAMS = 256

SendToPeer = Callable[[str, Frame], None]  # (destination container, frame)
DeliverFrame = Callable[[Frame], None]  # reliable frame ready for dispatch
PeerFailure = Callable[[str, Frame], None]  # (peer, frame that gave up)
PeerSlow = Callable[[str, Frame], None]  # (peer, frame shed by bounded backlog)
PeerAbuse = Callable[[str, str], None]  # (peer, defense that fired)
KnownPeer = Callable[[str], bool]  # does the directory know this container?

_ACK = MessageKind.ACK
_NACK = MessageKind.NACK


def _stream_wakeup(clock: Clock, timers, sender) -> Wakeup:
    """The one wake-up of one stream: retransmit what is due, then sleep
    until the sender's earliest remaining deadline."""

    def due(now: float) -> Optional[float]:
        sender.poll(now)
        return sender.next_wakeup()

    return Wakeup(clock, timers, due)


def _reread(wakeup: Wakeup, sender) -> None:
    """Off the hot path (a NACK, the E5 TCP baseline): hold the wake-up to
    the sender's earliest deadline, wherever the operation moved it."""
    deadline = sender.next_wakeup()
    if deadline is not None:
        wakeup.need(deadline)


class ReliableLinks:
    """Manages one :class:`ReliableSender`/:class:`ReliableReceiver` pair
    per remote container.

    Everything a stream needs is bound when it opens — its emit callables
    (``partial(send_to_peer, peer)``), its wake-up, which the sender holds
    to every first transmission's deadline — so a send is one dict lookup
    and the sender's own work, and a received frame one dict lookup and the
    receiver's. ``known`` tells sources the directory knows from strangers;
    omitted, every source counts as known.
    """

    def __init__(
        self,
        clock: Clock,
        timers,
        local: str,
        send_to_peer: SendToPeer,
        deliver: DeliverFrame,
        on_peer_failure: Optional[PeerFailure] = None,
        policy: Optional[RetransmitPolicy] = None,
        ack_delay: float = 0.0,
        ack_max_pending: int = 64,
        on_peer_slow: Optional[PeerSlow] = None,
        hardening: Optional[ReliabilityHardening] = None,
        on_peer_abuse: Optional[PeerAbuse] = None,
        known: Optional[KnownPeer] = None,
    ):
        self._clock = clock
        self._timers = timers
        self._local = local
        self._send_to_peer = send_to_peer
        self._deliver = deliver
        self._on_peer_failure = on_peer_failure
        self._on_peer_slow = on_peer_slow
        self._policy = policy or RetransmitPolicy()
        self._ack_delay = ack_delay
        self._ack_max_pending = ack_max_pending
        self._hardening = hardening
        self._on_peer_abuse = on_peer_abuse
        self._known = known
        self._senders: Dict[str, ReliableSender] = {}
        self._receivers: Dict[str, ReliableReceiver] = {}
        #: Sources of receivers opened while ``known`` said no, oldest first
        #: (an insertion-ordered dict used as a set); made by the first one.
        self._strangers: Optional[Dict[str, None]] = None

    @property
    def hardening(self) -> Optional[ReliabilityHardening]:
        return self._hardening

    def set_hardening(self, hardening: ReliabilityHardening) -> None:
        """Arm (or swap) abuse defenses on every existing and future stream —
        how ``SimRuntime.harden_reliability`` retrofits a running fleet."""
        self._hardening = hardening
        for sender in self._senders.values():
            sender._hardening = hardening
        for receiver in self._receivers.values():
            receiver._hardening = hardening

    # -- sending ---------------------------------------------------------------
    def send(self, peer: str, kind: MessageKind, payload: bytes) -> int:
        """Reliably send ``payload`` to ``peer``; returns the stream seq."""
        sender = self._senders.get(peer)
        if sender is None:
            sender = self._open_sender(peer)
        return sender.send(kind, payload)

    def pending_to(self, peer: str) -> int:
        sender = self._senders.get(peer)
        return sender.unacked if sender else 0

    def pending_ack_frame(self, peer: str) -> Optional[Frame]:
        """Drain the coalesced ACKs waiting for ``peer``, as one merged ACK
        frame ready to piggyback on an outbound batch (None when idle)."""
        receiver = self._receivers.get(peer)
        if receiver is None:
            return None
        acks = receiver.take_pending_acks()
        return acks[0] if acks else None

    # -- inbound frames ----------------------------------------------------------
    def on_frame(self, frame: Frame) -> bool:
        """Feed a frame that may belong to the reliable channel.

        Returns True when consumed (ACKs and duplicate suppression happen
        here; fresh data frames are passed to ``deliver``).
        """
        if frame.channel != RELIABLE_CHANNEL:
            return False
        kind = frame.kind
        if kind == _ACK:
            sender = self._senders.get(frame.source)
            if sender is not None:
                sender.on_ack_frame(frame)
            return True
        if kind == _NACK:
            # A NACK names *our* stream to the peer: it is an explicit
            # retransmit request, handled by the send side. Rare, and an RTO
            # capped below the first one moves a deadline earlier: re-read.
            sender = self._senders.get(frame.source)
            if sender is not None:
                sender.on_nack_frame(frame)
                _reread(sender.wakeup, sender)
            return True
        receiver = self._receivers.get(frame.source)
        if receiver is None:
            receiver = self._open_receiver(frame.source)
        receiver.on_frame(frame)
        return True

    # -- peer lifecycle -----------------------------------------------------------
    def reset_peer(self, peer: str) -> None:
        """Forget stream state for a restarted/dead peer.

        Unacked frames are surfaced through the failure callback so their
        owners (event queues, pending calls) can react.
        """
        sender = self._senders.pop(peer, None)
        receiver = self._receivers.pop(peer, None)
        if receiver is not None:
            receiver.close()
            if self._strangers:
                self._strangers.pop(peer, None)
        if sender is None:
            return
        sender.wakeup.close()
        if self._on_peer_failure is not None:
            for frame in sender.outstanding():
                self._on_peer_failure(peer, frame)

    def peers(self):
        return sorted(set(self._senders) | set(self._receivers))

    # -- internals -----------------------------------------------------------
    def _open_sender(self, peer: str) -> ReliableSender:
        sender = ReliableSender(
            clock=self._clock,
            source=self._local,
            channel=RELIABLE_CHANNEL,
            emit=partial(self._send_to_peer, peer),
            on_failure=lambda seq, frame, p=peer: self._peer_failed(p, frame),
            policy=self._policy,
            on_overflow=partial(self._peer_slow, peer),
            hardening=self._hardening,
            on_abuse=partial(self._peer_abuse, peer),
        )
        sender.wakeup = _stream_wakeup(self._clock, self._timers, sender)
        self._senders[peer] = sender
        return sender

    def _open_receiver(self, peer: str) -> ReliableReceiver:
        receiver = ReliableReceiver(
            source=peer,
            channel=RELIABLE_CHANNEL,
            emit_ack=partial(self._send_to_peer, peer),
            deliver=self._deliver,
            ordered=True,
            ack_source=self._local,
            ack_delay=self._ack_delay,
            timers=self._timers,
            max_pending_acks=self._ack_max_pending,
            clock=self._clock,
            hardening=self._hardening,
            on_abuse=partial(self._peer_abuse, peer),
        )
        self._receivers[peer] = receiver
        if self._known is not None and not self._known(peer):
            self._note_stranger(peer)
        return receiver

    def _note_stranger(self, peer: str) -> None:
        """``peer`` opened a stream unannounced. Past the cap, close the
        oldest stranger's streams — unless the directory has learned it
        since, in which case it is a peer now and only stops being counted."""
        strangers = self._strangers
        if strangers is None:
            strangers = self._strangers = {}
        strangers[peer] = None
        while len(strangers) > MAX_STRANGER_STREAMS:
            oldest = next(iter(strangers))
            del strangers[oldest]
            if not self._known(oldest):
                self.reset_peer(oldest)

    def _peer_failed(self, peer: str, frame: Frame) -> None:
        if self._on_peer_failure is not None:
            self._on_peer_failure(peer, frame)

    def _peer_abuse(self, peer: str, reason: str) -> None:
        if self._on_peer_abuse is not None:
            self._on_peer_abuse(peer, reason)

    def _peer_slow(self, peer: str, frame: Frame) -> None:
        if self._on_peer_slow is not None:
            self._on_peer_slow(peer, frame)


class TcpLinks:
    """Per-peer TCP-modelled streams (the §4.2 baseline, experiment E5)."""

    def __init__(
        self,
        clock: Clock,
        timers,
        local: str,
        send_to_peer: SendToPeer,
        deliver: Callable[[str, bytes], None],  # (peer, message payload)
        rto: float = 0.2,
    ):
        self._clock = clock
        self._timers = timers
        self._local = local
        self._send_to_peer = send_to_peer
        self._deliver = deliver
        self._rto = rto
        self._senders: Dict[str, TcpLikeSender] = {}
        self._receivers: Dict[str, TcpLikeReceiver] = {}
        self._wakeups: Dict[str, Wakeup] = {}

    def send(self, peer: str, payload: bytes) -> None:
        sender = self._sender_for(peer)
        sender.send(payload)
        _reread(self._wakeups[peer], sender)

    def on_frame(self, frame: Frame) -> bool:
        if frame.channel != TCP_CHANNEL:
            return False
        peer = frame.source
        if frame.kind in (MessageKind.STREAM_SYNACK, MessageKind.STREAM_ACK):
            sender = self._senders.get(peer)
            if sender is not None:
                sender.on_frame(frame)
                _reread(self._wakeups[peer], sender)
            return True
        if frame.kind in (MessageKind.STREAM_SYN, MessageKind.STREAM_SEGMENT):
            self._receiver_for(peer).on_frame(frame)
            return True
        return False

    def reset_peer(self, peer: str) -> None:
        self._receivers.pop(peer, None)
        if self._senders.pop(peer, None) is not None:
            self._wakeups.pop(peer).close()

    # -- internals -----------------------------------------------------------
    def _sender_for(self, peer: str) -> TcpLikeSender:
        sender = self._senders.get(peer)
        if sender is None:
            sender = TcpLikeSender(
                clock=self._clock,
                source=self._local,
                channel=TCP_CHANNEL,
                emit=lambda frame, p=peer: self._send_to_peer(p, frame),
                rto=self._rto,
            )
            self._senders[peer] = sender
            self._wakeups[peer] = _stream_wakeup(self._clock, self._timers, sender)
        return sender

    def _receiver_for(self, peer: str) -> TcpLikeReceiver:
        receiver = self._receivers.get(peer)
        if receiver is None:
            receiver = TcpLikeReceiver(
                source=self._local,
                channel=TCP_CHANNEL,
                emit=lambda frame, p=peer: self._send_to_peer(p, frame),
                deliver=lambda payload, p=peer: self._deliver(p, payload),
            )
            self._receivers[peer] = receiver
        return receiver


__all__ = ["ReliableLinks", "TcpLinks", "RELIABLE_CHANNEL", "TCP_CHANNEL"]
