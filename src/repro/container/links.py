"""Per-peer reliable messaging links.

Every pair of containers shares one ordered reliable stream (events, remote
invocations, subscriptions and file control all ride it), created lazily in
each direction. A second, TCP-modelled stream exists purely so experiment E5
can map events "over TCP" and compare.

Both pairs live on the peer's :class:`~repro.protocol.peers.Peer`, which
the caller hands in. Sans-io: the managers emit frames through the container
and keep one wake-up per stream, armed no later than its earliest retransmit
deadline (:class:`~repro.util.wakeup.Wakeup`), on the runtime's timer service.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from repro.protocol.frames import Frame, MessageKind
from repro.protocol.peers import Peer
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

SendToPeer = Callable[[Peer, Frame], None]  # (destination peer, frame)
PeerFailure = Callable[[Peer, Frame], None]  # (peer, frame that gave up)
PeerSlow = Callable[[Peer, Frame], None]  # (peer, frame shed by bounded backlog)
PeerAbuse = Callable[[Peer, str], None]  # (peer, defense that fired)

_ACK = MessageKind.ACK
_NACK = MessageKind.NACK


def _ignore(*_args) -> None:
    """A callback nobody asked for."""


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
    """Opens and feeds the :class:`ReliableSender`/:class:`ReliableReceiver`
    pair of each remote container, held on its :class:`Peer`.

    Everything a stream needs is bound when it opens — its emit callables
    (``partial(send_to_peer, peer)``), its wake-up, which the sender holds
    to every first transmission's deadline — so a send is one attribute
    read and the sender's own work, and a received frame one attribute read
    and the receiver's. Every callback is handed the :class:`Peer`.
    """

    def __init__(
        self,
        clock: Clock,
        timers,
        local: str,
        send_to_peer: SendToPeer,
        deliver: Callable[[Frame], None],  # a reliable frame ready for dispatch
        on_peer_failure: PeerFailure = _ignore,
        policy: Optional[RetransmitPolicy] = None,
        ack_delay: float = 0.0,
        ack_max_pending: int = 64,
        on_peer_slow: PeerSlow = _ignore,
        hardening: Optional[ReliabilityHardening] = None,
        on_peer_abuse: PeerAbuse = _ignore,
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

    def set_hardening(self, hardening: ReliabilityHardening, peers: Iterable[Peer]) -> None:
        """Arm (or swap) abuse defenses on every future stream and on the
        open streams of ``peers`` — how ``SimRuntime.harden_reliability``
        retrofits a running fleet."""
        self._hardening = hardening
        for peer in peers:
            for stream in (peer.sender, peer.receiver):
                if stream is not None:
                    stream._hardening = hardening

    # -- sending ---------------------------------------------------------------
    def send(self, peer: Peer, kind: MessageKind, payload: bytes) -> int:
        """Reliably send ``payload`` to ``peer``; returns the stream seq."""
        sender = peer.sender
        if sender is None:
            sender = self._open_sender(peer)
        return sender.send(kind, payload)

    # -- inbound frames ----------------------------------------------------------
    def on_frame(self, frame: Frame, peer: Peer) -> bool:
        """Feed a frame from ``peer`` that may belong to the reliable channel.

        Returns True when consumed (ACKs and duplicate suppression happen
        here; fresh data frames are passed to ``deliver``).
        """
        if frame.channel != RELIABLE_CHANNEL:
            return False
        kind = frame.kind
        if kind == _ACK:
            sender = peer.sender
            if sender is not None:
                sender.on_ack_frame(frame)
            return True
        if kind == _NACK:
            # A NACK names *our* stream to the peer: it is an explicit
            # retransmit request, handled by the send side. Rare, and an RTO
            # capped below the first one moves a deadline earlier: re-read.
            sender = peer.sender
            if sender is not None:
                sender.on_nack_frame(frame)
                _reread(sender.wakeup, sender)
            return True
        receiver = peer.receiver
        if receiver is None:
            receiver = self._open_receiver(peer)
        receiver.on_frame(frame)
        return True

    # -- internals -----------------------------------------------------------
    def _open_sender(self, peer: Peer) -> ReliableSender:
        sender = peer.sender = ReliableSender(
            clock=self._clock,
            source=self._local,
            channel=RELIABLE_CHANNEL,
            emit=partial(self._send_to_peer, peer),
            on_failure=lambda seq, frame, p=peer: self._on_peer_failure(p, frame),
            policy=self._policy,
            on_overflow=partial(self._on_peer_slow, peer),
            hardening=self._hardening,
            on_abuse=partial(self._on_peer_abuse, peer),
        )
        sender.wakeup = _stream_wakeup(self._clock, self._timers, sender)
        return sender

    def _open_receiver(self, peer: Peer) -> ReliableReceiver:
        receiver = peer.receiver = ReliableReceiver(
            source=peer.id,
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
            on_abuse=partial(self._on_peer_abuse, peer),
        )
        return receiver


class TcpLinks:
    """Opens and feeds the TCP-modelled stream pair (the §4.2 baseline,
    experiment E5) of each remote container, held on its :class:`Peer`."""

    def __init__(
        self,
        clock: Clock,
        timers,
        local: str,
        send_to_peer: SendToPeer,
        deliver: Callable[[str, bytes], None],  # (peer id, message payload)
    ):
        self._clock = clock
        self._timers = timers
        self._local = local
        self._send_to_peer = send_to_peer
        self._deliver = deliver

    def send(self, peer: Peer, payload: bytes) -> None:
        sender = peer.tcp_sender
        if sender is None:
            sender = peer.tcp_sender = TcpLikeSender(
                clock=self._clock,
                source=self._local,
                channel=TCP_CHANNEL,
                emit=partial(self._send_to_peer, peer),
            )
            sender.wakeup = _stream_wakeup(self._clock, self._timers, sender)
        sender.send(payload)
        _reread(sender.wakeup, sender)

    def on_frame(self, frame: Frame, peer: Peer) -> bool:
        if frame.channel != TCP_CHANNEL:
            return False
        if frame.kind in (MessageKind.STREAM_SYNACK, MessageKind.STREAM_ACK):
            sender = peer.tcp_sender
            if sender is not None:
                sender.on_frame(frame)
                _reread(sender.wakeup, sender)
            return True
        if frame.kind in (MessageKind.STREAM_SYN, MessageKind.STREAM_SEGMENT):
            receiver = peer.tcp_receiver
            if receiver is None:
                receiver = peer.tcp_receiver = TcpLikeReceiver(
                    source=self._local,
                    channel=TCP_CHANNEL,
                    emit=partial(self._send_to_peer, peer),
                    deliver=partial(self._deliver, peer.id),
                )
            receiver.on_frame(frame)
            return True
        return False


__all__ = ["ReliableLinks", "TcpLinks", "RELIABLE_CHANNEL", "TCP_CHANNEL"]
