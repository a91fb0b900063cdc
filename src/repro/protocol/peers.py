"""One :class:`Peer` per remote container, in one table.

A source id is whatever a frame declares. Everything a container keeps per
peer — the resolved address, both stream pairs, the admission state, the
abuse log, the epoch — lives on that id's one Peer. :class:`Peers` keeps
known peers in one dict, never evicted, and strangers in one LRU of at most
:data:`MAX_STRANGERS`: past the cap the least recently used stranger goes,
with everything it held. The container's directory is the table (§3: the
container "acts as a proxy/cache"): it decides who is known, and promotes a
stranger it learns later with its streams intact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Strangers kept at once: ids nobody announced, and the ``@host:port``
#: addresses undecodable datagrams are scored under.
MAX_STRANGERS = 256


class Peer:
    """Everything this container holds about one remote container."""

    __slots__ = ("id", "address", "routed", "epoch", "sender", "receiver",
                 "tcp_sender", "tcp_receiver", "admission", "abuse_logged")

    def __init__(self, peer_id: str):
        self.id = peer_id
        #: Valid while ``routed`` is the directory revision it was resolved
        #: under (``Directory.route``).
        self.address = None
        self.routed = -1
        #: The ``reliable.deliver`` probe keys on it: a restarted peer
        #: legitimately reuses sequence numbers.
        self.epoch = 0
        self.sender = self.receiver = None  # the reliable stream pair
        self.tcp_sender = self.tcp_receiver = None  # the TCP-modelled pair (E5)
        self.admission = None  # ingress buckets, misbehaviour score, quarantine
        self.abuse_logged: Dict[str, float] = {}  # reason -> when last logged

    def close(self) -> None:
        """Drop both stream pairs: wake-ups disarmed, every unacknowledged
        reliable frame handed to the stream's failure callback."""
        sender, receiver, tcp_sender = self.sender, self.receiver, self.tcp_sender
        self.sender = self.receiver = self.tcp_sender = self.tcp_receiver = None
        if receiver is not None:
            receiver.close()
        if tcp_sender is not None:
            tcp_sender.wakeup.close()
        if sender is not None:
            sender.close()

    def reset(self, events) -> None:
        """The peer died or restarted: its streams start over under a new
        epoch, and ``events`` (the event manager) drops its subscriptions."""
        self.epoch += 1
        self.close()
        events.on_subscriber_down(self.id)


class Peers:
    """The peer table. :meth:`knows` decides who is known: nobody, in a
    table of its own; the directory overrides it."""

    def __init__(self) -> None:
        #: Known peers by id; per-frame paths read it first.
        self.known: Dict[str, Peer] = {}
        #: Strangers, least recently used first.
        self._strangers: Dict[str, Peer] = {}

    def knows(self, peer_id: str) -> bool:
        return False

    def peer(self, peer_id: str) -> Peer:
        """The one Peer for ``peer_id``, made at its first use."""
        peer = self.find(peer_id)
        if peer is None:
            peer = Peer(peer_id)
            if self.knows(peer_id):
                self.known[peer_id] = peer
                return peer
            strangers = self._strangers
            strangers[peer_id] = peer
            if len(strangers) > MAX_STRANGERS:
                oldest = strangers.pop(next(iter(strangers)))
                if self.knows(oldest.id):  # routed through a zone summary since
                    self.known[oldest.id] = oldest
                else:
                    oldest.close()
        return peer

    def find(self, peer_id: str) -> Optional[Peer]:
        """The Peer for ``peer_id``, if any; a stranger found counts as used."""
        peer = self.known.get(peer_id)
        if peer is None:
            peer = self._strangers.pop(peer_id, None)
            if peer is not None:
                self._strangers[peer_id] = peer
        return peer

    def promote(self, peer_id: str) -> None:
        """``peer_id`` is known from now on, with whatever it holds."""
        peer = self._strangers.pop(peer_id, None)
        if peer is not None:
            self.known[peer_id] = peer

    def peers(self) -> List[Peer]:
        """Every Peer: the known ones, then strangers oldest first."""
        return [*self.known.values(), *self._strangers.values()]


__all__ = ["Peer", "Peers", "MAX_STRANGERS"]
