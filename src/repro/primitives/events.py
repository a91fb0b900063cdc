"""The Event primitive (§4.2).

Like variables, events follow publish/subscribe — but delivery to every
subscriber is **guaranteed**. The publisher's container tracks subscribers
explicitly and pushes each event down a per-subscriber reliable stream:
UDP + application-layer ack/retransmit, the mapping §4.2 argues for over
TCP (experiment E5 compares the two streams).

Latency is the design driver: event dispatch runs at the highest
application priority in the pluggable scheduler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.encoding.schema import parse_type
from repro.encoding.types import DataType
from repro.observability.metrics import Counter
from repro.primitives import wire
from repro.primitives.binding import UNBOUND, PayloadBindings
from repro.primitives.host import PrimitiveHost
from repro.protocol.frames import Frame, MessageKind
from repro.util.errors import ConfigurationError
from repro.util.wakeup import Wakeup

OnEvent = Callable[[Any, float], None]  # (value, publisher timestamp)

#: A (name, provider) the decoder cache holds nothing for yet.
_UNRESOLVED = object()

#: Events held at once for one provider whose record does not (yet) offer
#: their name. A (re)``provide`` announces on the provider's next loop turn,
#: so what needs holding is what it raises within one turn and one link
#: delay of a provide; past this the oldest held event is dropped. It also
#: bounds what a live container that never offers the name can make us keep.
HELD_PER_PROVIDER = 64


@dataclass
class EventPublication:
    """Publisher-side handle for one named event."""

    name: str
    datatype: Optional[DataType]  # None for pure signals without payload
    service: str
    _manager: "EventManager" = field(repr=False, default=None)
    #: container ids subscribed to this event
    subscribers: Set[str] = field(default_factory=set)
    raised_events: int = 0
    #: Resolved once at ``provide``: the value encoder bound to ``datatype``
    #: (None for a pure signal).
    _encode: Optional[Callable[[Any], bytes]] = field(repr=False, default=None)

    def raise_event(self, value: Any = None) -> None:
        """Publish one occurrence to every subscriber, reliably."""
        self._manager._raise(self, value)

    def withdraw(self) -> None:
        self._manager.withdraw(self.name)


@dataclass
class EventSubscription:
    """Subscriber-side handle for one named event."""

    name: str
    on_event: OnEvent
    service: str
    _manager: "EventManager" = field(repr=False, default=None)
    received_events: int = 0
    active: bool = True

    def cancel(self) -> None:
        self._manager.unsubscribe(self)


class EventManager:
    """Owns both sides of the event primitive for one container."""

    def __init__(self, host: PrimitiveHost):
        self._host = host
        self._publications: Dict[str, EventPublication] = {}
        self._subscriptions: Dict[str, List[EventSubscription]] = {}
        #: remote event names we are subscribed to (sent EVENT_SUBSCRIBE for)
        self._remote_subscribed: Set[str] = set()
        #: Remote interest per event name, owned by the *container* so a
        #: service restart or hot upgrade does not lose its subscribers —
        #: the subscription is between containers (§3), not service
        #: instances. Seeds each (re-)publication's subscriber set.
        self._remote_interest: Dict[str, Set[str]] = {}
        # Everything an event needs from the host, resolved once: the
        # collaborators are fixed for the container's life (their *state* —
        # tracer.enabled, probes.enabled — is read live, per event).
        self._id = host.id
        self._clock = host.clock
        self._codec = host.codec
        self._tracer = host.tracer
        self._probes = host.probes
        self._publishes_counter = host.metrics.counter("event_publishes")
        self._deliveries_counter = host.metrics.counter("event_deliveries")
        # (name, provider) -> the provider's datatype as a bound decoder for
        # the rx path (None for a signal without a payload); valid only
        # while the directory revision is unchanged and no local publication
        # has been (re)provided or withdrawn since.
        self._decoder_cache: Dict[tuple, Optional[Callable[[bytes], Any]]] = {}
        self._decoder_cache_rev = -1
        # (provider, encoded name) -> its binding, dropped exactly when
        # _decoder_cache is; the last one found, and its provider, are
        # tried first.
        self._bindings = PayloadBindings(
            self._subscriptions, self._datatype_of, self._codec.name
        )
        self._last_binding = UNBOUND
        self._last_provider = ""
        #: Provider -> the subscribed events it sent before its record
        #: offered them, oldest first, as (deadline, message, trace context).
        self._held: Dict[str, Deque[tuple]] = {}
        #: How long an event is held: by then the provider has announced
        #: again or been declared dead.
        self._hold_for = host.config.announce_interval + host.config.liveness_timeout
        self._hold_wakeup = Wakeup(self._clock, host.timers, self._expire_held)

    @cached_property
    def _unoffered_counter(self) -> Counter:
        """Resolved at the first unoffered event: a container that never
        receives one, nearly every container, registers none."""
        return self._host.metrics.counter("unoffered_events")

    # -- publisher side -----------------------------------------------------
    def provide(
        self, name: str, datatype: Optional[DataType] = None, service: str = ""
    ) -> EventPublication:
        if name in self._publications:
            raise ConfigurationError(f"event {name!r} already provided here")
        publication = EventPublication(
            name=name,
            datatype=datatype,
            service=service,
            _manager=self,
            _encode=self._codec.encoder(datatype) if datatype is not None else None,
        )
        # Restore interest recorded before (or between) provisions.
        publication.subscribers = set(self._remote_interest.get(name, set()))
        if self._subscriptions.get(name):
            publication.subscribers.add(self._host.id)
        self._publications[name] = publication
        self._drop_bindings()
        self._host.announce_soon()
        return publication

    def withdraw(self, name: str) -> None:
        if self._publications.pop(name, None) is not None:
            self._drop_bindings()
            self._host.announce_soon()

    def withdraw_service(self, service: str) -> None:
        for name in [n for n, p in self._publications.items() if p.service == service]:
            del self._publications[name]
        self._drop_bindings()
        self._host.announce_soon()

    def offers(self) -> List[dict]:
        return [
            {
                "name": p.name,
                "datatype": p.datatype.describe() if p.datatype else "",
            }
            for p in sorted(self._publications.values(), key=lambda p: p.name)
        ]

    def _raise(self, publication: EventPublication, value: Any) -> None:
        tracer = self._tracer
        now = self._clock.now()
        publication.raised_events += 1
        self._publishes_counter.inc()
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "event.publish", publication.name, attrs={"timestamp": now}
            )
        if tracer.enabled:
            span = tracer.start_span(
                f"event:{publication.name}", "event.publish",
                subscribers=len(publication.subscribers),
            )
            context = tracer.context_of(span)
        else:
            span = context = None  # skip span-name formatting on the hot path
        encode = publication._encode
        payload = wire.encode_event_message(
            {
                "name": publication.name,
                "timestamp": now,
                "value": encode(value) if encode is not None else b"",
            },
            context,
        )
        send_reliable = self._host.send_reliable
        with tracer.activate(context):
            # Local subscribers first: same-container delivery never hits
            # the wire.
            self._dispatch_local(publication.name, value, now)
            for peer in sorted(publication.subscribers):
                if peer == self._id:
                    continue
                send_reliable(peer, MessageKind.EVENT, payload)
        tracer.finish(span)

    # -- subscriber side ----------------------------------------------------
    def subscribe(
        self, name: str, on_event: OnEvent, service: str = ""
    ) -> EventSubscription:
        subscription = EventSubscription(
            name=name, on_event=on_event, service=service, _manager=self
        )
        self._subscriptions.setdefault(name, []).append(subscription)
        # Local publisher: nothing to negotiate.
        local = self._publications.get(name)
        if local is not None:
            local.subscribers.add(self._host.id)
        self._sync_remote_subscription(name)
        return subscription

    def unsubscribe(self, subscription: EventSubscription) -> None:
        subscription.active = False
        subs = self._subscriptions.get(subscription.name, [])
        if subscription in subs:
            subs.remove(subscription)
        if not subs:
            self._subscriptions.pop(subscription.name, None)
            local = self._publications.get(subscription.name)
            if local is not None:
                local.subscribers.discard(self._host.id)
            if subscription.name in self._remote_subscribed:
                self._remote_subscribed.discard(subscription.name)
                self._send_subscribe_message(subscription.name, subscribe=False)

    def unsubscribe_service(self, service: str) -> None:
        for subs in list(self._subscriptions.values()):
            for sub in [s for s in subs if s.service == service]:
                self.unsubscribe(sub)

    # -- directory hooks ------------------------------------------------------
    def on_provider_up(self, container: str) -> None:
        """A container (re)appeared or changed its offers: (re)issue
        subscriptions it provides, and deliver the events held for it that
        it now offers."""
        record = self._host.directory.record(container)
        if record is None:
            return
        for name in self._subscriptions:
            if name in record.events:
                self._send_subscribe_to(container, name)
        # In arrival order; what it still does not offer waits on.
        for entry in self._held.pop(container, ()):
            if entry[1]["name"] in record.events:
                self.on_event_payload(container, entry[1], entry[2])
            else:
                self._held.setdefault(container, deque()).append(entry)

    def on_subscriber_down(self, container: str) -> None:
        """A container died or restarted: remove it from every
        publication's subscriber set, and drop the events held for it."""
        for publication in self._publications.values():
            publication.subscribers.discard(container)
        for interested in self._remote_interest.values():
            interested.discard(container)
        held = self._held.pop(container, None)
        if held:
            self._unoffered_counter.inc(len(held))

    def evict_subscriber(self, container: str) -> bool:
        """Drop a *live* but too-slow subscriber from every publication.

        The backpressure hook: guaranteed delivery means the publisher may
        never silently drop an event, so when the reliable backlog to a
        peer overflows, the peer loses its subscription instead. It learns
        about the provider again from the next announce and can
        re-subscribe once healthy. Returns True when anything was removed.
        """
        evicted = False
        for publication in self._publications.values():
            if container in publication.subscribers:
                publication.subscribers.discard(container)
                evicted = True
        for interested in self._remote_interest.values():
            if container in interested:
                interested.discard(container)
                evicted = True
        if evicted:
            self._host.metrics.counter("slow_subscriber_evictions").inc()
        return evicted

    # -- frame input -----------------------------------------------------------
    def on_event_frame(self, frame: Frame) -> None:
        """One EVENT. An untraced payload that starts with a bound
        (provider, name) prefix and has that binding's exact length is
        decoded with one prefix compare and one ``unpack_from``; every other
        payload, and one whose value length is not its type's, is decoded
        whole by :func:`wire.decode_event_message`, the reference and the
        only path for traced payloads, variable-size types, the JSON codec
        and malformed bytes."""
        payload = frame.payload
        provider = frame.source
        revision = self._host.directory.revision
        if revision != self._decoder_cache_rev:
            self._drop_bindings()
            self._decoder_cache_rev = revision
        binding = self._last_binding
        if provider != self._last_provider or not payload.startswith(binding.prefix):
            binding = self._bindings.at(provider, payload, 0, len(payload))
            self._last_binding = binding
            self._last_provider = provider
        if len(payload) == binding.size and not self._tracer.enabled:
            timestamp, length, value = binding.read(payload, binding.skip)
            # An empty value is None whatever the type (on_event_payload).
            if length == binding.value_size and length:
                self._dispatch_local(binding.name, value, timestamp)
                return
        doc, trace = wire.decode_event_message(payload)
        self.on_event_payload(provider, doc, trace)

    def on_event_payload(self, provider: str, doc: dict, trace=None) -> None:
        """A decoded EVENT from ``provider``. An event whose provider does
        not offer it is never decoded with another type than the sender's
        declared one: it is held until the provider's offer arrives
        (:meth:`_hold`), or dropped and counted (``unoffered_events``)."""
        name = doc["name"]
        revision = self._host.directory.revision
        if revision != self._decoder_cache_rev:
            self._drop_bindings()
            self._decoder_cache_rev = revision
        key = (name, provider)
        decode = self._decoder_cache.get(key, _UNRESOLVED)
        if decode is _UNRESOLVED:
            if not self._offers(name, provider):
                self._hold(provider, doc, trace)
                return
            datatype = self._datatype_of(name, provider)
            decode = self._decoder_cache[key] = (
                self._codec.decoder(datatype) if datatype is not None else None
            )
        value = None
        if decode is not None and doc["value"]:
            value = decode(doc["value"])
        tracer = self._tracer
        if not tracer.enabled:
            self._dispatch_local(name, value, doc["timestamp"])
            return
        span = tracer.start_span(
            f"event:{name}", "event.deliver", parent=trace, provider=provider
        )
        with tracer.activate(tracer.context_of(span)):
            self._dispatch_local(name, value, doc["timestamp"])
        tracer.finish(span)

    def on_subscribe_frame(self, frame: Frame) -> None:
        doc = wire.decode(wire.EVENT_SUBSCRIBE_SCHEMA, frame.payload)
        name, subscriber = doc["name"], doc["subscriber"]
        # Interest is container-level state: record it even while no
        # publication exists (the provider service may be restarting).
        if doc["subscribe"]:
            self._remote_interest.setdefault(name, set()).add(subscriber)
        else:
            self._remote_interest.get(name, set()).discard(subscriber)
        publication = self._publications.get(name)
        if publication is None:
            return
        if doc["subscribe"]:
            publication.subscribers.add(subscriber)
        else:
            publication.subscribers.discard(subscriber)

    # -- held events ---------------------------------------------------------------
    def _hold(self, provider: str, doc: dict, trace) -> None:
        """An event ``provider`` does not offer. A live container whose
        record does not (yet) offer a subscribed name may have raised it
        just after ``provide``: the event waits, at most
        :data:`HELD_PER_PROVIDER` per provider (past it the oldest goes),
        until its offers change (:meth:`on_provider_up`), it dies or
        restarts (:meth:`on_subscriber_down`) or ``_hold_for`` passes.
        Anything else is dropped at once. Every drop is counted in
        ``unoffered_events``."""
        record = self._host.directory.record(provider)
        if record is None or not record.alive or doc["name"] not in self._subscriptions:
            self._unoffered_counter.inc()
            return
        held = self._held.setdefault(provider, deque())
        if len(held) == HELD_PER_PROVIDER:
            held.popleft()
            self._unoffered_counter.inc()
        deadline = self._clock.now() + self._hold_for
        held.append((deadline, doc, trace))
        self._hold_wakeup.need(deadline)

    def _expire_held(self, now: float) -> Optional[float]:
        """Drop the held events whose deadline passed; the earliest
        remaining deadline."""
        earliest = None
        for provider, held in list(self._held.items()):
            while held and held[0][0] <= now:
                held.popleft()
                self._unoffered_counter.inc()
            if not held:
                del self._held[provider]
            elif earliest is None or held[0][0] < earliest:
                earliest = held[0][0]
        return earliest

    # -- internals ---------------------------------------------------------------
    def _dispatch_local(self, name: str, value: Any, timestamp: float) -> None:
        live = self._subscriptions.get(name)
        if not live:
            return
        # Copy before delivering: an on_event callback may unsubscribe
        # (unsubscribing is the only thing that clears ``active``, and it
        # also leaves the list — so every listed subscription is active).
        subs = live.copy()
        self._deliveries_counter.inc(len(subs))
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "event.deliver",
                name,
                attrs={"timestamp": timestamp, "subscribers": len(subs)},
            )
        submit = self._host.submit
        for sub in subs:
            sub.received_events += 1
            submit("event", partial(sub.on_event, value, timestamp))

    def _offers(self, name: str, provider: str) -> bool:
        """Whether ``provider`` itself offers event ``name``: this
        container's own publication, or the provider's directory record."""
        if provider == self._id:
            return name in self._publications
        record = self._host.directory.record(provider)
        return record is not None and name in record.events

    def _datatype_of(self, name: str, provider: str) -> Optional[DataType]:
        """The type ``provider`` itself offers for ``name``; None for a
        signal without a payload or when it offers no such event. An event
        is decoded only with its sender's type, never with another
        provider's."""
        if provider == self._id:
            local = self._publications.get(name)
            return local.datatype if local is not None else None
        record = self._host.directory.record(provider)
        offer = record.events.get(name) if record is not None else None
        if offer is None or not offer["datatype"]:
            return None
        return parse_type(offer["datatype"])

    def _drop_bindings(self) -> None:
        """Forget every bound decoder and payload binding: on a directory
        revision change, a provide or a withdraw."""
        self._decoder_cache.clear()
        self._bindings.clear()
        self._last_binding = UNBOUND
        self._last_provider = ""

    def _sync_remote_subscription(self, name: str) -> None:
        providers = self._host.directory.providers_of_event(name)
        if not providers:
            return  # on_provider_up will catch the provider when it announces
        self._send_subscribe_message(name, subscribe=True)

    def _send_subscribe_message(self, name: str, subscribe: bool) -> None:
        for record in self._host.directory.providers_of_event(name):
            self._send_subscribe_to(record.container, name, subscribe)

    def _send_subscribe_to(self, container: str, name: str, subscribe: bool = True) -> None:
        if subscribe:
            self._remote_subscribed.add(name)
        payload = wire.encode(
            wire.EVENT_SUBSCRIBE_SCHEMA,
            {"name": name, "subscriber": self._host.id, "subscribe": subscribe},
        )
        self._host.send_reliable(container, MessageKind.EVENT_SUBSCRIBE, payload)


__all__ = ["EventManager", "EventPublication", "EventSubscription"]
