"""The Variable primitive (§4.1).

Best-effort transmission of structured samples over multicast. Properties
reproduced from the paper:

- publication/subscription by name, locations resolved by the container;
- loss tolerance: samples ride unreliable multicast, subscribers must cope;
- **validity QoS**: "the subscribed services can receive previous values as
  long as they are still valid" — :meth:`VariableSubscription.latest`
  returns the cached sample until its validity window closes;
- **timeout warning**: "the service container will warn of this timeout
  circumstance to the affected services" — ``on_timeout`` fires after
  ``VARIABLE_TIMEOUT_PERIODS`` nominal periods without a sample;
- **guaranteed initial value**: "the middleware has a mechanism that
  guarantees an initial exact value for the services that need it" — a
  unicast request/response retried until the first sample arrives;
- same-node fast path: local subscribers are served directly, the multicast
  emission still feeds remote ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.encoding.schema import parse_type
from repro.encoding.types import DataType
from repro.primitives import wire
from repro.primitives.host import PrimitiveHost
from repro.protocol.frames import Frame, MessageKind
from repro.simnet.addressing import GroupName, variable_group
from repro.util.errors import ConfigurationError

OnSample = Callable[[Any, float], None]  # (value, publisher timestamp)
OnTimeout = Callable[[str], None]  # (variable name)

#: Subscriber warns after this many nominal periods without a sample.
VARIABLE_TIMEOUT_PERIODS = 3.0


def _changed_substantially(old: Any, new: Any, deadband: float) -> bool:
    """True when ``new`` differs from ``old`` beyond the numeric deadband.

    Numeric leaves compare with ``abs(new - old) > deadband``; anything
    else (strings, bools, tags, shape changes) counts as changed on any
    inequality.
    """
    if isinstance(old, bool) or isinstance(new, bool):
        return old != new
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        return abs(new - old) > deadband
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return True
        return any(
            _changed_substantially(old[k], new[k], deadband) for k in old
        )
    if isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)):
        if len(old) != len(new):
            return True
        return any(
            _changed_substantially(a, b, deadband) for a, b in zip(old, new)
        )
    return old != new


@dataclass
class VariablePublication:
    """Publisher-side handle returned by :meth:`VariableManager.provide`."""

    name: str
    datatype: DataType
    validity: float
    period: float
    service: str
    _manager: "VariableManager" = field(repr=False, default=None)
    last_value: Any = None
    last_timestamp: float = 0.0
    published_samples: int = 0
    #: Resolved once at ``provide``: the value encoder bound to ``datatype``
    #: and the multicast group of ``name``.
    _encode: Callable[[Any], bytes] = field(repr=False, default=None)
    _group: GroupName = field(repr=False, default=None)

    def publish(self, value: Any) -> None:
        """Send one sample to every subscriber, local and remote."""
        self._manager._publish(self, value)

    def publish_on_change(self, value: Any, deadband: float = 0.0) -> bool:
        """Publish only on a *substantial change* (§4.1).

        With ``deadband == 0`` any inequality counts. A positive deadband
        applies to every numeric leaf of the value (recursively through
        structs/vectors): the sample is suppressed unless at least one
        numeric field moved by more than ``deadband``, or any non-numeric
        field changed at all. Returns whether a sample went out.

        The very first value always publishes.
        """
        if self.published_samples > 0 and not _changed_substantially(
            self.last_value, value, deadband
        ):
            return False
        self._manager._publish(self, value)
        return True

    def withdraw(self) -> None:
        self._manager.withdraw(self.name)


@dataclass
class VariableSubscription:
    """Subscriber-side handle returned by :meth:`VariableManager.subscribe`."""

    name: str
    on_sample: Optional[OnSample]
    on_timeout: Optional[OnTimeout]
    service: str
    _manager: "VariableManager" = field(repr=False, default=None)
    last_value: Any = None
    last_timestamp: float = 0.0  # publisher clock
    last_arrival: float = -1.0  # local clock; <0 = never
    received_samples: int = 0
    timeout_warnings: int = 0
    last_warning_at: float = -1.0
    got_initial: bool = False
    active: bool = True

    def latest(self) -> Optional[Any]:
        """The most recent sample, or None once it outlives its validity."""
        return self._manager._latest(self)

    def cancel(self) -> None:
        self._manager.unsubscribe(self)


class VariableManager:
    """Owns both sides of the variable primitive for one container."""

    def __init__(self, host: PrimitiveHost):
        self._host = host
        self._publications: Dict[str, VariablePublication] = {}
        self._subscriptions: Dict[str, List[VariableSubscription]] = {}
        self._timeout_timers: Dict[str, object] = {}
        self._initial_timers: Dict[str, object] = {}
        # Everything a sample needs from the host, resolved once: the
        # collaborators are fixed for the container's life (their *state* —
        # tracer.enabled, probes.enabled — is read live, per sample).
        self._id = host.id
        self._clock = host.clock
        self._codec = host.codec
        self._tracer = host.tracer
        self._probes = host.probes
        self._publishes_counter = host.metrics.counter("var_publishes")
        self._deliveries_counter = host.metrics.counter("var_deliveries")
        # (name, provider) -> the provider's datatype as a bound decoder for
        # the rx path; valid only while the directory revision is unchanged
        # and no local publication has been (re)provided or withdrawn since.
        self._decoder_cache: Dict[tuple, Callable[[bytes], Any]] = {}
        self._decoder_cache_rev = -1

    # -- publisher side -----------------------------------------------------
    def provide(
        self,
        name: str,
        datatype: DataType,
        validity: float = 0.0,
        period: float = 0.0,
        service: str = "",
    ) -> VariablePublication:
        """Announce a variable this node will publish."""
        if name in self._publications:
            raise ConfigurationError(f"variable {name!r} already provided here")
        publication = VariablePublication(
            name=name,
            datatype=datatype,
            validity=validity,
            period=period,
            service=service,
            _manager=self,
            _encode=self._codec.encoder(datatype),
            _group=variable_group(name),
        )
        self._publications[name] = publication
        self._decoder_cache.clear()
        self._host.announce_soon()
        return publication

    def withdraw(self, name: str) -> None:
        if self._publications.pop(name, None) is not None:
            self._decoder_cache.clear()
            self._host.announce_soon()

    def withdraw_service(self, service: str) -> None:
        """Drop every publication owned by a stopped/failed service."""
        for name in [n for n, p in self._publications.items() if p.service == service]:
            del self._publications[name]
        self._decoder_cache.clear()
        self._host.announce_soon()

    def offers(self) -> List[dict]:
        """VarOffer documents for the container announce."""
        return [
            {
                "name": p.name,
                "datatype": p.datatype.describe(),
                "validity": p.validity,
                "period": p.period,
            }
            for p in sorted(self._publications.values(), key=lambda p: p.name)
        ]

    def _publish(self, publication: VariablePublication, value: Any) -> None:
        tracer = self._tracer
        now = self._clock.now()
        sanitizer = self._host.payload_sanitizer
        if sanitizer.enabled:
            # Aliasing guard: checkpoint the previous sample and (in freeze
            # mode) swap in a frozen copy for the cache and local delivery.
            value = sanitizer.on_publish("var", publication.name, value)
        publication.last_value = value
        publication.last_timestamp = now
        publication.published_samples += 1
        self._publishes_counter.inc()
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "var.publish", publication.name, attrs={"timestamp": now}
            )
        if tracer.enabled:
            span = tracer.start_span(f"var:{publication.name}", "var.publish")
            context = tracer.context_of(span)
        else:
            span = context = None  # skip span-name formatting on the hot path
        payload = wire.encode_var_sample(
            {
                "name": publication.name,
                "timestamp": now,
                "value": publication._encode(value),
            },
            context,
        )
        with tracer.activate(context):
            # Local subscribers: direct delivery, no network round trip.
            for sub in self._subscriptions.get(publication.name, ()):
                self._deliver_local(sub, value, now)
            # Remote subscribers: one multicast emission for all of them.
            self._host.send_group(
                publication._group,
                Frame(MessageKind.VAR_SAMPLE, self._id, payload),
            )
        tracer.finish(span)

    # -- subscriber side ----------------------------------------------------
    def subscribe(
        self,
        name: str,
        on_sample: Optional[OnSample] = None,
        on_timeout: Optional[OnTimeout] = None,
        initial: bool = False,
        service: str = "",
    ) -> VariableSubscription:
        """Subscribe to a variable by name.

        ``initial=True`` requests the guaranteed initial exact value: the
        manager polls the provider until either a response or a live sample
        arrives.
        """
        subscription = VariableSubscription(
            name=name,
            on_sample=on_sample,
            on_timeout=on_timeout,
            service=service,
            _manager=self,
        )
        self._subscriptions.setdefault(name, []).append(subscription)
        self._host.join_group(variable_group(name))
        # Serve the initial value locally when we are the publisher.
        local = self._publications.get(name)
        if local is not None and local.published_samples > 0:
            subscription.got_initial = True
            self._deliver_local(subscription, local.last_value, local.last_timestamp)
        elif initial:
            self._request_initial(subscription)
        self._arm_timeout_watch(name)
        return subscription

    def unsubscribe(self, subscription: VariableSubscription) -> None:
        subscription.active = False
        subs = self._subscriptions.get(subscription.name, [])
        if subscription in subs:
            subs.remove(subscription)
        if not subs:
            self._subscriptions.pop(subscription.name, None)
            self._host.leave_group(variable_group(subscription.name))
            timer = self._timeout_timers.pop(subscription.name, None)
            if timer is not None and hasattr(timer, "cancel"):
                timer.cancel()

    def unsubscribe_service(self, service: str) -> None:
        for subs in list(self._subscriptions.values()):
            for sub in [s for s in subs if s.service == service]:
                self.unsubscribe(sub)

    # -- frame input (called by the container dispatcher) ---------------------
    def on_sample_frame(self, frame: Frame) -> None:
        doc, trace = wire.decode_var_sample(frame.payload)
        self._ingest(
            doc["name"], doc["value"], doc["timestamp"], frame.source, trace
        )

    def on_initial_request(self, frame: Frame) -> None:
        doc = wire.decode(wire.VAR_INITIAL_REQUEST_SCHEMA, frame.payload)
        publication = self._publications.get(doc["name"])
        has_value = publication is not None and publication.published_samples > 0
        response = wire.encode(
            wire.VAR_INITIAL_RESPONSE_SCHEMA,
            {
                "name": doc["name"],
                "timestamp": publication.last_timestamp if has_value else 0.0,
                "has_value": has_value,
                "value": (
                    publication._encode(publication.last_value)
                    if has_value
                    else b""
                ),
            },
        )
        self._host.send_unicast(
            doc["subscriber"],
            Frame(
                kind=MessageKind.VAR_INITIAL_RESPONSE,
                source=self._host.id,
                payload=response,
            ),
        )

    def on_initial_response(self, frame: Frame) -> None:
        doc = wire.decode(wire.VAR_INITIAL_RESPONSE_SCHEMA, frame.payload)
        if not doc["has_value"]:
            return  # provider has nothing yet; the retry timer keeps polling
        self._ingest(doc["name"], doc["value"], doc["timestamp"], frame.source)

    # -- internals ---------------------------------------------------------------
    def _ingest(
        self, name: str, encoded: bytes, timestamp: float, provider: str, trace=None
    ) -> None:
        live = self._subscriptions.get(name)
        if not live:
            return
        revision = self._host.directory.revision
        if revision != self._decoder_cache_rev:
            self._decoder_cache.clear()
            self._decoder_cache_rev = revision
        key = (name, provider)
        decode = self._decoder_cache.get(key)
        if decode is None:
            datatype = self._datatype_of(name, provider)
            if datatype is None:
                return  # no schema known yet; drop (best-effort semantics)
            decode = self._decoder_cache[key] = self._codec.decoder(datatype)
        value = decode(encoded)
        # Copy before delivering: an on_sample callback may unsubscribe
        # (unsubscribing is the only thing that clears ``active``, and it
        # also leaves the list — so every listed subscription is active).
        subs = live.copy()
        tracer = self._tracer
        if not tracer.enabled:
            # Hot path at telemetry rates: no span bookkeeping at all.
            for sub in subs:
                if timestamp < sub.last_timestamp:
                    continue  # stale sample overtaken by a newer one
                self._deliver_local(sub, value, timestamp)
            return
        span = tracer.start_span(
            f"var:{name}", "var.deliver", parent=trace, provider=provider
        )
        with tracer.activate(tracer.context_of(span)):
            for sub in subs:
                if timestamp < sub.last_timestamp:
                    continue  # stale sample overtaken by a newer one
                self._deliver_local(sub, value, timestamp)
        tracer.finish(span)

    def _deliver_local(self, sub: VariableSubscription, value: Any, timestamp: float) -> None:
        sub.last_value = value
        sub.last_timestamp = timestamp
        sub.last_arrival = self._clock.now()
        sub.received_samples += 1
        sub.got_initial = True
        self._deliveries_counter.inc()
        probes = self._probes
        if probes.enabled:
            probes.emit("var.deliver", sub.name, attrs={"timestamp": timestamp})
        if sub.on_sample is not None:
            self._host.submit("variable", partial(sub.on_sample, value, timestamp))

    def _latest(self, sub: VariableSubscription) -> Optional[Any]:
        if sub.last_arrival < 0:
            return None
        validity = self._validity_of(sub.name)
        age = self._clock.now() - sub.last_arrival
        if not self._fresh(sub, validity, age):
            return None
        probes = self._probes
        if probes.enabled:
            # The probe reports the *measured* age and window, independent of
            # what _fresh decided — the validity spec re-derives freshness
            # from these, so a broken predicate cannot hide its own serves.
            probes.emit(
                "var.serve", sub.name, attrs={"age": age, "validity": validity}
            )
        return sub.last_value

    def _fresh(
        self, sub: VariableSubscription, validity: float, age: float
    ) -> bool:
        """May a cached sample of this age still be served? A publisher
        validity of 0 means never-expiring."""
        return validity <= 0 or age <= validity

    def _datatype_of(self, name: str, provider: str = "") -> Optional[DataType]:
        local = self._publications.get(name)
        if local is not None:
            return local.datatype
        record = self._host.directory.record(provider) if provider else None
        offer = record.variables.get(name) if record else None
        if offer is None:
            for candidate in self._host.directory.providers_of_variable(name):
                offer = candidate.variables.get(name)
                if offer:
                    break
        if offer is None:
            return None
        return parse_type(offer["datatype"])

    def _validity_of(self, name: str) -> float:
        local = self._publications.get(name)
        if local is not None:
            return local.validity
        for record in self._host.directory.providers_of_variable(name):
            return record.variables[name]["validity"]
        return 0.0

    def _period_of(self, name: str) -> float:
        local = self._publications.get(name)
        if local is not None:
            return local.period
        for record in self._host.directory.providers_of_variable(name):
            return record.variables[name]["period"]
        return 0.0

    def _request_initial(self, sub: VariableSubscription) -> None:
        if not sub.active or sub.got_initial:
            return
        providers = self._host.directory.providers_of_variable(sub.name)
        if providers:
            payload = wire.encode(
                wire.VAR_INITIAL_REQUEST_SCHEMA,
                {"name": sub.name, "subscriber": self._host.id},
            )
            self._host.send_unicast(
                providers[0].container,
                Frame(
                    kind=MessageKind.VAR_INITIAL_REQUEST,
                    source=self._host.id,
                    payload=payload,
                ),
            )
        # Retry until the first value lands (request or provider may be lost,
        # or no provider is known yet).
        retry = max(self._host.config.heartbeat_interval, 0.05)
        self._initial_timers[id(sub)] = self._host.timers.schedule(
            retry, lambda: self._request_initial(sub)
        )

    def _arm_timeout_watch(self, name: str) -> None:
        """Periodically check sample freshness for every subscriber of
        ``name`` and raise the §4.1 timeout warning."""
        if name in self._timeout_timers:
            return

        def check():
            subs = [s for s in self._subscriptions.get(name, []) if s.active]
            if not subs:
                self._timeout_timers.pop(name, None)
                return
            period = self._period_of(name)
            if period > 0:
                now = self._clock.now()
                limit = period * VARIABLE_TIMEOUT_PERIODS
                for sub in subs:
                    reference = max(sub.last_arrival, sub.last_warning_at)
                    if sub.last_arrival >= 0 and now - reference > limit:
                        sub.timeout_warnings += 1
                        sub.last_warning_at = now  # warn once per quiet window
                        if sub.on_timeout is not None:
                            self._host.submit(
                                "variable", lambda s=sub: s.on_timeout(name)
                            )
            interval = period if period > 0 else self._host.config.housekeeping_interval
            self._timeout_timers[name] = self._host.timers.schedule(interval, check)

        self._timeout_timers[name] = self._host.timers.schedule(
            self._host.config.housekeeping_interval, check
        )


__all__ = ["VariableManager", "VariablePublication", "VariableSubscription"]
