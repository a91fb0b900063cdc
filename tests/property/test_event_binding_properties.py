"""An EVENT read through its binding agrees with the full decode.

The event manager reads an untraced EVENT of a bound (provider, name) with
one prefix compare and one ``unpack_from``, and decodes every other payload
whole with ``wire.decode_event_message``. These properties feed generated
reliable EVENT frames — two providers, fixed- and variable-size types,
traced payloads, wrong value lengths, mutated or non-UTF-8 names,
truncations, a name nobody offers and a source nobody announced — to two
subscriber containers through ``_on_frames``: ``run`` as it is, ``ref`` with
its EVENT handler replaced by the full decode. Both must make the same
deliveries, the same malformed reports, the same counter moves and the same
flight recorder entries. The variable manager binds its samples with the
same helper (``tests/property/test_sample_run_properties.py``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Service, SimRuntime
from repro.container.links import RELIABLE_CHANNEL
from repro.encoding.codec import get_codec
from repro.encoding.types import INT32
from repro.observability.trace import TraceContext
from repro.primitives import wire
from repro.primitives.binding import PayloadBindings
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.transport.addressing import Address
from tests.property.test_codec_properties import schemas as any_schemas
from tests.property.test_sample_run_properties import (
    MUTATIONS,
    _mutate,
    _values,
    fixed_schemas,
)

_RELIABLE = int(FrameFlags.RELIABLE)
#: The header mutation of the sample property breaks a run of samples; a
#: reliable frame is in a run of its own kind anyway.
EVENT_MUTATIONS = [m for m in MUTATIONS if m != "retransmit_flag"]


def _event_payload(codec, datatype, name, timestamp, value, traced, mutation, data):
    raw = codec.encode(datatype, value)
    tail = b""
    if mutation == "short_value_padded" and raw:
        raw, tail = raw[:-1], b"\x00"
    elif mutation == "long_value":
        raw += b"\x00"
    trace = TraceContext("t" * 3, "s" * 2) if traced else None
    payload = wire.encode_event_message(
        {"name": name, "timestamp": timestamp, "value": raw}, trace
    ) + tail
    return _mutate(payload, name, mutation, data)


def _full_decode(container, frame):
    """The reference EVENT handler: the envelope, then the value."""
    doc, trace = wire.decode_event_message(frame.payload)
    container.events.on_event_payload(frame.source, doc, trace)


class _Twins:
    """Two providers, and two subscriber containers set up alike; ``ref``
    decodes every EVENT whole."""

    def __init__(self, codec, types):
        self.runtime = SimRuntime(seed=3)
        self.codec = get_codec(codec)
        services = {}
        for name in ("p1", "p2", "ref", "run"):
            self.runtime.add_container(name, codec=codec).install_service(
                services.setdefault(name, Service(name))
            )
        self.runtime.start()
        self.runtime.settle()
        for (provider, event), datatype in types.items():
            services[provider].ctx.provide_event(event, datatype)
        self.log = {"ref": [], "run": [], "malformed_ref": [], "malformed_run": []}
        self.seqs = {}
        for side in ("ref", "run"):
            ctx = services[side].ctx
            log = self.log[side]
            ctx.subscribe_event("e.a", lambda v, t, log=log: log.append(("a1", v, t)))
            holder = {}

            def once_twice(v, t, log=log, holder=holder):
                log.append(("a2", v, t))
                if sum(1 for e in log if e[0] == "a2") == 2:
                    holder["sub"].cancel()  # unsubscribes mid-run

            holder["sub"] = ctx.subscribe_event("e.a", once_twice)
            ctx.subscribe_event("e.b", lambda v, t, log=log: log.append(("b", v, t)))
            ctx.subscribe_event("e.c", lambda v, t, log=log: log.append(("c", v, t)))
            container = self.runtime.containers[side]
            malformed = self.log[f"malformed_{side}"]
            original = container.note_malformed

            def note(frame, exc, original=original, malformed=malformed):
                malformed.append((frame.source, frame.payload, type(exc), str(exc)))
                original(frame, exc)

            container.note_malformed = note
        self.runtime.settle()
        ref = self.runtime.containers["ref"]
        ref._bind_handlers()[MessageKind.EVENT] = lambda frame: _full_decode(ref, frame)

    def counters(self, side):
        return {key: metric.value
                for key, metric in self.runtime.containers[side].metrics.items()
                if key[0] == "counter"}

    def feed(self, specs):
        """One datagram of reliable EVENTs ``(source, payload)`` to each
        side, each source's frames numbered on from its last."""
        frames = []
        for source, payload in specs:
            seq = self.seqs[source] = self.seqs.get(source, 0) + 1
            frames.append(Frame(MessageKind.EVENT, source, payload, RELIABLE_CHANNEL,
                                seq, _RELIABLE))
        for side in ("ref", "run"):
            self.runtime.containers[side]._on_frames(list(frames), Address("p1", 1))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    codec=st.sampled_from(["compiled", "compiled", "binary", "json"]),
    fixed=fixed_schemas,
    other=st.one_of(fixed_schemas, any_schemas),
    tracing=st.booleans(),
    data=st.data(),
)
def test_bound_events_match_the_full_decode(codec, fixed, other, tracing, data):
    types = {("p1", "e.a"): fixed, ("p1", "e.b"): other,
             ("p2", "e.a"): other, ("p2", "e.b"): fixed}
    twins = _Twins(codec, types)
    if tracing:
        twins.runtime.enable_tracing()
    specs = data.draw(st.lists(
        st.tuples(st.sampled_from(["p1", "p1", "p2", "px"]),
                  st.sampled_from(["e.a", "e.a", "e.b", "e.c"]),
                  st.booleans(), st.sampled_from(EVENT_MUTATIONS),
                  st.sampled_from([1.0, 2.0, 3.0])),
        min_size=1, max_size=16,
    ))
    batch = []
    for source, event, traced, mutation, timestamp in specs:
        # "px" announced nothing and nobody offers "e.c": typed as p1's.
        datatype = types.get((source, event)) or types[("p1", "e.a")]
        value = data.draw(_values(datatype))
        payload = _event_payload(twins.codec, datatype, event, timestamp, value,
                                 traced and data.draw(st.booleans()), mutation, data)
        batch.append((source, payload))
    recorded = {side: twins.runtime.containers[side].recorder.recorded
                for side in ("ref", "run")}
    counters = {side: twins.counters(side) for side in ("ref", "run")}
    for _ in range(2):  # the second pass meets warm bindings
        twins.feed(batch)

    assert twins.log["run"] == twins.log["ref"]
    assert twins.log["malformed_run"] == twins.log["malformed_ref"]
    for side in ("ref", "run"):
        after = twins.counters(side)
        counters[side] = {key: value - counters[side].get(key, 0)
                          for key, value in after.items()
                          if value != counters[side].get(key, 0)}
    assert counters["run"] == counters["ref"]
    entries = {}
    for side in ("ref", "run"):
        recorder = twins.runtime.containers[side].recorder
        fresh = recorder.recorded - recorded[side]
        assert fresh <= recorder.capacity
        entries[side] = recorder.dump()[len(recorder) - fresh:]
    assert entries["run"] == entries["ref"]


def _mark(source, name="mark", value=5):
    payload = wire.encode_event_message(
        {"name": name, "timestamp": 1.0, "value": INT32_CODEC(value)}
    )
    return Frame(MessageKind.EVENT, source, payload)


INT32_CODEC = get_codec("compiled").encoder(INT32)


class TestBindings:
    def _trio(self):
        """'a' provides event "mark" and variable "v", 'c' event "other";
        'b' subscribes to all three. Batching on."""
        runtime = SimRuntime(seed=4)
        services = {name: Service(name) for name in "abc"}
        containers = {
            name: runtime.add_container(name, batching_enabled=True) for name in "abc"
        }
        for name in "abc":
            containers[name].install_service(services[name])
        runtime.start()
        runtime.settle()
        mark = services["a"].ctx.provide_event("mark", INT32)
        other = services["c"].ctx.provide_event("other", INT32)
        var = services["a"].ctx.provide_variable("v", INT32)
        got = []
        ctx = services["b"].ctx
        ctx.subscribe_event("mark", lambda v, _t: got.append(("mark", v)))
        ctx.subscribe_event("other", lambda v, _t: got.append(("other", v)))
        ctx.subscribe_variable("v", on_sample=lambda v, _t: got.append(("v", v)))
        assert runtime.run_until(
            lambda: mark.subscribers == other.subscribers == {"b"}, timeout=5.0
        )
        mark.raise_event(1)
        var.publish(2)
        var.publish(3)  # two samples in one BATCH: a run, read in place
        runtime.run_for(0.1)
        assert sorted(got) == [("mark", 1), ("v", 2), ("v", 3)]
        return runtime, containers["b"], got

    def test_both_managers_bind_with_the_one_helper(self):
        _runtime, b, _got = self._trio()
        for manager in (b.events, b.variables):
            assert type(manager._bindings) is PayloadBindings
            assert len(manager._bindings) == 1

    def test_bindings_drop_with_the_decoder_cache(self):
        runtime, b, got = self._trio()
        events = b.events
        for drop in (
            lambda: events.provide("local", INT32),
            lambda: events.withdraw("local"),
            lambda: events.withdraw_service(""),
            lambda: setattr(b.directory, "revision", b.directory.revision + 1),
        ):
            events.on_event_frame(_mark("a"))
            assert len(events._bindings) == 1
            drop()
            events.on_event_frame(_mark("a", value=6))  # binds again
            assert len(events._bindings) == 1
            assert list(events._decoder_cache) == []  # the bound path skips it
        runtime.run_for(0.01)
        assert got[3:] == [("mark", 5), ("mark", 6)] * 4

    def test_an_event_its_source_does_not_offer_is_dropped_and_counted(self):
        """Only the sender's own offer types an event: not another
        provider's offer of the name, and not anyone's for a source no
        record names. A source no record names is dropped at once; a live
        one that does not offer the name is held for its offer, which never
        comes, and dropped at the hold deadline."""
        runtime, b, got = self._trio()
        deliveries = b.metrics.counter_value("event_deliveries")
        b.events.on_event_frame(_mark("a", name="other"))  # 'c' offers it
        b.events.on_event_frame(_mark("forged"))
        b.events.on_event_frame(_mark("c", name="other"))  # the real one
        runtime.run_for(0.01)
        assert b.metrics.counter_value("unoffered_events") == 1
        hold = b.config.announce_interval + b.config.liveness_timeout
        runtime.run_for(hold - 0.02)
        assert got[3:] == [("other", 5)]
        assert b.metrics.counter_value("unoffered_events") == 1
        runtime.run_for(0.02)
        assert got[3:] == [("other", 5)]
        assert b.metrics.counter_value("unoffered_events") == 2
        assert b.metrics.counter_value("event_deliveries") == deliveries + 1
        assert b.events._held == {}
