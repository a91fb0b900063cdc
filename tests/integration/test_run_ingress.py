"""Batch-at-a-time ingress: a BATCH datagram reaches the container as one
list of frames, and consecutive data frames of one kind are handled as a
run. These pin what a run must not change — wire order, per-frame error
handling, the own-loopback check, admission per frame, and subscriptions
cancelled from inside a callback — on ``SimRuntime``, with the datagram
sent over the simulated network like any other."""

import struct

from repro import SimRuntime
from repro.container.records import encode_announce
from repro.encoding.types import INT32, StructType
from repro.primitives import wire
from repro.protocol.batching import make_batch_frame
from repro.protocol.frames import Frame, MessageKind
from repro.transport.addressing import Address
from tests.helpers import ProbeService

SCHEMA = StructType("S", [("n", INT32)])


class _Pair:
    """'a' provides variable ``v`` and event ``mark``; 'b' subscribes to
    both, logging every delivery into one list, in delivery order."""

    def __init__(self):
        self.runtime = SimRuntime(seed=11)
        self.a = self.runtime.add_container("a")
        self.b = self.runtime.add_container("b")
        self.log = []
        publisher = ProbeService("pub", self._provide)
        self.subscriber = ProbeService("sub", self._subscribe)
        self.a.install_service(publisher)
        self.b.install_service(self.subscriber)
        self.runtime.start()
        self.runtime.settle()
        self.publisher = publisher
        assert self.runtime.run_until(
            lambda: self.publisher.mark.subscribers == {"b"}, timeout=5.0
        )
        # Warm both paths: the event stream is open, the decoder is cached.
        publisher.var.publish({"n": 0})
        publisher.mark.raise_event(0)
        self.runtime.run_for(0.05)
        assert self.log == [("v", 0), ("mark", 0)]
        del self.log[:]
        self._encode_value = self.a.codec.encoder(SCHEMA)

    def _provide(self, service):
        service.var = service.ctx.provide_variable("v", SCHEMA)
        service.mark = service.ctx.provide_event("mark", INT32)

    def _subscribe(self, service):
        service.sub = service.ctx.subscribe_variable(
            "v", on_sample=lambda value, _t: self.log.append(("v", value["n"]))
        )
        service.ctx.subscribe_event(
            "mark", lambda value, _t: self.log.append(("mark", value))
        )

    def sample(self, n, source="a"):
        payload = wire.encode_var_sample({
            "name": "v",
            "timestamp": self.runtime.sim.now() + n * 1e-6,
            "value": self._encode_value({"n": n}),
        })
        return Frame(MessageKind.VAR_SAMPLE, source, payload)

    def held_reliable_events(self, *values):
        """The reliable EVENT frames 'a' sends for ``values``, kept from 'b'
        so a test can put them inside a datagram of its own."""
        held = self.held_reliable(
            lambda: [self.publisher.mark.raise_event(value) for value in values]
        )
        assert len(held) == len(values)
        return held

    def held_reliable(self, send):
        """The reliable EVENT frames 'a' sends while ``send()`` runs, kept
        from 'b'."""
        held = []
        transport = self.b._transport
        deliver = transport._receiver

        def hold(frames, source):
            held.extend(f for f in frames if f.kind == MessageKind.EVENT)
            rest = [f for f in frames if f.kind != MessageKind.EVENT]
            if rest:
                deliver(rest, source)

        transport._receiver = hold
        try:
            send()
            self.runtime.run_for(0.01)
        finally:
            transport._receiver = deliver
        assert all(frame.channel != 0 for frame in held)
        return held

    def send_batch(self, frames):
        """One BATCH datagram from 'a' to 'b' over the simulated network."""
        batch = make_batch_frame("a", [frame.encode() for frame in frames])
        self.a._transport.send(Address("b", self.b.config.port), batch)
        self.runtime.run_for(0.01)

    def rx_kinds(self, since):
        return [
            entry["kind"]
            for entry in self.b.recorder.dump()[since:]
            if entry["category"] == "rx"
        ]


class TestMixedBatch:
    def test_every_frame_in_wire_order_and_a_malformed_sample_is_counted_once(self):
        pair = _Pair()
        b = pair.b
        handle_announce = b.directory.handle_announce

        def logged_announce(doc):
            pair.log.append(("announce", doc["container"]))
            return handle_announce(doc)

        b.directory.handle_announce = logged_announce
        events = pair.held_reliable_events(7, 8)
        malformed = Frame(MessageKind.VAR_SAMPLE, "a", b"\x05\x00\x00")
        received = b.metrics.counter_value("frames_received", kind="VAR_SAMPLE")
        recorder_at = len(b.recorder)
        frames = [
            Frame(MessageKind.ANNOUNCE, "a", encode_announce(pair.a._announce_doc())),
            pair.sample(1),
            pair.sample(2),
            malformed,
            pair.sample(3),
            *events,
            pair.sample(4),
        ]
        pair.send_batch(frames)

        assert pair.log == [
            ("announce", "a"), ("v", 1), ("v", 2), ("v", 3),
            ("mark", 7), ("mark", 8), ("v", 4),
        ]
        assert b.metrics.counter_value("malformed_frames", source="a") == 1
        errors = [e for e in b.recorder.dump() if e["category"] == "protocol-error"]
        assert [(e["source"], e["kind"], e["error"]) for e in errors] == [
            ("a", "VAR_SAMPLE", "EncodingError")
        ]
        assert b.metrics.counter_value("frames_received", kind="VAR_SAMPLE") == received + 5
        assert pair.rx_kinds(recorder_at)[:8] == [frame.kind.name for frame in frames]


class TestRunGates:
    def test_a_frame_with_the_containers_own_id_is_skipped(self):
        pair = _Pair()
        received = pair.b.metrics.counter_value("frames_received", kind="VAR_SAMPLE")
        pair.send_batch([pair.sample(1), pair.sample(2, source="b"), pair.sample(3)])
        assert pair.log == [("v", 1), ("v", 3)]
        assert (
            pair.b.metrics.counter_value("frames_received", kind="VAR_SAMPLE")
            == received + 2
        )

    def test_armed_admission_drops_every_frame_of_a_quarantined_sources_batch(self):
        pair = _Pair()
        b = pair.b
        pair.runtime.enable_admission()
        for _ in range(5):
            b.admission.note_malformed("a")
        assert b.admission.is_quarantined("a")
        dropped = b.admission.dropped
        pair.send_batch([pair.sample(n) for n in range(1, 5)])
        assert pair.log == []
        assert b.admission.dropped == dropped + 4
        assert b.metrics.counter_value(
            "admission_drops", source="a", band="2", reason="quarantine"
        ) == 4

    def test_other_channels_open_no_peer(self):
        """Channel 0 is dispatched and channel 1 is the reliable stream;
        anything else is counted, recorded and dropped before a peer
        lookup, so a stranger sending on it costs no peer state."""
        pair = _Pair()
        b = pair.b
        received = b.metrics.counter_value("frames_received", kind="STREAM_SYN")
        event = wire.encode_event_message({"name": "mark", "timestamp": 0.0, "value": b""})
        at = Address("stranger", 1)
        b._on_frame(Frame(MessageKind.STREAM_SYN, "stranger", bytes(12), 2), at)
        b._on_frame(Frame(MessageKind.EVENT, "stranger", event, 3, 1), at)
        pair.runtime.run_for(0.01)
        assert pair.log == []
        assert b.directory.find("stranger") is None
        assert b.metrics.counter_value("frames_received", kind="STREAM_SYN") == received + 1

    def test_unsubscribing_inside_a_run_stops_delivery_to_that_subscription(self):
        pair = _Pair()
        quitter = []

        def on_sample(value, _t):
            quitter.append(value["n"])
            if value["n"] == 2:
                handle.cancel()

        handle = pair.subscriber.ctx.subscribe_variable("v", on_sample=on_sample)
        pair.send_batch([pair.sample(n) for n in range(1, 6)])
        assert quitter == [1, 2]
        assert not handle.active
        # The subscription that stayed got the whole run.
        assert pair.log == [("v", n) for n in range(1, 6)]

    def test_forged_source_ids_keep_the_decoder_tables_bounded(self):
        """A sample's source id comes off the wire: samples of a subscribed
        variable under ids that no directory record names are not decoded
        (no such provider offers the variable a type) and not delivered,
        and they leave no entry in the per-(variable, provider) decoder and
        binding tables, which stay bounded; the real provider's samples
        still arrive."""
        from repro.primitives.binding import BINDINGS_LIMIT

        pair = _Pair()
        total = 3 * BINDINGS_LIMIT
        for first in range(0, total, 24):
            pair.send_batch([
                pair.sample(n, source=f"forged{n}")
                for n in range(first, min(first + 24, total))
            ])
        # The same through the per-frame path: one frame per datagram.
        for n in range(total, 2 * total):
            pair.b._on_frame(pair.sample(n, source=f"forged{n}"), Address("a", 1))
        assert pair.log == []
        pair.send_batch([pair.sample(1)])
        pair.b._on_frame(pair.sample(2), Address("a", 1))
        assert pair.log == [("v", 1), ("v", 2)]
        variables = pair.b.variables
        assert 0 < len(variables._bindings) <= BINDINGS_LIMIT
        assert 0 < len(variables._decoder_cache) <= BINDINGS_LIMIT
        assert not any(src.startswith("forged") for src, _ in variables._bindings._table)
        assert not any(src.startswith("forged") for _, src in variables._decoder_cache)


#: An EVENT payload whose name claims 10 bytes and carries 2.
TRUNCATED_EVENT = struct.pack("<I", 10) + b"ma"


class TestMalformedReliablePayload:
    """A reliable payload its handler cannot decode is reported once, and
    its seq counts as consumed: it was ACKed, so the sender never resends
    it, and every later frame of the stream would otherwise wait for it in
    the reorder buffer."""

    def test_later_events_still_arrive(self):
        pair = _Pair()
        for n in (1, 2, 3):
            pair.publisher.mark.raise_event(n)
        pair.a.send_reliable("b", MessageKind.EVENT, TRUNCATED_EVENT)
        for n in (4, 5, 6):
            pair.publisher.mark.raise_event(n)
        pair.runtime.run_for(5.0)
        assert pair.log == [("mark", n) for n in range(1, 7)]
        assert pair.b.metrics.counter_value("malformed_frames", source="a") == 1
        assert pair.b.directory.peer("a").receiver._pending == {}

    def test_released_from_the_reorder_buffer(self):
        pair = _Pair()

        def send():
            pair.publisher.mark.raise_event(1)
            pair.a.send_reliable("b", MessageKind.EVENT, TRUNCATED_EVENT)
            pair.publisher.mark.raise_event(2)
            pair.publisher.mark.raise_event(3)

        held = sorted(pair.held_reliable(send), key=lambda frame: frame.seq)
        first, malformed, *rest = held
        assert malformed.payload == TRUNCATED_EVENT
        pair.send_batch([malformed, *rest])  # held: the first is missing
        assert pair.log == []
        pair.send_batch([first])
        assert pair.log == [("mark", 1), ("mark", 2), ("mark", 3)]
        pair.publisher.mark.raise_event(4)
        pair.runtime.run_for(1.0)  # and the retransmissions of the held ones
        assert pair.log == [("mark", n) for n in range(1, 5)]
        assert pair.b.metrics.counter_value("malformed_frames", source="a") == 1
        errors = [e for e in pair.b.recorder.dump() if e["category"] == "protocol-error"]
        assert [(e["kind"], e["error"]) for e in errors] == [("EVENT", "EncodingError")]
