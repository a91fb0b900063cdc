"""The middleware over the asyncio batch-I/O data plane.

Two things are proven here: (1) the same primitives work unchanged over
:class:`AsyncRuntime` — the PEPt transport swap holds on real sockets and
the machine clock; (2) the wall-clock runtime is *equivalent* to the
deterministic reference: the same mission delivers byte-identical
application frame sequences under :class:`SimRuntime` and
:class:`AsyncRuntime` (modulo timing artifacts like retransmissions).
"""

import socket
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import AsyncRuntime, SimRuntime
from repro.encoding.types import FLOAT64, INT32, INT64, STRING, StructType
from repro.primitives import wire
from repro.protocol.frames import FrameFlags, MessageKind
from repro.simnet.models import LinkModel


@pytest.fixture
def runtime():
    rt = AsyncRuntime()
    yield rt
    rt.stop()


FAST = dict(
    announce_interval=0.2,
    heartbeat_interval=0.05,
    liveness_timeout=0.5,
    housekeeping_interval=0.1,
)


class TestAsyncRuntime:
    def test_variable_over_async_udp(self, runtime):
        schema = StructType("S", [("n", INT32)])
        a = runtime.add_container("a", **FAST)
        b = runtime.add_container("b", **FAST)
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("test.var", schema)
        ))
        sub = ProbeService("sub", lambda s: s.watch_variable("test.var"))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        assert runtime.run_until(
            lambda: bool(b.directory.providers_of_variable("test.var")), timeout=5.0
        )
        runtime.on_reactor(lambda: pub.handle.publish({"n": 99}))
        assert runtime.run_until(lambda: len(sub.samples) >= 1, timeout=5.0)
        assert sub.values_of("test.var") == [{"n": 99}]

    def test_event_over_async_udp(self, runtime):
        a = runtime.add_container("a", **FAST)
        b = runtime.add_container("b", **FAST)
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        assert runtime.run_until(
            lambda: "b" in pub.handle.subscribers, timeout=5.0
        )
        runtime.on_reactor(lambda: pub.handle.raise_event("over the async wire"))
        assert runtime.run_until(lambda: len(sub.events) >= 1, timeout=5.0)
        assert sub.events_of("test.evt") == ["over the async wire"]

    def test_rpc_over_async_udp(self, runtime):
        a = runtime.add_container("a", **FAST)
        b = runtime.add_container("b", **FAST)
        a.install_service(ProbeService("server", lambda s: s.ctx.provide_function(
            "math.add", lambda x, y: x + y, params=[INT32, INT32], result=INT32
        )))
        client = ProbeService("client")
        b.install_service(client)
        runtime.start()
        assert runtime.run_until(
            lambda: bool(b.directory.providers_of_function("math.add")), timeout=5.0
        )
        runtime.on_reactor(lambda: client.call_recorded("math.add", (20, 22)))
        assert runtime.run_until(lambda: len(client.results) >= 1, timeout=5.0)
        assert client.results == [42]
        assert client.errors == []

    def test_file_transfer_over_async_udp(self, runtime):
        a = runtime.add_container("a", **FAST)
        b = runtime.add_container("b", **FAST)
        pub = ProbeService("pub")
        sub = ProbeService("sub", lambda s: s.watch_file("res.x"))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        assert runtime.run_until(
            lambda: b.directory.record("a") is not None, timeout=5.0
        )
        data = bytes(range(256)) * 40  # ~10 KiB, several chunks
        runtime.on_reactor(lambda: pub.ctx.publish_file("res.x", data))
        assert runtime.run_until(lambda: len(sub.files) >= 1, timeout=10.0)
        assert sub.files[0][1] == data

    def test_batched_fanout_under_async(self):
        """The full async data plane: batching on, many events, several
        subscribers — delivery is complete and in order, and the transport
        actually coalesced wire datagrams below the event count."""
        runtime = AsyncRuntime()
        try:
            pub_c = runtime.add_container("pub", batching_enabled=True, **FAST)
            pub = ProbeService("pub", lambda s: setattr(
                s, "handle", s.ctx.provide_event("burst.evt", INT32)
            ))
            pub_c.install_service(pub)
            subs = []
            for i in range(3):
                c = runtime.add_container(f"sub{i}", batching_enabled=True, **FAST)
                probe = ProbeService("probe", lambda s: s.watch_event("burst.evt"))
                c.install_service(probe)
                subs.append(probe)
            runtime.start()
            assert runtime.run_until(
                lambda: len(pub.handle.subscribers) == 3, timeout=5.0
            )
            count = 200
            runtime.on_reactor(
                lambda: [pub.handle.raise_event(i) for i in range(count)]
            )
            assert runtime.run_until(
                lambda: all(len(s.events) >= count for s in subs), timeout=10.0
            )
            for probe in subs:
                assert probe.events_of("burst.evt") == list(range(count))
            sent = runtime.container("pub")._transport._raw.sent_datagrams
            assert sent < count * 3  # batching coalesced the fan-out
        finally:
            runtime.stop()

    def test_default_containers_call_each_other_right_after_start(self, runtime):
        """Every container is open before any ANNOUNCE that matters leaves:
        with the default (1 s announce) timing a function is resolvable and
        answers at once, not after the next periodic announce."""
        a = runtime.add_container("a")
        b = runtime.add_container("b")
        a.install_service(ProbeService("server", lambda s: s.ctx.provide_function(
            "math.add", lambda x, y: x + y, params=[INT32, INT32], result=INT32
        )))
        client = ProbeService("client")
        b.install_service(client)
        started = time.monotonic()
        runtime.start()
        assert runtime.run_until(
            lambda: bool(b.directory.providers_of_function("math.add")),
            timeout=5.0, poll=0.002,
        )
        runtime.on_reactor(lambda: client.call_recorded("math.add", (20, 22)))
        assert runtime.run_until(lambda: bool(client.results), timeout=5.0, poll=0.002)
        assert time.monotonic() - started < 0.25
        assert client.results == [42]

    def test_fast_plane_calls_do_not_wait_for_a_flush_timer(self, runtime):
        """Batching on: a closed loop of 16 calls pays no hold (two 2 ms
        holds per call used to make it >= 64 ms; it takes about 6 ms), and
        the k responses to a datagram of k requests still leave as one."""
        from repro.protocol.batching import decode_batch_payload

        plane = dict(batching_enabled=True, ack_coalesce_delay=0.002,
                     heartbeat_interval=0.5, liveness_timeout=5.0)
        a = runtime.add_container("a", **plane)
        b = runtime.add_container("b", **plane)
        a.install_service(ProbeService("server", lambda s: s.ctx.provide_function(
            "math.inc", lambda x: x + 1, params=[INT32], result=INT32
        )))
        client = ProbeService("client")
        b.install_service(client)
        runtime.start()
        assert runtime.run_until(
            lambda: bool(b.directory.providers_of_function("math.inc")), timeout=5.0
        )
        # Warm the path (stream set-up, codec caches), then time 16 in series.
        runtime.on_reactor(lambda: client.call_recorded("math.inc", (0,)))
        assert runtime.run_until(lambda: len(client.results) == 1, timeout=5.0)

        def next_call(result=None):
            if result is not None:
                client.results.append(result)
            if len(client.results) < 17:
                client.ctx.call("math.inc", (len(client.results),),
                                on_result=next_call, on_error=client.errors.append)

        started = time.monotonic()
        runtime.on_reactor(next_call)
        assert runtime.run_until(lambda: len(client.results) == 17, timeout=5.0, poll=0.001)
        assert time.monotonic() - started < 16 * 0.003
        assert client.results[1:] == list(range(2, 18))

        # Count-based: 16 requests issued in one turn share a datagram, and
        # so do their 16 responses.
        responses = []  # RPC_RESPONSE frames per datagram the server emits
        send = a.egress._send

        def tap(destination, frame):
            inner = (decode_batch_payload(frame.payload)
                     if frame.kind == MessageKind.BATCH else [frame])
            count = sum(1 for f in inner if f.kind == MessageKind.RPC_RESPONSE)
            if count:
                responses.append(count)
            send(destination, frame)

        def burst():
            a.egress._send = tap
            for i in range(16):
                client.call_recorded("math.inc", (100 + i,))

        runtime.on_reactor(burst)
        assert runtime.run_until(lambda: len(client.results) == 33, timeout=5.0)
        assert responses == [16]
        assert client.errors == []

    def test_one_turn_burst_fits_the_subscriber_socket_buffer(self, runtime):
        """Every container shares the loop thread, so a burst published in
        one turn (a generator catching up after a stall) sits whole in the
        subscriber's socket before it reads any of it: the kernel's default
        receive buffer dropped all but about 1,100 of these 2,500 samples."""
        # Can this host grant more than the default at all (rmem_max)?
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            default = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            if probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) <= default:
                pytest.skip(f"host grants no more than the default {default} B")
        sample = StructType(
            "Telemetry",
            [("seq", INT64), ("due", FLOAT64), ("lat", FLOAT64),
             ("lon", FLOAT64), ("alt", FLOAT64), ("mode", INT64)],
        )
        plane = dict(codec="compiled", batching_enabled=True, ack_coalesce_delay=0.002,
                     heartbeat_interval=0.5, liveness_timeout=5.0)
        a = runtime.add_container("a", **plane)
        b = runtime.add_container("b", **plane)
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("burst.var", sample)
        ))
        seen = []
        sub = ProbeService("sub", lambda s: s.ctx.subscribe_variable(
            "burst.var", on_sample=lambda value, _t: seen.append(value["seq"])
        ))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()

        def publish(seq):
            pub.handle.publish(
                {"seq": seq, "due": 0.0, "lat": 41.3, "lon": 2.1, "alt": 120.0, "mode": 3}
            )

        # Subscribers decode only once discovery told them the type.
        def until_first():
            if not seen:
                publish(-1)
                runtime.reactor.schedule(0.01, until_first)

        runtime.on_reactor(until_first)
        assert runtime.run_until(lambda: bool(seen), timeout=5.0)
        count = 2500
        runtime.on_reactor(lambda: [publish(i) for i in range(count)])
        runtime.run_until(lambda: seen[-1] == count - 1, timeout=5.0)
        assert [seq for seq in seen if seq >= 0] == list(range(count))

    def test_loop_isolates_errors(self, runtime):
        runtime.reactor.post(lambda: 1 / 0)
        runtime.run_until(lambda: True, timeout=0.2)
        runtime.on_reactor(lambda: None)  # fence
        assert any(isinstance(e, ZeroDivisionError) for e in runtime.reactor.errors)

    def test_late_container_starts_immediately(self, runtime):
        runtime.add_container("a", **FAST)
        runtime.start()
        late = runtime.add_container("late", **FAST)
        assert late.running


_TAP_SCHEMAS = {
    MessageKind.EVENT: wire.EVENT_MESSAGE_SCHEMA,
    MessageKind.VAR_SAMPLE: wire.VAR_SAMPLE_SCHEMA,
}


def _tap_frames(container, log):
    """Record every application frame a container's dispatch sees —
    reliable frames on first delivery only. The two timing artifacts the
    wire legitimately carries — retransmission flags and the publisher's
    clock timestamp — are normalized out; every other bit must match
    across runtimes."""
    seen = set()
    orig = container._on_frame

    def wrapped(frame, source):
        schema = _TAP_SCHEMAS.get(frame.kind)
        if schema is not None:
            key = (frame.source, frame.channel, frame.seq, frame.kind)
            # Only reliable frames are ever retransmitted; best-effort
            # samples carry no sequence number and are all recorded.
            if not frame.flags & FrameFlags.RELIABLE or key not in seen:
                seen.add(key)
                doc = wire.decode(schema, bytes(frame.payload))
                doc["timestamp"] = 0.0  # publisher wall clock = timing
                log.append((
                    frame.source,
                    frame.kind,
                    frame.channel,
                    frame.seq,
                    int(frame.flags) & ~int(FrameFlags.RETRANSMIT),
                    wire.encode(schema, doc),
                ))
        orig(frame, source)

    container._on_frame = wrapped


def _run_mission(runtime, **extra_config):
    """One fixed mission: 30 reliable events + 10 variable samples from
    'a' to 'b'; returns the exact application frames 'b' dispatched."""
    # SimRuntime runs in the caller's thread: the caller is the domain.
    in_domain = getattr(runtime, "on_reactor", lambda fn: fn())
    frames = []
    try:
        schema = StructType("S", [("n", INT32)])
        a = runtime.add_container("a", **FAST, **extra_config)
        b = runtime.add_container("b", **FAST, **extra_config)
        _tap_frames(b, frames)
        pub = ProbeService("pub", lambda s: (
            setattr(s, "evt", s.ctx.provide_event("m.evt", INT32)),
            setattr(s, "var", s.ctx.provide_variable("m.var", schema)),
        ))
        sub = ProbeService("sub", lambda s: (
            s.watch_event("m.evt"), s.watch_variable("m.var"),
        ))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        assert runtime.run_until(
            # SimRuntime.start() only schedules the container starts.
            lambda: hasattr(pub, "evt")
            and "b" in pub.evt.subscribers
            and bool(b.directory.providers_of_variable("m.var")),
            timeout=5.0,
        )

        def emit():
            for i in range(30):
                pub.evt.raise_event(i)
            for i in range(10):
                pub.var.publish({"n": i})

        in_domain(emit)
        assert runtime.run_until(
            lambda: len(sub.events) >= 30 and len(sub.samples) >= 10, timeout=10.0
        )
        assert [v for _, v, _ in sub.events] == list(range(30))
        return list(frames)
    finally:
        runtime.stop()


def _run_async_mission(**extra_config):
    return _run_mission(AsyncRuntime(), **extra_config)


def _run_sim_mission():
    # A jitter-free link delivers in send order, as loopback UDP does.
    return _run_mission(SimRuntime(seed=7, default_link=LinkModel(jitter=0.0)))


class TestSimAsyncEquivalence:
    """The deterministic runtime is the oracle for the wall-clock one."""

    def test_differential_frame_delivery(self):
        """The same mission must deliver byte-identical application frame
        sequences in simulation and over real sockets — the
        serialization-domain contract makes the substrates
        indistinguishable above Transport."""
        reference = _run_sim_mission()
        assert len(reference) == 40
        assert _run_async_mission() == reference

    def test_differential_with_batching(self):
        """Batching + the zero-copy scatter path on the async side must
        not change a single delivered byte."""
        reference = _run_sim_mission()
        assert _run_async_mission(batching_enabled=True) == reference
