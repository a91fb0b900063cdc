"""Manager-level unit tests for the four primitives, on a fake host.

These hit edge cases the integration suite can't steer precisely: stale
sample rejection, empty initial responses, unknown datatypes, straggler
dropping, provision withdrawal, offers formatting.
"""

import pytest

from repro.container.config import ContainerConfig
from repro.container.directory import Directory
from repro.encoding.binary import BinaryCodec
from repro.encoding.types import FLOAT64, INT32, STRING, StructType
from repro.observability import FlightRecorder, MetricsRegistry, ProbeBus, Tracer
from repro.primitives import wire
from repro.primitives.events import EventManager
from repro.primitives.filetransfer import FileTransferManager
from repro.primitives.invocation import CALL_TIMEOUT, InvocationManager
from repro.primitives.variables import VariableManager
from repro.protocol.frames import Frame, MessageKind
from repro.sched import CpuModel, SimScheduler, make_policy
from repro.sim import Simulator
from repro.util.errors import ConfigurationError, NameResolutionError

SCHEMA = StructType("S", [("x", FLOAT64)])


class FakeHost:
    """A minimal PrimitiveHost that records every outbound interaction."""

    def __init__(self, container_id="local"):
        self.sim = Simulator()
        self._id = container_id
        self.codec = BinaryCodec()
        self.config = ContainerConfig(container_id=container_id, node="n")
        self.directory = Directory(self.sim, container_id, liveness_timeout=1.0)
        self.tracer = Tracer(container_id, self.sim)
        self.probes = ProbeBus(container_id, self.sim)
        self.metrics = MetricsRegistry()
        self.recorder = FlightRecorder(self.sim)
        self.unicasts = []  # (peer, frame)
        self.reliables = []  # (peer, kind, payload)
        self.groups_sent = []  # (group, frame)
        self.joined = []
        self.left = []
        self.submitted = []  # (label, fn) — executed immediately
        self.announces = 0
        self.emergencies = []

    # PrimitiveHost protocol -------------------------------------------------
    @property
    def id(self):
        return self._id

    @property
    def clock(self):
        return self.sim

    @property
    def timers(self):
        return self.sim

    def submit(self, label, fn):
        self.submitted.append(label)
        fn()

    def send_unicast(self, peer, frame):
        self.unicasts.append((peer, frame))
        return True

    def send_reliable(self, peer, kind, payload):
        self.reliables.append((peer, kind, payload))

    def send_group(self, group, frame):
        self.groups_sent.append((group, frame))

    def join_group(self, group):
        self.joined.append(group)

    def leave_group(self, group):
        self.left.append(group)

    def announce_soon(self):
        self.announces += 1

    def emergency(self, reason):
        self.emergencies.append(reason)

    # test helper ------------------------------------------------------------
    def add_remote(self, container, **offers):
        doc = {
            "container": container,
            "node": container,
            "port": 47000,
            "incarnation": 1,
            "services": [],
            "variables": offers.get("variables", []),
            "events": offers.get("events", []),
            "functions": offers.get("functions", []),
            "files": offers.get("files", []),
        }
        self.directory.handle_announce(doc)


class TestVariableManagerUnits:
    def test_duplicate_provision_rejected(self):
        host = FakeHost()
        mgr = VariableManager(host)
        mgr.provide("v", SCHEMA)
        with pytest.raises(ConfigurationError):
            mgr.provide("v", SCHEMA)

    def test_offers_format(self):
        host = FakeHost()
        mgr = VariableManager(host)
        mgr.provide("b", SCHEMA, validity=2.0, period=0.1)
        mgr.provide("a", SCHEMA)
        offers = mgr.offers()
        assert [o["name"] for o in offers] == ["a", "b"]
        assert offers[1]["validity"] == 2.0
        assert offers[1]["datatype"] == SCHEMA.describe()

    def test_stale_sample_rejected(self):
        host = FakeHost()
        host.add_remote(
            "pub",
            variables=[{"name": "v", "datatype": SCHEMA.describe(), "validity": 0.0, "period": 0.0}],
        )
        mgr = VariableManager(host)
        got = []
        mgr.subscribe("v", on_sample=lambda val, t: got.append(val["x"]))
        newer = wire.encode(
            wire.VAR_SAMPLE_SCHEMA,
            {"name": "v", "timestamp": 10.0,
             "value": host.codec.encode(SCHEMA, {"x": 2.0})},
        )
        older = wire.encode(
            wire.VAR_SAMPLE_SCHEMA,
            {"name": "v", "timestamp": 5.0,
             "value": host.codec.encode(SCHEMA, {"x": 1.0})},
        )
        mgr.on_sample_frame(Frame(kind=MessageKind.VAR_SAMPLE, source="pub", payload=newer))
        mgr.on_sample_frame(Frame(kind=MessageKind.VAR_SAMPLE, source="pub", payload=older))
        assert got == [2.0]  # the out-of-date sample was suppressed

    def test_sample_with_unknown_datatype_dropped(self):
        host = FakeHost()
        mgr = VariableManager(host)
        got = []
        mgr.subscribe("mystery", on_sample=lambda v, t: got.append(v))
        payload = wire.encode(
            wire.VAR_SAMPLE_SCHEMA, {"name": "mystery", "timestamp": 1.0, "value": b"xx"}
        )
        mgr.on_sample_frame(
            Frame(kind=MessageKind.VAR_SAMPLE, source="ghost", payload=payload)
        )
        assert got == []  # best-effort semantics: silently dropped

    def test_initial_request_without_value(self):
        host = FakeHost()
        mgr = VariableManager(host)
        mgr.provide("v", SCHEMA)  # provided but never published
        request = wire.encode(
            wire.VAR_INITIAL_REQUEST_SCHEMA, {"name": "v", "subscriber": "sub"}
        )
        mgr.on_initial_request(
            Frame(kind=MessageKind.VAR_INITIAL_REQUEST, source="sub", payload=request)
        )
        peer, frame = host.unicasts[-1]
        doc = wire.decode(wire.VAR_INITIAL_RESPONSE_SCHEMA, frame.payload)
        assert peer == "sub"
        assert doc["has_value"] is False

    def test_empty_initial_response_ignored(self):
        host = FakeHost()
        mgr = VariableManager(host)
        got = []
        mgr.subscribe("v", on_sample=lambda v, t: got.append(v))
        response = wire.encode(
            wire.VAR_INITIAL_RESPONSE_SCHEMA,
            {"name": "v", "timestamp": 0.0, "has_value": False, "value": b""},
        )
        mgr.on_initial_response(
            Frame(kind=MessageKind.VAR_INITIAL_RESPONSE, source="pub", payload=response)
        )
        assert got == []

    def test_withdraw_service_drops_all(self):
        host = FakeHost()
        mgr = VariableManager(host)
        mgr.provide("v1", SCHEMA, service="svc")
        mgr.provide("v2", SCHEMA, service="svc")
        mgr.provide("keep", SCHEMA, service="other")
        mgr.withdraw_service("svc")
        assert [o["name"] for o in mgr.offers()] == ["keep"]

    def test_subscription_joins_and_leaves_group(self):
        host = FakeHost()
        mgr = VariableManager(host)
        sub = mgr.subscribe("v", on_sample=lambda v, t: None)
        assert host.joined == ["mcast.var.v"]
        sub.cancel()
        assert host.left == ["mcast.var.v"]


class TestEventManagerUnits:
    def test_raise_with_no_subscribers_sends_nothing(self):
        host = FakeHost()
        mgr = EventManager(host)
        pub = mgr.provide("e", STRING)
        pub.raise_event("quiet")
        assert host.reliables == []
        assert pub.raised_events == 1

    def test_subscribe_frame_updates_subscriber_set(self):
        host = FakeHost()
        mgr = EventManager(host)
        pub = mgr.provide("e", STRING)
        payload = wire.encode(
            wire.EVENT_SUBSCRIBE_SCHEMA,
            {"name": "e", "subscriber": "remote", "subscribe": True},
        )
        mgr.on_subscribe_frame(
            Frame(kind=MessageKind.EVENT_SUBSCRIBE, source="remote", payload=payload)
        )
        assert pub.subscribers == {"remote"}
        payload = wire.encode(
            wire.EVENT_SUBSCRIBE_SCHEMA,
            {"name": "e", "subscriber": "remote", "subscribe": False},
        )
        mgr.on_subscribe_frame(
            Frame(kind=MessageKind.EVENT_SUBSCRIBE, source="remote", payload=payload)
        )
        assert pub.subscribers == set()

    def test_event_sent_once_per_remote_subscriber(self):
        host = FakeHost()
        mgr = EventManager(host)
        pub = mgr.provide("e", STRING)
        pub.subscribers.update({"r1", "r2"})
        pub.raise_event("x")
        peers = sorted(peer for peer, kind, _ in host.reliables)
        assert peers == ["r1", "r2"]

    def test_signal_event_has_empty_payload(self):
        host = FakeHost()
        mgr = EventManager(host)
        pub = mgr.provide("sig")
        pub.subscribers.add("r1")
        pub.raise_event()
        _, _, payload = host.reliables[0]
        doc = wire.decode(wire.EVENT_MESSAGE_SCHEMA, payload)
        assert doc["value"] == b""

    def test_subscriber_down_cleans_sets(self):
        host = FakeHost()
        mgr = EventManager(host)
        pub = mgr.provide("e", STRING)
        pub.subscribers.update({"dead", "alive"})
        mgr.on_subscriber_down("dead")
        assert pub.subscribers == {"alive"}


class TestHeldEvents:
    """An event from a live container whose record does not yet offer the
    name waits for the offer (``events.HELD_PER_PROVIDER`` at most)."""

    OFFER = {"name": "e", "datatype": "string"}

    def setup_method(self):
        self.host = FakeHost()
        self.host.add_remote("r")  # live, offers nothing yet
        self.mgr = EventManager(self.host)
        self.got = []
        self.mgr.subscribe("e", lambda value, _t: self.got.append(value))

    def raise_from(self, source, *values):
        for value in values:
            payload = wire.encode_event_message(
                {"name": "e", "timestamp": 0.0, "value": STRING_CODEC(value)}
            )
            self.mgr.on_event_frame(Frame(MessageKind.EVENT, source, payload))

    def offer(self):
        self.host.add_remote("r", events=[self.OFFER])
        self.mgr.on_provider_up("r")

    @property
    def dropped(self):
        return self.host.metrics.counter_value("unoffered_events")

    def test_released_in_arrival_order_when_the_offer_arrives(self):
        self.raise_from("r", "a", "b", "c")
        self.host.sim.run_for(0.5)
        assert self.got == []
        self.offer()
        self.raise_from("r", "d")
        assert self.got == ["a", "b", "c", "d"]
        assert self.dropped == 0 and self.mgr._held == {}
        self.host.sim.run_for(5.0)  # the cancelled deadline drops nothing
        assert self.dropped == 0

    def test_past_the_bound_the_oldest_go_and_are_counted(self):
        from repro.primitives.events import HELD_PER_PROVIDER

        values = [str(i) for i in range(HELD_PER_PROVIDER + 2)]
        self.raise_from("r", *values)
        assert self.dropped == 2
        self.offer()
        assert self.got == values[2:]

    def test_dropped_when_the_provider_goes_down(self):
        self.raise_from("r", "a", "b")
        self.mgr.on_subscriber_down("r")
        assert self.dropped == 2 and self.mgr._held == {}
        self.offer()
        assert self.got == []

    def test_a_source_no_record_names_is_dropped_at_once(self):
        self.raise_from("stranger", "a")
        assert self.dropped == 1 and self.mgr._held == {}


STRING_CODEC = BinaryCodec().encoder(STRING)


class TestInvocationManagerUnits:
    def make_remote_offer(self, host, container="srv"):
        host.add_remote(
            container,
            functions=[{"name": "f", "params": ["int32"], "result": "int32"}],
        )

    def test_no_provider_fails_fast_with_emergency(self):
        host = FakeHost()
        mgr = InvocationManager(host)
        errors = []
        mgr.call("f", (1,), on_error=errors.append)
        assert len(errors) == 1
        assert isinstance(errors[0], NameResolutionError)
        assert host.emergencies

    def test_misspelt_binding_rejected(self):
        """Fails at the parent, where an unknown per-call binding silently
        took the round-robin branch."""
        host = FakeHost()
        self.make_remote_offer(host)
        mgr = InvocationManager(host)
        with pytest.raises(ConfigurationError):
            mgr.call("f", (1,), binding="least-loaded")
        assert host.reliables == [] and mgr.pending_calls() == []
        assert mgr.call("f", (1,), binding="least_loaded").binding == "least_loaded"

    def test_request_payload_shape(self):
        host = FakeHost()
        self.make_remote_offer(host)
        mgr = InvocationManager(host)
        mgr.call("f", (41,))
        peer, kind, payload = host.reliables[0]
        assert peer == "srv"
        assert kind == MessageKind.RPC_REQUEST
        doc = wire.decode(wire.RPC_REQUEST_SCHEMA, payload)
        assert doc["function"] == "f"

    def test_response_for_unknown_call_ignored(self):
        host = FakeHost()
        mgr = InvocationManager(host)
        payload = wire.encode(
            wire.RPC_RESPONSE_SCHEMA,
            {"call_id": "call-999", "ok": True, "error": "", "result": b""},
        )
        mgr.on_response_frame(
            Frame(kind=MessageKind.RPC_RESPONSE, source="srv", payload=payload)
        )  # must not raise

    def test_request_for_missing_function_answers_error(self):
        host = FakeHost()
        mgr = InvocationManager(host)
        payload = wire.encode(
            wire.RPC_REQUEST_SCHEMA,
            {"call_id": "c1", "function": "ghost", "args": b""},
        )
        mgr.on_request_frame(
            Frame(kind=MessageKind.RPC_REQUEST, source="caller", payload=payload)
        )
        peer, kind, response = host.reliables[0]
        doc = wire.decode(wire.RPC_RESPONSE_SCHEMA, response)
        assert peer == "caller"
        assert doc["ok"] is False
        assert "ghost" in doc["error"]

    def test_malformed_args_reported_not_crashing(self):
        host = FakeHost()
        mgr = InvocationManager(host)
        mgr.provide("f", lambda x: x, params=[INT32], result=INT32)
        payload = wire.encode(
            wire.RPC_REQUEST_SCHEMA,
            {"call_id": "c2", "function": "f", "args": b"\x01"},  # truncated
        )
        mgr.on_request_frame(
            Frame(kind=MessageKind.RPC_REQUEST, source="caller", payload=payload)
        )
        _, _, response = host.reliables[0]
        doc = wire.decode(wire.RPC_RESPONSE_SCHEMA, response)
        assert doc["ok"] is False
        assert "bad arguments" in doc["error"]

    def test_round_robin_cycles_providers(self):
        host = FakeHost()
        self.make_remote_offer(host, "s1")
        self.make_remote_offer(host, "s2")
        mgr = InvocationManager(host)
        for _ in range(4):
            mgr.call("f", (1,))
        peers = [peer for peer, _, _ in host.reliables]
        assert sorted(set(peers)) == ["s1", "s2"]
        assert peers.count("s1") == peers.count("s2") == 2

    def test_each_call_expires_at_its_own_deadline(self):
        """Deadlines in the opposite order of issue, one wake-up for both. A
        timed-out call is redirected (to the only provider, again) with
        exactly one more window of its own ``timeout=``,
        ``CALL_MAX_REDIRECTS`` times."""
        host = FakeHost()
        self.make_remote_offer(host)
        mgr = InvocationManager(host)
        requests, errors, made = [], [], []
        host.send_reliable = lambda peer, kind, payload: requests.append(host.sim.now())
        schedule = host.sim.schedule
        host.sim.schedule = lambda delay, fn: (made.append(delay), schedule(delay, fn))[1]
        for tag, timeout in (("slow", 0.5), ("fast", 0.1)):
            mgr.call(
                "f", (1,), timeout=timeout,
                on_error=lambda e, tag=tag: errors.append((tag, host.sim.now(), str(e))),
            )
        host.sim.run(until=10.0)
        assert requests == pytest.approx([0.0, 0.0, 0.1, 0.2, 0.5, 1.0])
        assert [tag for tag, _, _ in errors] == ["fast", "slow"]
        assert [when for _, when, _ in errors] == pytest.approx([0.3, 1.5])
        assert all("redirect limit reached" in message for _, _, message in errors)
        assert host.metrics.counter("rpc_timeouts").value == 6
        assert mgr.pending_calls() == [] and host.sim.pending == 0
        # slow, then fast re-arms earlier; after that one re-arm per wake-up.
        assert len(made) == 7

    def test_a_calls_own_timeout_governs_every_redirect_window(self):
        """``timeout=0.05`` under the default 1 s ``CALL_TIMEOUT``: the call
        is re-issued 0.05 s after each attempt and fails 0.15 s after it
        was made. Fails at the parent, which gave each redirect the
        container's 1 s (re-issued at 0.05 and 1.05, failed at 2.05)."""
        host = FakeHost()
        assert CALL_TIMEOUT == 1.0
        self.make_remote_offer(host)
        mgr = InvocationManager(host)
        requests, errors = [], []
        host.send_reliable = lambda peer, kind, payload: requests.append(host.sim.now())
        handle = mgr.call(
            "f", (1,), timeout=0.05, on_error=lambda e: errors.append(host.sim.now())
        )
        assert handle.timeout == 0.05
        host.sim.run(until=5.0)
        assert requests == pytest.approx([0.0, 0.05, 0.10])
        assert errors == pytest.approx([0.15])
        assert handle.redirects == 2 and "redirect limit reached" in str(handle.error)
        # Without ``timeout=`` the module default is the call's window.
        assert mgr.call("f", (1,)).timeout == CALL_TIMEOUT

    def test_completed_calls_leave_the_wakeup_alone(self):
        """Fails at the parent: a timer per call, cancelled on completion."""
        host = FakeHost()
        self.make_remote_offer(host)
        mgr = InvocationManager(host)
        made = []
        schedule = host.sim.schedule
        host.sim.schedule = lambda delay, fn: (made.append(delay), schedule(delay, fn))[1]
        results = []
        for i in range(50):
            handle = mgr.call("f", (i,), on_result=results.append)
            response = wire.encode(
                wire.RPC_RESPONSE_SCHEMA,
                {"call_id": handle.call_id, "ok": True, "error": "",
                 "result": host.codec.encode(INT32, i)},
            )
            mgr.on_response_frame(
                Frame(kind=MessageKind.RPC_RESPONSE, source="srv", payload=response)
            )
            host.sim.run_for(0.001)
        assert results == list(range(50)) and len(made) == 1
        host.sim.run()  # the one wake-up fires on nothing and goes idle
        assert len(made) == 1 and host.metrics.counter("rpc_timeouts").value == 0

    def test_duplicate_provision_rejected(self):
        host = FakeHost()
        mgr = InvocationManager(host)
        mgr.provide("f", lambda: None)
        with pytest.raises(ConfigurationError):
            mgr.provide("f", lambda: None)


def _subscribe(mgr, name, subscriber, revision=1):
    payload = wire.encode(
        wire.FILE_SUBSCRIBE_SCHEMA,
        {"name": name, "subscriber": subscriber, "revision": revision},
    )
    mgr.on_subscribe_frame(
        Frame(kind=MessageKind.FILE_SUBSCRIBE, source=subscriber, payload=payload)
    )


class _QueueingHost(FakeHost):
    """``submit`` goes to a real scheduler under experiment E6's cost model
    (benchmarks/bench_scheduler.py), so deliveries queue instead of running
    inline."""

    def __init__(self):
        super().__init__()
        self.scheduler = SimScheduler(
            timers=self.sim,
            clock=self.sim,
            policy=make_policy("fixed_priority"),
            cpu=CpuModel(
                costs={"event": 0.0002, "invocation": 0.005, "file": 0.002,
                       "control": 0.0001}
            ),
            record=True,
        )

    def submit(self, label, fn):
        self.scheduler.submit(label, fn)


class TestDeliveriesQueueUnderAModelledCpu:
    def test_order_and_queue_delays_are_the_recorded_ones(self):
        """What the managers hand to ``submit`` (a ``functools.partial`` per
        delivery) queues, is ordered and completes exactly as the closures
        it replaced: both lists below were recorded before the change."""
        host = _QueueingHost()
        variables, events = VariableManager(host), EventManager(host)
        calls = InvocationManager(host)
        ran = []
        sample = variables.provide("v", SCHEMA)
        alarm = events.provide("alarm", SCHEMA)
        calls.provide("work", lambda x: x * 2)
        variables.subscribe("v", on_sample=lambda value, t: ran.append(("v", value["x"], t)))
        events.subscribe("alarm", lambda value, t: ran.append(("alarm-1", value["x"], t)))
        events.subscribe("alarm", lambda value, t: ran.append(("alarm-2", value["x"], t)))

        def burst(n):
            calls.call(
                "work", (n,), on_result=lambda r: ran.append(("work", r, host.sim.now()))
            )
            sample.publish({"x": float(n)})
            alarm.raise_event({"x": float(n)})

        for n, at in enumerate((0.0, 0.001, 0.0015, 0.02)):
            host.sim.schedule(at, lambda n=n: burst(n))
        host.sim.run(until=1.0)
        assert ran == [
            ("alarm-1", 0.0, 0.0), ("alarm-2", 0.0, 0.0),
            ("alarm-1", 1.0, 0.001), ("alarm-2", 1.0, 0.001),
            ("alarm-1", 2.0, 0.0015), ("alarm-2", 2.0, 0.0015),
            ("v", 0.0, 0.0), ("v", 1.0, 0.001), ("v", 2.0, 0.0015),
            ("work", 0, 0.0212),
            ("alarm-1", 3.0, 0.02), ("alarm-2", 3.0, 0.02), ("v", 3.0, 0.02),
            ("work", 2, 0.0266), ("work", 4, 0.031599999999999996),
            ("work", 6, 0.04159999999999999),
        ]
        assert [
            (r.label, round(r.queue_delay, 9)) for r in host.scheduler.records
        ] == [
            ("invocation", 0.0),
            ("event", 0.005), ("event", 0.0052), ("event", 0.0044),
            ("event", 0.0046), ("event", 0.0043), ("event", 0.0045),
            ("variable", 0.0062), ("variable", 0.0052), ("variable", 0.0047),
            ("invocation", 0.0052), ("invocation", 0.0097), ("invocation", 0.0112),
            ("event", 0.0012), ("event", 0.0014), ("variable", 0.0016),
            ("invocation", 0.0104), ("invocation", 0.0104), ("invocation", 0.0116),
            ("invocation", 0.0),
        ]


class TestFileManagerUnits:
    def test_straggler_dropped_after_max_rounds(self):
        host = FakeHost()
        host.config = ContainerConfig(
            container_id="local", node="n", file_chunk_interval=0.0,
        )
        mgr = FileTransferManager(host)
        mgr.publish("res", b"x" * 100)
        _subscribe(mgr, "res", "silent")
        host.sim.run_for(5.0)  # chunk sends + repeated silent polls
        assert mgr.dropped_stragglers == 1
        assert host.emergencies
        session = mgr._sessions["res"]
        assert not session.pending

    def test_unknown_resource_subscribe_ignored(self):
        host = FakeHost()
        mgr = FileTransferManager(host)
        subscribe = wire.encode(
            wire.FILE_SUBSCRIBE_SCHEMA,
            {"name": "nothing", "subscriber": "x", "revision": 0},
        )
        mgr.on_subscribe_frame(
            Frame(kind=MessageKind.FILE_SUBSCRIBE, source="x", payload=subscribe)
        )
        assert mgr._sessions == {}

    def test_offers_reflect_revisions(self):
        host = FakeHost()
        mgr = FileTransferManager(host)
        mgr.publish("res", b"one")
        mgr.publish("res", b"two")
        offers = mgr.offers()
        assert offers == [
            {"name": "res", "revision": 2, "size": 3,
             "chunk_size": host.config.file_chunk_size}
        ]

    def test_nack_triggers_selective_round(self):
        host = FakeHost()
        host.config = ContainerConfig(
            container_id="local", node="n",
            file_chunk_size=10, file_chunk_interval=0.0,
        )
        mgr = FileTransferManager(host)
        mgr.publish("res", b"0123456789" * 5)  # 5 chunks
        _subscribe(mgr, "res", "rx")
        host.sim.run_for(0.005)  # transfer phase done (interval 0)
        chunk_count_initial = sum(
            1 for g, f in host.groups_sent if f.kind == MessageKind.FILE_CHUNK
        )
        assert chunk_count_initial == 5
        nack = wire.encode(
            wire.FILE_NACK_SCHEMA,
            {"name": "res", "subscriber": "rx", "revision": 1,
             "missing": [{"start": 1, "end": 2}]},
        )
        mgr.on_completion_nack_frame(
            Frame(kind=MessageKind.FILE_COMPLETION_NACK, source="rx", payload=nack)
        )
        host.sim.run_for(0.05)  # status timeout fires, round 2 runs
        chunks = [
            wire.decode(wire.FILE_CHUNK_SCHEMA, f.payload)["index"]
            for g, f in host.groups_sent
            if f.kind == MessageKind.FILE_CHUNK
        ]
        assert chunks[5:7] == [1, 2]  # only the missing chunks were resent

    def test_empty_file_has_one_chunk(self):
        from repro.primitives.filetransfer import FileResource

        resource = FileResource(name="r", data=b"", revision=1, chunk_size=100)
        assert resource.total_chunks == 1
        assert resource.chunk(0) == b""


class _TickLoop:
    """Clock + timer service that, like a selector event loop, only looks
    at its timers once per ``tick``: a timer runs at the first tick at or
    after its deadline, and one armed during a tick waits for the next.
    Handles keep their callback after firing, as asyncio's do."""

    class Handle:
        def __init__(self, when, fn):
            self.when, self.fn, self.cancelled = when, fn, False

        def cancel(self):
            self.cancelled = True

    def __init__(self, tick=0.001):
        self.tick = tick
        self._now = 0.0
        self._armed = []

    def now(self):
        return self._now

    def schedule(self, delay, fn):
        handle = self.Handle(self._now + delay, fn)
        self._armed.append(handle)
        return handle

    def stall(self, duration):
        """Time passes and the loop runs nothing."""
        self._now += duration

    def run_ticks(self, count):
        for _ in range(count):
            self._now += self.tick
            due = [h for h in self._armed if h.when <= self._now]
            self._armed = [h for h in self._armed if h.when > self._now]
            for handle in sorted(due, key=lambda h: h.when):
                if not handle.cancelled:
                    handle.fn()


class _TickHost(FakeHost):
    def __init__(self, **config):
        super().__init__()
        self.loop = _TickLoop()
        self.config = ContainerConfig(container_id="local", node="n", **config)

    clock = timers = property(lambda self: self.loop)

    def chunks_sent(self):
        return sum(1 for _, f in self.groups_sent if f.kind == MessageKind.FILE_CHUNK)


class TestFilePacing:
    """Chunks are paced by deadline: a timer service coarser than
    ``file_chunk_interval`` still delivers the configured rate."""

    INTERVAL = 0.0002

    def make(self, chunks=400, interval=INTERVAL):
        host = _TickHost(file_chunk_size=10, file_chunk_interval=interval)
        mgr = FileTransferManager(host)
        mgr.publish("res", b"x" * (10 * chunks))
        _subscribe(mgr, "res", "rx")
        assert host.chunks_sent() == 1  # the round's first chunk is due at once
        return host, mgr

    def test_coarse_timer_still_delivers_the_configured_rate(self):
        host, _ = self.make()
        host.loop.run_ticks(10)  # 10 ms of 1 ms ticks = 50 chunk intervals
        assert 50 <= host.chunks_sent() <= 52
        host.loop.run_ticks(20)
        assert 150 <= host.chunks_sent() <= 152

    def test_catch_up_after_a_stall_is_clamped(self):
        from repro.primitives.filetransfer import _MAX_CATCHUP_CHUNKS

        host, _ = self.make()
        host.loop.run_ticks(2)
        before = host.chunks_sent()
        host.loop.stall(0.050)  # 250 chunk intervals pass unserved
        host.loop.run_ticks(1)
        assert host.chunks_sent() - before == _MAX_CATCHUP_CHUNKS
        # The rest of the debt is forgiven, not spread over later ticks.
        before = host.chunks_sent()
        host.loop.run_ticks(4)
        assert host.chunks_sent() - before <= 4 * 5 + 1

    def test_round_ends_with_the_completion_poll(self):
        host, _ = self.make(chunks=7)
        host.loop.run_ticks(3)
        kinds = [f.kind for _, f in host.groups_sent if f.kind != MessageKind.FILE_ANNOUNCE]
        assert kinds == [MessageKind.FILE_CHUNK] * 7 + [MessageKind.FILE_STATUS_REQUEST]

    def test_interval_zero_is_one_chunk_per_turn(self):
        host, _ = self.make(chunks=20, interval=0.0)
        for turn in range(1, 6):
            host.loop.run_ticks(1)
            assert host.chunks_sent() == 1 + turn  # never the round in one callback

    def test_finished_revisions_are_freed_without_the_cycle_collector(self):
        """A fired timer handle keeps its callback, which closes over the
        session: held in ``session.timer`` it pinned every finished
        revision's bytes until a full collection."""
        import gc
        import weakref

        host, mgr = self.make(chunks=5)
        gc.collect()
        gc.disable()
        try:
            finished = []
            for revision in (1, 2, 3):
                session = mgr._sessions["res"]
                finished.append((weakref.ref(session), weakref.ref(session.resource)))
                host.loop.run_ticks(3)  # chunks, then the status request
                ack = wire.encode(
                    wire.FILE_ACK_SCHEMA,
                    {"name": "res", "subscriber": "rx", "revision": revision},
                )
                mgr.on_completion_ack_frame(
                    Frame(kind=MessageKind.FILE_COMPLETION_ACK, source="rx", payload=ack)
                )
                host.loop.run_ticks(60)  # the poll finds nobody pending
                assert session.timer is None
                del session
                mgr.publish("res", b"y" * 50)
                _subscribe(mgr, "res", "rx", revision + 1)
            assert [(s(), r()) for s, r in finished] == [(None, None)] * 3
        finally:
            gc.enable()
