"""Unit tests for the ServiceContainer's service-management API (§3)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, two_containers

from repro import Service
from repro.container import ServiceState
from repro.container.links import RELIABLE_CHANNEL
from repro.container.records import encode_heartbeat
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.peers import MAX_STRANGERS
from repro.transport.addressing import Address
from repro.transport.sim import SimTransport
from repro.util.errors import ConfigurationError, ServiceError


class TestInstallStartStop:
    def test_install_before_start_defers_on_start(self):
        runtime, a, _ = two_containers()
        started = []
        svc = ProbeService("svc", lambda s: started.append(s.ctx.now()))
        a.install_service(svc)
        assert a.service_state("svc") == ServiceState.INSTALLED
        runtime.start()
        runtime.run_for(0.1)
        assert a.service_state("svc") == ServiceState.RUNNING
        assert len(started) == 1

    def test_install_after_start_runs_immediately(self):
        runtime, a, _ = two_containers()
        runtime.start()
        runtime.run_for(0.5)
        svc = ProbeService("late")
        a.install_service(svc)
        assert a.service_state("late") == ServiceState.RUNNING

    def test_duplicate_install_rejected(self):
        runtime, a, _ = two_containers()
        a.install_service(ProbeService("svc"))
        with pytest.raises(ConfigurationError):
            a.install_service(ProbeService("svc"))

    def test_stop_service_calls_on_stop_and_withdraws(self):
        runtime, a, b = two_containers()
        stopped = []

        class Stoppable(Service):
            def __init__(self):
                super().__init__("stoppable")

            def on_start(self):
                self.ctx.provide_event("stop.evt")

            def on_stop(self):
                stopped.append(True)

        a.install_service(Stoppable())
        runtime.start()
        runtime.run_for(2.0)
        assert b.directory.providers_of_event("stop.evt")
        a.stop_service("stoppable")
        assert stopped == [True]
        assert a.service_state("stoppable") == ServiceState.STOPPED
        runtime.run_for(1.5)
        assert not b.directory.providers_of_event("stop.evt")

    def test_unknown_service_rejected(self):
        runtime, a, _ = two_containers()
        with pytest.raises(ServiceError):
            a.start_service("ghost")
        with pytest.raises(ServiceError):
            a.service_state("ghost")

    def test_failing_on_start_isolates(self):
        runtime, a, _ = two_containers()

        class Bad(Service):
            def __init__(self):
                super().__init__("bad")

            def on_start(self):
                raise RuntimeError("broken init")

        a.install_service(Bad())
        a.install_service(ProbeService("good"))
        runtime.start()
        runtime.run_for(0.1)
        assert a.service_state("bad") == ServiceState.FAILED
        assert a.service_state("good") == ServiceState.RUNNING
        record = [r for r in a.services() if r.name == "bad"][0]
        assert "broken init" in record.failure_reason

    def test_double_container_start_rejected(self):
        runtime, a, _ = two_containers()
        runtime.start()
        runtime.run_for(0.1)
        with pytest.raises(ConfigurationError):
            a.start()

    def test_stop_is_idempotent(self):
        runtime, a, _ = two_containers()
        runtime.start()
        runtime.run_for(0.1)
        a.stop()
        a.stop()  # second stop is a no-op
        assert not a.running


class TestAnnounceCoalescing:
    def test_burst_of_provisions_one_extra_announce(self):
        runtime, a, b = two_containers()
        runtime.start()
        runtime.run_for(0.5)

        announce_count = {"n": 0}
        original = a._send_announce

        def counting():
            announce_count["n"] += 1
            original()

        a._send_announce = counting

        def setup(s):
            for i in range(10):
                s.ctx.provide_event(f"burst.e{i}")

        a.install_service(ProbeService("bursty", setup))
        runtime.run_for(0.1)
        # 10 provisions coalesced into one announce (the install's start
        # also schedules one, so allow 2).
        assert announce_count["n"] <= 2


class TestEmergency:
    def test_emergency_handlers_invoked(self):
        runtime, a, _ = two_containers()
        seen = []
        a.on_emergency(seen.append)
        a.emergency("fuel low")
        assert seen == ["fuel low"]
        assert a.emergencies == ["fuel low"]

    def test_service_can_register_emergency_handler(self):
        runtime, a, _ = two_containers()
        svc = ProbeService("svc", lambda s: s.ctx.on_emergency(
            lambda reason: s.results.append(reason)
        ))
        a.install_service(svc)
        runtime.start()
        runtime.run_for(0.1)
        a.emergency("engine out")
        assert svc.results == ["engine out"]


class TestServiceContextResources:
    def test_context_storage_and_devices(self):
        runtime, a, _ = two_containers()

        class Greedy(Service):
            def __init__(self):
                super().__init__("greedy")

            def on_start(self):
                self.ctx.allocate_storage(1000)
                self.ctx.acquire_device("gimbal")

        a.install_service(Greedy())
        runtime.start()
        runtime.run_for(0.1)
        assert a.resources.storage_held_by("greedy") == 1000
        assert a.resources.device_owner("gimbal") == "greedy"
        a.stop_service("greedy")
        assert a.resources.storage_held_by("greedy") == 0
        assert a.resources.device_owner("gimbal") is None

    def test_failed_service_releases_resources(self):
        runtime, a, _ = two_containers()

        class Holder(Service):
            def __init__(self):
                super().__init__("holder")

            def on_start(self):
                self.ctx.acquire_device("radio")
                self.ctx.every(0.1, lambda: 1 / 0)

        a.install_service(Holder())
        runtime.start()
        runtime.run_for(0.5)
        assert a.service_state("holder") == ServiceState.FAILED
        assert a.resources.device_owner("radio") is None


class TestAbuseLog:
    """The one-entry-per-(peer, reason)-per-second flight-recorder log of
    reliability abuse is kept on the peer a frame declares as its source:
    as bounded as the peer table."""

    def hardened(self):
        runtime, a, _ = two_containers()
        runtime.harden_reliability()
        runtime.start()
        runtime.run_for(0.1)
        return runtime, a

    @staticmethod
    def far_future(source):
        """A reliable data frame the replay horizon rejects: abuse."""
        return Frame(
            MessageKind.EVENT, source, b"", RELIABLE_CHANNEL, 1_000_000,
            int(FrameFlags.RELIABLE),
        )

    def abuse_entries(self, container):
        return [
            e for e in container.recorder.dump() if e["category"] == "reliability-abuse"
        ]

    def test_forged_peers_do_not_grow_it_without_bound(self):
        runtime, a = self.hardened()
        largest = 0  # 2,500 forged ids per second, over four seconds
        for i in range(10_000):
            if i and i % 250 == 0:
                runtime.run_for(0.1)
            a._on_frame(self.far_future(f"forged-{i}"), Address("attacker", 9))
            if i % 50 == 0:
                logs = sum(1 for peer in a.directory.peers() if peer.abuse_logged)
                largest = max(largest, logs)
        assert a.metrics.counter_value(
            "reliability_abuse", peer="forged-9999", reason="horizon"
        ) == 1
        assert MAX_STRANGERS <= largest <= MAX_STRANGERS + 1
        # Evicting a stranger forgot nothing that was still suppressing a
        # repeat: each forged id got its one entry.
        logged = [e["peer"] for e in self.abuse_entries(a)]
        assert logged[-1] == "forged-9999" and len(set(logged)) == len(logged) > 100

    def test_one_entry_per_peer_and_reason_per_second(self):
        runtime, a = self.hardened()
        frame, attacker = self.far_future("mallory"), Address("attacker", 9)
        for _ in range(5):
            a._on_frame(frame, attacker)
        assert len(self.abuse_entries(a)) == 1
        runtime.run_for(0.5)
        a._on_frame(frame, attacker)
        assert len(self.abuse_entries(a)) == 1
        runtime.run_for(0.6)
        a._on_frame(frame, attacker)
        assert self.abuse_entries(a)[1:] == [
            {"t": runtime.sim.now(), "category": "reliability-abuse",
             "peer": "mallory", "reason": "horizon"}
        ]
        assert a.metrics.counter_value(
            "reliability_abuse", peer="mallory", reason="horizon"
        ) == 7


class TestForgedControlFrames:
    def test_empty_node_id_is_a_malformed_frame_not_a_crash(self):
        # An empty node id cannot become an Address: the frame is counted
        # as malformed instead of ending the run with a ValueError.
        runtime, a, _ = two_containers()
        runtime.start()
        runtime.run_for(0.1)
        forger = SimTransport(runtime.network, "forger")
        forger.open(9, lambda payload, source: None)
        heartbeat = {"container": "evil", "node": "", "port": 5, "incarnation": 1,
                     "load": 0, "restarts": 0}
        frame = Frame(MessageKind.HEARTBEAT, "evil", encode_heartbeat(heartbeat))
        forger.send_bytes(Address(a.config.node, a.config.port), frame.encode())
        runtime.run_for(0.5)
        assert a.directory.record("evil") is None
        assert a.metrics.counter_value("malformed_frames", source="evil") == 1
