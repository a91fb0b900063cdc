"""Integration tests for the Event primitive (§4.2): guaranteed delivery."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro.encoding.types import STRING
from repro.simnet.models import LinkModel


class TestBasicEvents:
    def test_event_with_payload(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.handle.raise_event("alarm: engine hot")
        runtime.run_for(0.5)
        assert sub.events_of("test.evt") == ["alarm: engine hot"]

    def test_pure_signal_event(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.signal")
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.signal"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.handle.raise_event()
        runtime.run_for(0.5)
        assert sub.events_of("test.signal") == [None]

    def test_all_subscribers_receive(self):
        runtime, a, b = two_containers()
        c = runtime.add_container("c")
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub_b = ProbeService("sub-b", lambda s: s.watch_event("test.evt"))
        sub_c = ProbeService("sub-c", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub_b)
        c.install_service(sub_c)
        settle(runtime)
        pub.handle.raise_event("x")
        runtime.run_for(0.5)
        assert sub_b.events_of("test.evt") == ["x"]
        assert sub_c.events_of("test.evt") == ["x"]

    def test_local_subscriber(self):
        runtime, a, _ = two_containers()

        def setup(s):
            s.handle = s.ctx.provide_event("test.evt", STRING)
            s.watch_event("test.evt")

        svc = ProbeService("both", setup)
        a.install_service(svc)
        settle(runtime)
        svc.handle.raise_event("local")
        runtime.run_for(0.1)
        assert svc.events_of("test.evt") == ["local"]

    def test_subscriber_before_provider_announce(self):
        # Subscribe first, then the provider appears: the subscription must
        # be issued when the announce arrives.
        runtime, a, b = two_containers()
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        b.install_service(sub)
        settle(runtime)
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        a.install_service(pub)
        runtime.run_for(1.5)
        pub.handle.raise_event("late provider")
        runtime.run_for(0.5)
        assert sub.events_of("test.evt") == ["late provider"]


class TestGuaranteedDelivery:
    @pytest.mark.parametrize("loss", [0.05, 0.15, 0.3])
    def test_every_event_delivered_under_loss(self, loss):
        from repro.protocol.reliability import RetransmitPolicy

        link = LinkModel(latency=0.002, jitter=0.0005, loss=loss, bandwidth_bps=0.0)
        # Tolerant failure detection: at 30% loss a tight liveness timeout
        # would flap peers dead and reset streams mid-test.
        runtime, a, b = two_containers(
            seed=13,
            link=link,
            liveness_timeout=5.0,
            retransmit=RetransmitPolicy(initial_rto=0.05, max_retries=25),
        )
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime, 8.0)
        sent = [f"evt-{i}" for i in range(50)]
        for message in sent:
            pub.handle.raise_event(message)
            runtime.run_for(0.02)
        runtime.run_for(20.0)  # allow retransmissions to finish
        # Guaranteed AND ordered delivery despite loss.
        assert sub.events_of("test.evt") == sent

    def test_events_ordered_per_publisher(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        for i in range(20):
            pub.handle.raise_event(f"e{i}")
        runtime.run_for(2.0)
        assert sub.events_of("test.evt") == [f"e{i}" for i in range(20)]


class TestUnsubscribe:
    def test_unsubscribed_service_stops_receiving(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: setattr(
            s, "subscription", s.watch_event("test.evt")
        ))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        pub.handle.raise_event("one")
        runtime.run_for(0.5)
        sub.subscription.cancel()
        runtime.run_for(0.5)
        pub.handle.raise_event("two")
        runtime.run_for(0.5)
        assert sub.events_of("test.evt") == ["one"]

    def test_dead_subscriber_removed_from_publication(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("test.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("test.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        assert "b" in pub.handle.subscribers
        b.stop()  # clean shutdown sends BYE
        runtime.run_for(1.0)
        assert "b" not in pub.handle.subscribers
