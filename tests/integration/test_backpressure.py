"""Backpressure integration: a deliberately slow subscriber must be evicted
per the bounded-backlog spec while every healthy subscriber keeps receiving
reliable events exactly once — and the §3 invariants stay green throughout.

The slow subscriber is made slow the honest way: its link to the publisher
drops everything (loss=1.0) for a window, so ACKs stop, the publisher's
bounded reliable backlog to it overflows, and the overflow hook evicts the
peer from the subscription instead of letting queues grow without bound
(guaranteed delivery never silently drops — the subscription is the thing
that gives way). After the link heals, the evicted subscriber rediscovers
the provider and re-subscribes, demonstrating the recovery path.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ProbeService, settle

from repro import SimRuntime
from repro.encoding.types import STRING
from repro.faults import FaultInjector, InvariantChecker
from repro.protocol.reliability import RetransmitPolicy


def build_domain(seed=11, **overrides):
    config = dict(
        retransmit=RetransmitPolicy(
            initial_rto=0.05, window=2, max_backlog=2, max_retries=10
        ),
        batching_enabled=True,
        batch_flush_interval=0.002,
        ack_coalesce_delay=0.002,
    )
    config.update(overrides)
    runtime = SimRuntime(seed=seed)
    pub = runtime.add_container("pub", **config)
    fast = runtime.add_container("fast", **config)
    slow = runtime.add_container("slow", **config)
    return runtime, pub, fast, slow


@pytest.mark.chaos
class TestSlowSubscriberEviction:
    def test_eviction_spares_the_healthy_subscriber(self):
        runtime, pub, fast, slow = build_domain()
        checker = InvariantChecker(runtime)

        publisher = ProbeService(
            "publisher",
            lambda s: setattr(
                s, "handle", s.ctx.provide_event("backpressure.evt", STRING)
            ),
        )
        fast_sub = ProbeService("fast-sub", lambda s: s.watch_event("backpressure.evt"))
        slow_sub = ProbeService("slow-sub", lambda s: s.watch_event("backpressure.evt"))
        pub.install_service(publisher)
        fast.install_service(fast_sub)
        slow.install_service(slow_sub)
        settle(runtime)
        assert publisher.handle.subscribers == {"fast", "slow"}

        # Black-hole the pub<->slow link: ACKs stop, the bounded backlog
        # (window 2 + backlog 2) overflows on the 5th unacked event.
        FaultInjector(runtime).degrade_link(
            0.0, "pub", "slow", loss=1.0, duration=2.0
        )
        runtime.run_for(0.05)
        expected = [f"evt-{i}" for i in range(30)]
        for value in expected:
            publisher.handle.raise_event(value)
            runtime.run_for(0.02)

        # The slow peer was evicted from the subscription, with the shed
        # and eviction surfaced as labeled counters.
        assert "slow" not in publisher.handle.subscribers
        assert pub.metrics.counter_value("slow_subscriber_evictions") == 1
        assert pub.metrics.counter_value("slow_peer_sheds", kind="EVENT") >= 1
        assert any(
            e.get("category") == "backpressure" for e in pub.recorder.dump()
        )

        # The healthy subscriber saw every event exactly once, in order.
        assert fast_sub.events_of("backpressure.evt") == expected
        # The slow one got at most the pre-fault prefix, never duplicates.
        got_slow = slow_sub.events_of("backpressure.evt")
        assert got_slow == expected[: len(got_slow)]

        # Heal; the evicted subscriber rediscovers the provider (it marked
        # pub dead during the black-hole, so pub's announce re-triggers
        # on_provider_up) and re-subscribes.
        runtime.run_for(4.0)
        assert "slow" in publisher.handle.subscribers
        publisher.handle.raise_event("post-heal")
        runtime.run_for(1.0)
        assert fast_sub.events_of("backpressure.evt")[-1] == "post-heal"
        assert slow_sub.events_of("backpressure.evt")[-1] == "post-heal"

        # §3 contracts held through shed, eviction, and recovery.
        assert checker.check() == []

    def test_no_eviction_without_backlog_bound(self):
        # Seed behavior: unbounded backlog, the slow peer is never evicted
        # (it is eventually declared dead by retry exhaustion/liveness —
        # the old, slower failure path).
        runtime, pub, fast, slow = build_domain(
            retransmit=RetransmitPolicy(initial_rto=0.05, window=2, max_retries=10),
        )
        publisher = ProbeService(
            "publisher",
            lambda s: setattr(
                s, "handle", s.ctx.provide_event("backpressure.evt", STRING)
            ),
        )
        slow_sub = ProbeService("slow-sub", lambda s: s.watch_event("backpressure.evt"))
        pub.install_service(publisher)
        slow.install_service(slow_sub)
        settle(runtime)
        FaultInjector(runtime).degrade_link(
            0.0, "pub", "slow", loss=1.0, duration=1.0
        )
        runtime.run_for(0.05)
        for i in range(10):
            publisher.handle.raise_event(f"evt-{i}")
            runtime.run_for(0.02)
        assert pub.metrics.counter_value("slow_subscriber_evictions") == 0


class TestVariableShedding:
    def test_drop_oldest_keeps_variables_fresh_under_pressure(self):
        # Variables are fresh-or-worthless: under a rate-limited uplink with
        # a bounded queue, old samples are shed but the subscriber still
        # converges to the latest value.
        runtime = SimRuntime(seed=7)
        pub = runtime.add_container(
            "pub",
            egress_rate_bps=40_000.0,
            egress_queue_limit=4,
        )
        sub = runtime.add_container("sub")
        from repro.encoding.types import FLOAT64

        publisher = ProbeService(
            "publisher",
            lambda s: setattr(
                s, "handle", s.ctx.provide_variable("pressure.var", FLOAT64, period=0.1)
            ),
        )
        watcher = ProbeService("watcher", lambda s: s.watch_variable("pressure.var"))
        pub.install_service(publisher)
        sub.install_service(watcher)
        settle(runtime)
        for i in range(200):
            publisher.handle.publish(float(i))
        runtime.run_for(3.0)
        values = watcher.values_of("pressure.var")
        assert pub.egress.dropped_frames > 0
        assert pub.metrics.counter_value(
            "egress_overflow", band="2", policy="drop-oldest", kind="VAR_SAMPLE"
        ) == pub.egress.dropped_frames
        # Shedding kept the stream fresh: drop-oldest preserved the newest
        # samples (the bounded queue drained 196..199 in order; the
        # pre-queue burst scrambles only under link jitter).
        assert values[-4:] == [196.0, 197.0, 198.0, 199.0]
