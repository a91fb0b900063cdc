"""Runtime verification end to end: mission specs over a federated fleet,
the InvariantChecker as differential oracle, and the wire-inertness of
the whole probe machinery.

Four layers:

- **Mission specs at scale** (chaos tier): the standard middleware
  contracts plus a mission-level photo-pipeline response spec, armed over
  a ~200-container zoned fleet while attacker personas (volumetric
  flooder, malicious NACKer) run against a defended victim. The defended
  run must end violation-free — the specs are the online restatement of
  what the adversarial suite asserts post-hoc.
- **Injected bug**: breaking the variable-serve freshness predicate
  (the validity-window bug the spec exists for) must produce a
  ``var-validity`` violation attributed to the *consumer's* container,
  and — when the read happens inside a traced span — carrying that
  span's ids.
- **Differential oracle**: the hand-written InvariantChecker and the
  compiled specs watch the same seeded chaos campaigns and must agree —
  green together on defended runs, red together on a leaked invocation.
- **Wire inertness**: with monitors armed (or just a span listener
  subscribed while tracing is disabled) the packet trace is identical,
  byte for byte and time for time, to a run without any of it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import AsyncRuntime, SimRuntime
from repro.container.fleet import FleetConfig
from repro.encoding.types import FLOAT64, STRING, StructType
from repro.faults import (
    ChaosCampaign,
    ChaosProfile,
    FaultInjector,
    Flooder,
    InvariantChecker,
    MaliciousNacker,
)
from repro.util.ids import reset_uid_counter
from repro.verify import FleetMonitor
from repro.verify.library import (
    invocation_termination,
    mission_response,
    standard_specs,
)

SCHEMA = StructType("Telemetry", [("x", FLOAT64)])

ZONES = 10
UAVS_PER_ZONE = 19  # + 1 relay per zone + 1 ground station = 201 containers

FLEET_TIMING = dict(
    announce_interval=5.0,
    heartbeat_interval=1.0,
    liveness_timeout=4.0,
    housekeeping_interval=2.0,
)

#: Publishers/callers hold off until zone discovery has converged: an
#: event raised before the subscriber's SUBSCRIBE lands is legitimately
#: unrouted, not a broken pipeline.
TRAFFIC_START = 9.0


def photo_spec():
    return mission_response(
        "photo-pipeline",
        "event.publish", "mission.photo",
        "event.deliver", "mission.photo",
        within=5.0,
        owner="mission-ops",
    )


def _zone_services(zone):
    """Telemetry + photo-event producer (uav 00), polling consumer (01)."""

    def producer(s):
        s.muted = False  # tests mute publishing while the provision stays up
        s.telemetry = s.ctx.provide_variable(
            "fleet.telemetry", SCHEMA, validity=2.0, period=1.0
        )
        s.photos = s.ctx.provide_event("mission.photo", STRING)

        def tick():
            if s.muted or s.ctx.now() < TRAFFIC_START:
                return
            s.telemetry.publish({"x": s.ctx.now()})
            s.photos.raise_event(f"{zone}-photo")

        s.ctx.every(1.0, tick)

    def consumer(s):
        s.sub = s.ctx.subscribe_variable(
            "fleet.telemetry", on_sample=lambda v, t: None
        )
        s.ctx.watch_photos = s.ctx.subscribe_event(
            "mission.photo", lambda v, t: None
        )
        # The polled .latest() read is the served-from-cache path the
        # var-validity spec guards.
        s.ctx.every(0.5, lambda: s.sub.latest())

    return ProbeService(f"producer-{zone}", producer), ProbeService(
        f"consumer-{zone}", consumer
    )


def build_fleet(seed, zones=ZONES):
    runtime = SimRuntime(seed=seed, zone_isolation=True)
    for z in range(zones):
        zone = f"z{z}"
        runtime.add_container(
            f"relay-{zone}",
            fleet=FleetConfig(zone=zone, role="relay"),
            **FLEET_TIMING,
        )
        for i in range(UAVS_PER_ZONE):
            runtime.add_container(
                f"uav-{zone}-{i:02d}",
                fleet=FleetConfig(zone=zone),
                **FLEET_TIMING,
            )
    runtime.add_container(
        "ground", fleet=FleetConfig(zone="gs", role="ground"), **FLEET_TIMING
    )
    services = {}
    for z in range(zones):
        zone = f"z{z}"
        producer, consumer = _zone_services(zone)
        runtime.container(f"uav-{zone}-00").install_service(producer)
        runtime.container(f"uav-{zone}-01").install_service(consumer)
        services[zone] = (producer, consumer)
    # One RPC pair inside z0 keeps the invocation-termination spec honest.
    runtime.container("relay-z0").install_service(
        ProbeService(
            "compute",
            lambda s: s.ctx.provide_function(
                "verify.compute", lambda: "ok", params=[], result=STRING
            ),
        )
    )

    def caller_setup(s):
        def call():
            if s.ctx.now() >= TRAFFIC_START:
                s.call_recorded("verify.compute", timeout=1.0)

        s.ctx.every(1.0, call)

    caller = ProbeService("caller", caller_setup)
    runtime.container("uav-z0-03").install_service(caller)
    services["caller"] = caller
    return runtime, services


def error_violations(monitor):
    return [v for v in monitor.violations if v.severity == "error"]


@pytest.mark.chaos
class TestMissionSpecsAtScale:
    """Six specs over 201 containers under attack: the defended fleet's
    contracts hold online, not just in the post-mortem."""

    def test_defended_fleet_is_violation_free(self):
        runtime, services = build_fleet(seed=20260)
        personas = [
            Flooder(runtime, target="uav-z0-00", rate=1500.0, duration=5.0),
            MaliciousNacker(
                runtime,
                target="uav-z0-00",
                spoof="uav-z0-01",
                rate=200.0,
                duration=5.0,
            ),
        ]
        campaign = ChaosCampaign(
            runtime,
            profile=ChaosProfile(
                start=10.0, duration=6.0,
                crash_storms=0, container_crashes=0,
                link_flaps=0, partitions=0,
            ),
            personas=personas,
        )
        campaign.schedule()
        checker = InvariantChecker(runtime)
        monitor = runtime.enable_verification(
            standard_specs() + [photo_spec()]
        )
        checker.attach_monitor(monitor)
        runtime.start()
        runtime.enable_admission()
        runtime.harden_reliability()
        campaign.run(settle=6.0)

        assert len(monitor.specs) >= 5
        report = runtime.verification_report()
        assert error_violations(monitor) == [], report["violations"]
        # The stream was actually observed at fleet scale, and the data
        # plane actually ran: telemetry served, photos delivered, calls
        # terminated.
        assert report["events_observed"] > 1000
        assert services["caller"].results
        # The differential oracle agrees: hand-written invariants green too.
        assert checker.check() == []

    def test_injected_validity_bug_caught_with_attribution(self, monkeypatch):
        from repro.primitives.variables import VariableManager

        runtime, services = build_fleet(seed=20261, zones=2)
        monitor = runtime.enable_verification(standard_specs())
        runtime.start()
        runtime.run_for(TRAFFIC_START + 3.0)
        assert error_violations(monitor) == []

        # Break the serve-freshness predicate fleet-wide, then mute the z1
        # producer (its provision — and thus the validity window — stays
        # announced) so the consumer's polled reads go stale.
        monkeypatch.setattr(
            VariableManager, "_fresh", lambda self, sub, validity, age: True
        )
        services["z1"][0].muted = True
        runtime.run_for(4.0)  # validity is 2.0 s; the cached sample ages out

        consumer_container = runtime.container("uav-z1-01")
        caught = [v for v in error_violations(monitor) if v.spec == "var-validity"]
        assert caught, "the broken freshness predicate must be caught online"
        assert {v.container for v in caught} == {"uav-z1-01"}
        assert all(v.key == "fleet.telemetry" for v in caught)

        # A traced read carries the causing span into the violation.
        tracer = consumer_container.tracer
        tracer.enabled = True
        span = tracer.start_span("stale-read", kind="test")
        with tracer.activate(span.context()):
            value = services["z1"][1].sub.latest()
        tracer.finish(span)
        assert value is not None  # the bug really served a stale sample
        traced = [v for v in monitor.violations if v.trace_id is not None]
        assert traced and traced[-1].span_id == span.span_id
        # The flight recorder on the victim container has the full story.
        entries = [
            e
            for e in consumer_container.recorder.dump()
            if e["category"] == "verify.violation"
        ]
        assert entries and entries[-1]["span_id"] == span.span_id


@pytest.mark.chaos
class TestInvariantOracleAgreement:
    """The compiled specs and the hand-written InvariantChecker watch the
    same seeded chaos campaigns and must return the same verdict."""

    @pytest.mark.parametrize("seed", [77, 171])
    def test_green_agreement_through_chaos(self, seed):
        from integration.test_chaos import (
            PROFILE,
            build_domain,
            install_consumer,
        )

        runtime = build_domain(seed)
        campaign = ChaosCampaign(runtime, profile=PROFILE, protected=("delta",))
        campaign.schedule()
        install_consumer(runtime, deadline=campaign.horizon + 2.0)
        checker = InvariantChecker(runtime)
        monitor = runtime.enable_verification(standard_specs())
        checker.attach_monitor(monitor)
        runtime.start()
        campaign.run(settle=8.0)
        # Specs green, checker green, and the checker's merged report
        # (which now folds in the monitor) green too: full agreement.
        assert error_violations(monitor) == []
        assert checker.check() == []
        assert monitor.engine.events_observed > 0

    def test_red_agreement_on_leaked_invocation(self):
        from integration.test_chaos import build_domain

        runtime = build_domain(seed=5)
        # A tight bound so the spec's deadline and the checker's pending-call
        # sweep go red at the same observation instant.
        monitor = runtime.enable_verification(
            [invocation_termination(within=0.25)]
        )
        checker = InvariantChecker(runtime)
        checker.attach_monitor(monitor)
        consumer = ProbeService("consumer")
        runtime.container("delta").install_service(consumer)
        runtime.start()
        runtime.run_for(3.0)
        # Cut the consumer off, then fire a long-timeout call into the
        # void: it outlives the spec's bound and the checker's patience.
        FaultInjector(runtime).partition(
            0.0, ["delta"], ["alpha", "beta", "gamma"]
        )
        runtime.run_for(0.5)
        consumer.call_recorded("chaos.compute", timeout=30.0)
        runtime.run_for(0.5)

        oracle = checker.check_invocations_terminated()
        assert any("never terminated" in v for v in oracle)
        monitor.finish(runtime.sim.now())
        spec_verdict = [
            v for v in monitor.violations
            if v.spec == "invocation-termination"
            and v.reason == "response-timeout"
        ]
        assert spec_verdict, "the spec must flag what the oracle flags"
        assert spec_verdict[0].container == "delta"
        # And the checker's merged report names the spec violation with
        # container attribution.
        merged = checker.check()
        assert any("spec invocation-termination" in v for v in merged)


class TestAsyncRuntimeSmoke:
    """The monitors are runtime-agnostic: same taps over real UDP sockets."""

    def test_specs_armed_over_udp(self):
        fast = dict(
            announce_interval=0.2,
            heartbeat_interval=0.05,
            liveness_timeout=0.5,
            housekeeping_interval=0.1,
        )
        runtime = AsyncRuntime()
        try:
            a = runtime.add_container("a", **fast)
            b = runtime.add_container("b", **fast)
            pub = ProbeService(
                "pub",
                lambda s: setattr(
                    s,
                    "handle",
                    s.ctx.provide_variable("test.var", SCHEMA, validity=5.0),
                ),
            )
            sub = ProbeService("sub", lambda s: s.watch_variable("test.var"))
            a.install_service(pub)
            b.install_service(sub)
            monitor = FleetMonitor(standard_specs())
            monitor.attach_runtime(runtime)
            runtime.start()
            assert runtime.run_until(
                lambda: bool(b.directory.providers_of_variable("test.var")),
                timeout=5.0,
            )
            runtime.on_reactor(lambda: pub.handle.publish({"x": 1.0}))
            assert runtime.run_until(lambda: len(sub.samples) >= 1, timeout=5.0)
            monitor.finish()
            assert [v for v in monitor.violations if v.severity == "error"] == []
            assert monitor.engine.events_observed > 0
        finally:
            runtime.stop()


def _packet_trace(configure):
    """Four containers exchanging telemetry; returns the full packet trace
    (source, destination, payload bytes, timings)."""
    reset_uid_counter()
    runtime = SimRuntime(seed=77)
    trace = runtime.network.enable_trace()
    for i in range(4):
        runtime.add_container(f"m{i}")
    pub = ProbeService(
        "pub",
        lambda s: setattr(
            s,
            "handle",
            s.ctx.provide_variable("p.var", SCHEMA, validity=2.0, period=0.5),
        ),
    )
    runtime.container("m0").install_service(pub)
    runtime.container("m1").install_service(
        ProbeService("sub", lambda s: s.watch_variable("p.var"))
    )
    runtime.sim.schedule(1.5, lambda: pub.handle.publish({"x": 4.2}))
    configure(runtime)
    runtime.start()
    runtime.run_for(3.0)
    runtime.containers["m3"].stop()
    runtime.run_for(1.0)
    return [
        (str(p.source), str(p.destination), p.payload, p.sent_at, p.delivered_at)
        for p in trace
    ]


class TestWireInertness:
    """Armed monitors (and dormant span listeners) never touch the wire."""

    def test_armed_verification_is_packet_trace_identical(self):
        baseline = _packet_trace(lambda runtime: None)
        assert any(p[2] for p in baseline)  # real traffic flowed

        armed = _packet_trace(
            lambda runtime: runtime.enable_verification(standard_specs())
        )
        assert armed == baseline

    def test_subscribed_but_disabled_tracer_is_byte_identical(self):
        baseline = _packet_trace(lambda runtime: None)

        def with_dormant_listener(runtime):
            for container in runtime.containers.values():
                container.tracer.subscribe(lambda span, phase: None)

        assert _packet_trace(with_dormant_listener) == baseline
