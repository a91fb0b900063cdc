"""Adversarial chaos: attacker personas against a defended fleet.

The acceptance shape of the robustness PR: a seeded campaign looses a
volumetric :class:`Flooder` and a :class:`MaliciousNacker` on a mission
whose victim container sits behind a shaped (bandwidth-limited) uplink —
the topology where an undefended flood demonstrably starves the victim's
own traffic, because every attack frame buys a band-0 ACK that competes
with everything the victim needs to say. With admission control and
reliability hardening armed:

- the invariant checker stays green, including the control-plane
  liveness watch (no healthy container ever looks dead to a peer);
- control-band work keeps flowing: RPC calls issued *by the victim*
  complete >= 99% with bounded p99 tail;
- data keeps flowing: event goodput stays near-perfect while the
  undefended twin of the same scenario measurably collapses;
- every violation record carries the attacking source id and band, so a
  red check points at the culprit, not just the symptom.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.encoding.types import STRING
from repro.faults import ChaosCampaign, ChaosProfile, Flooder, InvariantChecker, MaliciousNacker

#: Attack-only campaign: no crash/link faults, so any red invariant is
#: attributable to the personas (and any green one to the defenses).
ATTACK_PROFILE = ChaosProfile(
    start=2.0,
    duration=8.0,
    crash_storms=0,
    container_crashes=0,
    link_flaps=0,
    partitions=0,
)

EVENT_PERIOD = 0.02  # victim publishes at 50 Hz
CALL_PERIOD = 0.5


def build_domain(seed):
    """Victim publisher behind a shaped uplink, plus subscriber and RPC peer.

    The shaped egress (150 kbit/s, short band queues) is what makes the
    flood dangerous: undefended, the victim's forced band-0 ACK responses
    crowd its own events and calls off the uplink.
    """
    runtime = SimRuntime(seed=seed)
    victim = runtime.add_container(
        "victim", egress_rate_bps=150_000.0, egress_queue_limit=64
    )
    runtime.add_container("observer")
    runtime.add_container("ground")
    # ``deadline`` is set once the campaign horizon is known: the victim
    # stops issuing calls/events before the settle window ends, so every
    # invocation terminates before the invariant check runs.
    state = {"sent": 0, "deadline": float("inf")}

    def victim_setup(s):
        s.handle = s.ctx.provide_event("adv.telemetry", STRING)

        def publish():
            # Publishing (like calling, below) starts once discovery has
            # converged: the observer's SUBSCRIBE lands ~t=1.0, and events
            # raised before it are legitimately unrouted, not attack loss.
            # The attack window opens at t=2.0 too, so every attacked
            # second is still measured.
            if not (2.0 <= s.ctx.now() < state["deadline"]):
                return
            state["sent"] += 1
            s.handle.raise_event(f"evt-{state['sent']}")

        def call():
            # Calls start once discovery has converged (the attack window
            # opens at t=2.0 too, so every attacked second is covered).
            if 2.0 <= s.ctx.now() < state["deadline"]:
                s.call_recorded("adv.compute", timeout=1.0)

        s.ctx.every(EVENT_PERIOD, publish)
        s.ctx.every(CALL_PERIOD, call)

    publisher = ProbeService("telemetry", victim_setup)
    subscriber = ProbeService("consumer", lambda s: s.watch_event("adv.telemetry"))
    provider = ProbeService(
        "compute",
        lambda s: s.ctx.provide_function(
            "adv.compute", lambda: "ok", params=[], result=STRING
        ),
    )
    victim.install_service(publisher)
    runtime.container("observer").install_service(subscriber)
    runtime.container("ground").install_service(provider)
    return runtime, publisher, subscriber, state


def make_personas(runtime):
    flooder = Flooder(
        runtime, target="victim", rate=2500.0, duration=5.0
    )
    nacker = MaliciousNacker(
        runtime, target="victim", spoof="observer", rate=300.0, duration=5.0
    )
    return [flooder, nacker]


@pytest.mark.chaos
class TestDefendedFleetUnderAttack:
    def run_campaign(self, seed=101, defended=True):
        runtime, publisher, subscriber, state = build_domain(seed)
        personas = make_personas(runtime)
        campaign = ChaosCampaign(
            runtime, profile=ATTACK_PROFILE, personas=personas
        )
        campaign.schedule()
        state["deadline"] = campaign.horizon + 2.0
        # Snapshot goodput at the instant the flood ends: reliable events
        # all arrive *eventually*, so collapse is visible only as backlog
        # at the height of the attack.
        flooder = personas[0]
        snapshot = {}

        def snap():
            snapshot["published"] = state["sent"]
            snapshot["delivered"] = len(subscriber.events)

        runtime.sim.schedule(flooder.start + flooder.duration, snap)
        state["flood_snapshot"] = snapshot
        checker = InvariantChecker(runtime)
        checker.watch_control_liveness()
        if defended:
            # The defended fleet also flies with the standard temporal
            # specs armed: exactly-once under replay attack, bounded
            # invocation termination, lifecycle legality — checked online
            # and folded into checker.check() as the differential oracle.
            from repro.verify.library import standard_specs

            checker.attach_monitor(
                runtime.enable_verification(standard_specs())
            )
        runtime.start()
        if defended:
            runtime.enable_admission()
            runtime.harden_reliability()
        campaign.run(settle=6.0)
        runtime.stop()
        return runtime, campaign, checker, publisher, subscriber, state, personas

    def test_invariants_green_and_attack_absorbed(self):
        (
            runtime,
            campaign,
            checker,
            publisher,
            subscriber,
            state,
            personas,
        ) = self.run_campaign()
        flooder, nacker = personas

        # The attacks actually fired at scale.
        assert any("attack flooder" in line for line in campaign.plan)
        assert any("attack nacker" in line for line in campaign.plan)
        assert flooder.frames_sent > 5000
        assert nacker.frames_sent > 500

        # Every section-3 contract held, the liveness watch included: no
        # healthy container ever looked dead to a peer during the attack.
        assert checker.check() == []

        # Control-band work from the victim kept flowing: >= 99% of its
        # RPC calls completed, with a bounded tail.
        calls = len(publisher.results) + len(publisher.errors)
        assert calls > 10
        assert len(publisher.results) / calls >= 0.99
        # The tail is bounded by the residual ACK burst the replay horizon
        # allows (~REPLAY_WINDOW frames on the shaped uplink, ~1s here);
        # undefended, these calls do not complete at all.
        assert checker.check_rpc_p99(1.5) == []

        # Data-band goodput survived: the subscriber saw >= 99% of what
        # the victim published — and was already nearly caught up at the
        # very height of the flood, not just after recovery.
        delivered = len(subscriber.events_of("adv.telemetry"))
        assert state["sent"] > 300
        assert delivered / state["sent"] >= 0.99
        snapshot = state["flood_snapshot"]
        assert snapshot["delivered"] / snapshot["published"] >= 0.90

        # The defenses, not luck: admission shed flood volume at the door,
        # and the NACK-storm suppressor throttled the forged NACKs.
        victim = runtime.container("victim")
        assert victim.admission.dropped > 1000
        drops = victim.metrics.counter_value(
            "admission_drops", source=flooder.identity, band="1", reason="band-rate"
        )
        assert drops > 0
        abuse = sum(
            metric.value
            for (kind, name, labels), metric in victim.metrics.items()
            if kind == "counter" and name == "reliability_abuse"
        )
        assert abuse > 0

    def test_violations_carry_attacker_attribution(self):
        runtime, campaign, checker, publisher, *_, personas = self.run_campaign()
        flooder, _ = personas
        # The victim's counters identify the dominant attacker and band.
        attacker, band = checker._attacker_of("victim")
        assert attacker == flooder.identity
        assert band == "1"
        # Force a violation against the victim (an impossible p99 bound):
        # the structured record names the attacking source and band.
        checker.check_rpc_p99(0.0)
        records = [
            r
            for r in checker.records
            if r["container"] == "victim" and "rpc p99" in r["message"]
        ]
        assert records
        assert records[0]["attacker"] == flooder.identity
        assert records[0]["band"] == "1"

    def test_same_seed_same_attack_schedule(self):
        plans = []
        for _ in range(2):
            runtime, *_ = build_domain(seed=101)
            campaign = ChaosCampaign(
                runtime, profile=ATTACK_PROFILE, personas=make_personas(runtime)
            )
            plans.append(campaign.schedule())
        assert plans[0] == plans[1]

    def test_undefended_twin_measurably_collapses(self):
        # The control experiment: same seed, same attack, defenses off.
        # Without it the defended assertions could pass vacuously against
        # a toothless attack. Goodput is judged inside the flood window —
        # outside it the victim trivially recovers.
        *_, subscriber, state, personas = self.run_campaign(defended=False)
        snapshot = state["flood_snapshot"]
        assert snapshot["published"] > 100
        assert snapshot["delivered"] / snapshot["published"] < 0.60
