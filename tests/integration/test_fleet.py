"""Fleet-scale integration: a 200-container federated mission under chaos.

The fleet is organised UAV → relay → ground station: ten zones of UAVs,
each bridged onto the backbone by a relay, plus a ground-station container.
Raw announce/heartbeat traffic stays inside each zone; zone summaries
travel the backbone. The campaign flaps links (including a backbone link
between relays) and restarts one relay outright; afterwards every §3
contract must hold and the directories must reconverge within a bounded
window. A second test replays the same fleet twice and demands bit-identical
outcomes (the determinism contract at scale)."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.container.fleet import FleetConfig
from repro.encoding.types import FLOAT64, StructType
from repro.faults import ChaosCampaign, ChaosProfile, InvariantChecker
from repro.transport.addressing import Address
from repro.util.ids import reset_uid_counter

SCHEMA = StructType("Telemetry", [("x", FLOAT64)])

ZONES = 10
UAVS_PER_ZONE = 19  # + 1 relay per zone + 1 ground station = 201 containers

#: Fleet-paced control intervals: at 200 containers the default 0.25 s
#: heartbeat would dominate the event count without testing anything more.
FLEET_TIMING = dict(
    announce_interval=5.0,
    heartbeat_interval=1.0,
    liveness_timeout=4.0,
    housekeeping_interval=2.0,
)


def telemetry(tag):
    def setup(s):
        s.handle = s.ctx.provide_variable(
            "fleet.telemetry", SCHEMA, validity=5.0, period=1.0
        )
        s.ctx.every(1.0, lambda: s.handle.publish({"x": tag}))

    return setup


def zone_name(z):
    return f"z{z}"


def build_fleet(seed):
    runtime = SimRuntime(seed=seed, zone_isolation=True)
    for z in range(ZONES):
        zone = zone_name(z)
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
        "ground",
        fleet=FleetConfig(zone="gs", role="ground"),
        **FLEET_TIMING,
    )
    # A telemetry provider per zone keeps a data plane alive through the
    # chaos (one per zone: the point is the control plane at scale).
    for z in range(ZONES):
        runtime.container(f"uav-{zone_name(z)}-00").install_service(
            ProbeService(f"telemetry-{z}", telemetry(float(z)))
        )
    return runtime


def zone_members(runtime):
    members = {}
    for cid, container in runtime.containers.items():
        members.setdefault(container.config.fleet.zone, []).append(cid)
    return members


def zones_converged(runtime):
    """Every running container sees every running zone peer alive."""
    for zone, ids in zone_members(runtime).items():
        running = [c for c in ids if runtime.containers[c].running]
        for a in running:
            directory = runtime.containers[a].directory
            for b in running:
                if a == b:
                    continue
                record = directory.record(b)
                if record is None or not record.alive:
                    return False
    return True


@pytest.mark.chaos
def test_federated_fleet_survives_flaps_and_relay_restart():
    runtime = build_fleet(seed=1234)
    checker = InvariantChecker(runtime)
    runtime.start()
    runtime.settle(8.0)
    assert zones_converged(runtime)

    profile = ChaosProfile(
        start=2.0,
        duration=6.0,
        crash_storms=0,
        container_crashes=0,
        link_flaps=3,
        flap_cycles=(2, 3),
        partitions=0,
    )
    campaign = ChaosCampaign(runtime, profile)
    campaign.schedule()
    # Guarantee the chaos touches the hierarchy where it hurts: a backbone
    # link between two relays flaps, and one relay restarts outright.
    campaign.injector.flap_link(
        2.5, "relay-z0", "relay-z1", loss=1.0, down=0.5, up=0.5, cycles=3
    )
    restarted = runtime.container("relay-z3")
    campaign.injector.stop_container(3.0, "relay-z3")
    runtime.sim.schedule(5.0, restarted.start)
    campaign.horizon = max(campaign.horizon, 5.0)

    campaign.run(settle=6.0)
    assert restarted.running

    # Bounded convergence after the flap: the whole fleet must reconverge
    # within one announce interval plus slack, not eventually-maybe.
    t0 = runtime.sim.now()
    assert runtime.run_until(lambda: zones_converged(runtime), timeout=12.0)
    assert runtime.sim.now() - t0 <= 12.0
    # Give cross-zone summaries one more period to refresh, then judge.
    runtime.run_for(3.0)

    violations = checker.check()
    assert violations == [], "\n".join(violations)

    # The restarted relay came back with a new incarnation and its zone
    # noticed (stream state was reset, record is fresh).
    peer = runtime.container("uav-z3-00")
    record = peer.directory.record("relay-z3")
    assert record is not None and record.alive
    assert record.incarnation == 2
    # Federation held: the ground station knows every zone.
    assert set(runtime.container("ground").directory.known_zones()) >= {
        zone_name(z) for z in range(ZONES)
    }


@pytest.mark.chaos
def test_fleet_replay_is_bit_identical_at_scale():
    def run_once():
        reset_uid_counter()
        runtime = build_fleet(seed=77)
        runtime.start()
        runtime.run_for(6.0)
        runtime.container("uav-z2-05").stop()
        runtime.run_for(4.0)
        views = {
            cid: sorted(
                (r.container, r.incarnation, r.alive, r.last_seen)
                for r in runtime.containers[cid].directory.all_records()
            )
            for cid in ("relay-z0", "uav-z2-00", "ground")
        }
        return views, runtime.metrics_snapshot(), runtime.sim.events_executed

    first = run_once()
    second = run_once()
    assert first[2] == second[2]
    assert first[0] == second[0]
    assert first[1] == second[1]


#: SHA-256 over every delivered packet (endpoints, both instants as hex
#: floats, payload bytes) of the run below, recorded at the commit before
#: zone summaries were kept in wire form: how a receiver holds a summary
#: must not move one byte or one instant on the wire.
FEDERATED_TRACE = (
    21472,
    22950,
    "6766faf04863c047177a5d20b6cad5903eb6666ab3a1c88b7bea61c2658f5c65",
)


def test_federated_packet_trace_matches_the_recorded_digest():
    reset_uid_counter()
    runtime = SimRuntime(seed=9, zone_isolation=True)
    trace = runtime.network.enable_trace()
    for z in range(6):
        zone = zone_name(z)
        runtime.add_container(
            f"relay-{zone}", fleet=FleetConfig(zone=zone, role="relay"), **FLEET_TIMING
        )
        for i in range(UAVS_PER_ZONE):
            runtime.add_container(
                f"uav-{zone}-{i:02d}", fleet=FleetConfig(zone=zone), **FLEET_TIMING
            )
    runtime.start()
    runtime.run_for(3.5)
    # Two membership changes after the first-sight spread: a member leaves
    # (its zone's summary changes, every relay forwards it once more) and
    # comes back with a new incarnation.
    runtime.container("uav-z2-05").stop()
    runtime.run_for(2.0)
    runtime.container("uav-z2-05").start()
    runtime.run_for(2.0)
    digest = hashlib.sha256()
    for p in trace:
        digest.update(
            f"{p.source}>{p.destination}@{p.sent_at.hex()}/{p.delivered_at.hex()}:".encode()
        )
        digest.update(p.payload)
    assert (len(trace), runtime.sim.events_executed, digest.hexdigest()) == FEDERATED_TRACE
    # And the summaries still route across zones, restarted member included.
    directory = runtime.container("uav-z0-00").directory
    assert directory.record("uav-z3-05") is None
    assert directory.address_of("uav-z3-05") == Address("uav-z3-05", 47000)
    assert directory.address_of("uav-z2-05") == Address("uav-z2-05", 47000)
    members = directory.zone_summaries["z2"]["members"]
    assert {"uav-z2-05": 2} == {
        m["container"]: m["incarnation"] for m in members if m["container"] == "uav-z2-05"
    }
