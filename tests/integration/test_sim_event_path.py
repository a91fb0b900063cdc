"""The simulated kernel event, counted.

A ``SimRuntime`` fleet is kernel events: heartbeats and announces leave on
timers, and an emission's copies arrive in one kernel event per arrival
instant. The heap is ordered by ``(time, seq)`` tuples in C, a same-instant
delivery group is a bound method and its argument (no closure), the link's
loss and jitter draws are inlined, and the control records' decoders are
bound once. Python-level calls per kernel event are the count that regresses
when a Python-level heap comparison, a per-delivery closure or a wrapper
creeps back in; exact and repeatable on ``SimRuntime``, unlike a wall-clock
rate.
"""

from repro import SimRuntime
from repro.container.fleet import FleetConfig
from tests.integration.test_reliable_path import _busiest, _called, _counted

#: The suite's one configuration (benchmarks/suite/conditions.py FAST_PLANE)
#: with the fleet's control intervals (its ``FleetSim.TIMING``).
FLEET_CONFIG = dict(
    codec="compiled", batching_enabled=True,
    ack_coalesce_delay=0.002,
    announce_interval=5.0, heartbeat_interval=1.0,
    liveness_timeout=4.0, housekeeping_interval=2.0,
)
CONTAINERS = 40
ZONE_SIZE = 20
#: The suite's mission: 3 s settle and 2 s mission of virtual time.
MISSION_S = 5.0

#: This mission executes exactly this many kernel events; the kernel and
#: the network may get cheaper, never schedule differently.
EVENTS_EXECUTED = 4_170

#: Python-level calls per kernel event on this mission: 50.29 when the heap
#: compared Python event objects and each delivery group was a closure with
#: a six-call loss and jitter draw, 24.55 with tuple entries, bound
#: deliveries, inline draws and bound record decoders.
#: ``MAX_CALLS_PER_KERNEL_EVENT`` sits midway between the two.
PARENT_CALLS_PER_KERNEL_EVENT = 50.29
MAX_CALLS_PER_KERNEL_EVENT = 37.4


def _zoned_fleet():
    """Zones of ``ZONE_SIZE`` (a relay and its UAVs), zone isolation on,
    started. -> the runtime."""
    runtime = SimRuntime(seed=3, zone_isolation=True)
    for z in range(CONTAINERS // ZONE_SIZE):
        zone = f"z{z}"
        runtime.add_container(
            f"relay-{zone}", fleet=FleetConfig(zone=zone, role="relay"), **FLEET_CONFIG
        )
        for i in range(ZONE_SIZE - 1):
            runtime.add_container(
                f"uav-{zone}-{i:02d}", fleet=FleetConfig(zone=zone), **FLEET_CONFIG
            )
    runtime.start()
    return runtime


class TestCallsPerKernelEvent:
    def test_a_zoned_fleet_mission_stays_under_the_bound(self):
        runtime = _zoned_fleet()
        calls, _ = _counted(lambda: runtime.run_for(MISSION_S))
        events = runtime.sim.events_executed
        assert events == EVENTS_EXECUTED
        per_event = sum(calls.values()) / events
        assert per_event <= MAX_CALLS_PER_KERNEL_EVENT, (
            f"{per_event:.2f} Python calls per kernel event "
            f"(bound {MAX_CALLS_PER_KERNEL_EVENT}, "
            f"{PARENT_CALLS_PER_KERNEL_EVENT} before tuple entries):\n"
            + _busiest(calls, events)
        )
        # What the tuple heap and the bound delivery removed stays removed.
        assert _called(calls, "sim/kernel.py", "__lt__") == 0
        assert _called(calls, "simnet/network.py", "deliver") == 0
        assert _called(calls, "util/rng.py", "jittered") == 0
