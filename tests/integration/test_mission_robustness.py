"""Mission-control robustness: late payload start, missed fixes, partitions."""

import sys
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro import SimRuntime
from repro.encoding.types import STRING
from repro.faults import FaultInjector
from repro.flight import FlightPlan, GeoPoint, KinematicUav, Waypoint, WaypointAction
from repro.flight.geodesy import destination_point
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.mission import MissionControlService
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService


def plan_with_photo_at_start():
    """Waypoint 0 is both the launch point and a photo waypoint — the UAV
    leaves its capture radius before the payload finishes initializing."""
    origin = GeoPoint(41.0, 2.0, 300.0)
    return FlightPlan(
        waypoints=[
            Waypoint(origin, action=WaypointAction.TAKE_PHOTO, name="launch-photo"),
            Waypoint(destination_point(origin, 90, 500), name="east"),
        ],
        name="photo-at-launch",
    )


class TestLateInitialization:
    def test_photo_at_launch_is_queued_until_payload_ready(self):
        runtime = SimRuntime(seed=6)
        plan = plan_with_photo_at_start()
        fcs = runtime.add_container("fcs")
        payload = runtime.add_container("payload")
        mc = MissionControlService(plan)
        camera = CameraService()
        fcs.install_service(GpsService(KinematicUav(plan)))
        fcs.install_service(mc)
        payload.install_service(camera)
        payload.install_service(StorageService())
        payload.install_service(VideoProcessingService())
        runtime.start()
        assert runtime.run_until(lambda: mc.complete, timeout=120.0)
        runtime.run_for(3.0)
        # The launch photo was requested late but never lost.
        assert 0 in mc.photos_requested
        assert camera.photos_taken == 1

    def test_missed_waypoint_is_skipped_not_wedged(self):
        # Feed positions directly: the fix at the middle waypoint is lost
        # (the published track jumps straight from "start" to "end").
        from repro.encoding.schema import POSITION_SCHEMA

        origin = GeoPoint(41.0, 2.0, 300.0)
        plan = FlightPlan(
            waypoints=[
                Waypoint(origin, capture_radius_m=50, name="start"),
                Waypoint(destination_point(origin, 90, 400),
                         capture_radius_m=10.0, name="needle"),
                Waypoint(destination_point(origin, 90, 800),
                         capture_radius_m=50, name="end"),
            ],
        )
        runtime = SimRuntime(seed=6)
        fcs = runtime.add_container("fcs")
        mc = MissionControlService(plan)
        feeder = ProbeService("feeder", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("gps.position", POSITION_SCHEMA)
        ))
        fcs.install_service(feeder)
        fcs.install_service(mc)
        payload = runtime.add_container("payload")
        payload.install_service(CameraService())
        payload.install_service(StorageService())
        payload.install_service(VideoProcessingService())
        runtime.start()
        runtime.run_until(lambda: mc.initialized, timeout=30.0)

        def fix(point):
            feeder.handle.publish({
                "lat": point.lat, "lon": point.lon, "alt": point.alt,
                "ground_speed": 25.0, "heading": 90.0,
                "timestamp": runtime.sim.now(),
            })
            runtime.run_for(0.2)

        fix(origin)  # captures "start"
        fix(destination_point(origin, 90, 800))  # lands inside "end"
        runtime.run_for(1.0)
        assert mc.complete
        assert mc.missed_waypoints == [1]


class TestPartition:
    def test_partition_and_heal(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("p.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("p.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        injector = FaultInjector(runtime)
        injector.partition(0.0, ["a"], ["b"], duration=5.0)
        runtime.run_for(3.0)
        # Both sides declared the other dead.
        assert not a.directory.record("b").alive
        assert not b.directory.record("a").alive
        runtime.run_for(5.0)  # healed at t=5; announces resume
        assert a.directory.record("b").alive
        assert b.directory.record("a").alive
        # The subscription re-established itself after the heal.
        pub.handle.raise_event("after heal")
        runtime.run_for(2.0)
        assert "after heal" in sub.events_of("p.evt")

    def test_events_during_partition_fail_cleanly(self):
        runtime, a, b = two_containers()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("p.evt", STRING)
        ))
        sub = ProbeService("sub", lambda s: s.watch_event("p.evt"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        FaultInjector(runtime).partition(0.0, ["a"], ["b"])  # permanent
        runtime.run_for(3.0)
        # Raising into the partition neither delivers nor crashes; the dead
        # subscriber was dropped from the publication (§3 cache clearing).
        pub.handle.raise_event("into the void")
        runtime.run_for(5.0)
        assert "into the void" not in sub.events_of("p.evt")
        assert "b" not in pub.handle.subscribers


class TestPositionTimeout:
    def test_silent_gps_raises_one_timeout_warning(self):
        """The GPS receiver loses its fix: its offer stands but no sample
        arrives. The mission service's ``_on_position_timeout`` fires once
        the subscription has heard nothing for three publication periods,
        which is inside the validity window GPS declares for the position:
        by the end of that window ``position_timeouts`` is 1 and a warning
        is logged."""
        runtime = SimRuntime(seed=8)
        plan = plan_with_photo_at_start()
        fcs = runtime.add_container("fcs")
        gps = GpsService(KinematicUav(plan))
        mission = MissionControlService(plan)
        fcs.install_service(gps)
        fcs.install_service(mission)
        runtime.start()
        runtime.run_for(2.0)
        assert mission.position_timeouts == 0
        gps._ticker.cancel()  # the offer stands; the samples stop
        runtime.run_for(2.5 / gps.rate_hz)  # quiet for less than three periods
        assert mission.position_timeouts == 0
        runtime.run_for(gps.validity - 2.5 / gps.rate_hz)
        assert mission.position_timeouts == 1
        warnings = [line for _, line in mission.ctx.log_lines if line.startswith("WARNING")]
        assert warnings == ["WARNING: gps.position samples stopped arriving"]
        assert fcs.service_state("mission").name == "RUNNING"
