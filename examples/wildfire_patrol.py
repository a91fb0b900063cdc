#!/usr/bin/env python
"""Wildfire patrol — a second civil mission (§7: "more civil UAV
applications to verify the characteristics of the provided communication
tools").

A UAV loiters over a ridge line with a thermal camera. The patrol service
commands a frame every few seconds (events); frames stream to the ground
over the multicast file primitive as *revisions of one resource* (the §4.4
revision mechanism); a hotspot detector raises alarms; the ground station
can retask the patrol by remote invocation mid-flight.

Everything here is written against the public API only — no middleware
internals — which is the §6 productivity claim in action.

Run:  python examples/wildfire_patrol.py
"""


from repro import Service, SimRuntime
from repro.encoding.schema import parse_type
from repro.encoding.types import BOOL, FLOAT64
from repro.flight import FlightPlan, GeoPoint, KinematicUav, Waypoint, destination_point
from repro.imaging import decode_pgm, detect_features, encode_pgm, generate_image
from repro.services.gps import GpsService

HOTSPOT = parse_type(
    "struct Hotspot { uint32 frame; uint32 count; float64 score; }"
)


def loiter_plan(center: GeoPoint, radius_m: float = 400.0, points: int = 8) -> FlightPlan:
    """A circular loiter approximated by waypoints."""
    waypoints = [
        Waypoint(destination_point(center, i * 360.0 / points, radius_m),
                 capture_radius_m=40.0, name=f"loiter{i}")
        for i in range(points)
    ]
    # Repeat the circle a few times.
    return FlightPlan(waypoints=waypoints * 3, name="loiter")


class ThermalCameraService(Service):
    """Publishes thermal frames as revisions of one file resource."""

    def __init__(self, fire_after_frame: int = 4):
        super().__init__("thermal")
        self.fire_after_frame = fire_after_frame
        self.frames = 0

    def on_start(self):
        self.ctx.acquire_device("thermal0")
        self.ctx.subscribe_event("patrol.frame_request", self._snap)

    def on_stop(self):
        self.ctx.release_device("thermal0")

    def _snap(self, _value, _timestamp):
        self.frames += 1
        # A fire ignites mid-patrol: later frames grow hot spots.
        hotspots = 3 if self.frames >= self.fire_after_frame else 0
        image = generate_image(seed=self.frames, width=96, height=96,
                               features=hotspots, feature_intensity=190.0)
        # One resource, rising revision — §4.4 revision semantics.
        self.ctx.publish_file("thermal.frame", encode_pgm(image))
        self.ctx.log(f"frame {self.frames} published ({hotspots} hot spots)")


class HotspotDetectorService(Service):
    """Watches the thermal stream; raises an alarm event per hot frame."""

    def __init__(self):
        super().__init__("hotspot")
        self.alarms = 0

    def on_start(self):
        self.alarm = self.ctx.provide_event("hotspot.alarm", HOTSPOT)
        self.ctx.subscribe_file("thermal.frame", self._analyze)

    def _analyze(self, data, revision):
        result = detect_features(decode_pgm(data))
        if result.feature_count > 0:
            self.alarms += 1
            self.alarm.raise_event(
                {"frame": revision, "count": result.feature_count,
                 "score": result.score}
            )
            self.ctx.log(f"ALARM frame {revision}: {result.feature_count} hot spots")


class PatrolService(Service):
    """Commands frames on a timer; retaskable via remote invocation."""

    def __init__(self, frame_period: float = 5.0):
        super().__init__("patrol")
        self.frame_period = frame_period
        self._ticker = None

    def on_start(self):
        self.frame_request = self.ctx.provide_event("patrol.frame_request")
        self.ctx.provide_function(
            "patrol.set_rate", self._set_rate, params=[FLOAT64], result=BOOL
        )
        self._arm()

    def _arm(self):
        if self._ticker is not None:
            self._ticker.cancel()
        self._ticker = self.ctx.every(
            self.frame_period, lambda: self.frame_request.raise_event(None)
        )

    def _set_rate(self, period: float) -> bool:
        if period <= 0:
            return False
        self.frame_period = period
        self._arm()
        self.ctx.log(f"retasked: one frame every {period:.1f} s")
        return True


class FireWatchGround(Service):
    """Ground side: on the first alarm, retask the patrol to a fast rate."""

    def __init__(self):
        super().__init__("firewatch")
        self.alarms = []
        self.retasked = False

    def on_start(self):
        self.ctx.subscribe_event("hotspot.alarm", self._on_alarm)

    def _on_alarm(self, payload, _timestamp):
        self.alarms.append(payload)
        self.ctx.log(
            f"alarm: frame {payload['frame']} with {payload['count']} hot spots"
        )
        if not self.retasked:
            self.retasked = True
            self.ctx.call("patrol.set_rate", (1.0,),
                          on_result=lambda ok: self.ctx.log("patrol retasked to 1 Hz"))


def main():
    runtime = SimRuntime(seed=5)
    ridge = GeoPoint(41.32, 1.95, 500.0)
    plan = loiter_plan(ridge)

    uav = runtime.add_container("uav")
    ground = runtime.add_container("ground")

    uav.install_service(GpsService(KinematicUav(plan, cruise_speed=22.0)))
    patrol = PatrolService(frame_period=5.0)
    thermal = ThermalCameraService(fire_after_frame=4)
    uav.install_service(patrol)
    uav.install_service(thermal)
    detector = HotspotDetectorService()
    uav.install_service(detector)
    watch = FireWatchGround()
    ground.install_service(watch)

    runtime.start()
    runtime.run_for(60.0)
    runtime.stop()

    print(f"frames captured: {thermal.frames}")
    print(f"alarms raised:   {detector.alarms}")
    print(f"ground alarms:   {len(watch.alarms)} (retasked: {watch.retasked})")
    print(f"final frame period: {patrol.frame_period:.1f} s\n")
    print("=== firewatch terminal ===")
    for t, line in watch.ctx.log_lines[:10]:
        print(f"{t:6.1f}  {line}")


if __name__ == "__main__":
    main()
