#!/usr/bin/env python
"""The paper's §5 application example (Figure 3): the image-processing mission.

Three nodes — flight computer, payload computer, ground station — run six
services. The Mission Control follows a survey flight plan, commands photos
at designated waypoints (events), the camera publishes them via multicast
file transfer to Storage and the FPGA-simulating Video Processing service,
and detections flow back to Mission Control and the Ground Station.

Run:  python examples/image_mission.py
"""

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.ground import GroundStationService
from repro.services.mission import MissionControlService
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService


def main():
    runtime = SimRuntime(seed=2026)

    # A 2-row survey over Castelldefels (the authors' campus), 3 photo
    # points per row. Waypoints 2 and 9 photograph "interesting" terrain.
    plan = survey_plan(
        GeoPoint(41.275, 1.985),
        rows=2,
        row_length_m=800,
        row_spacing_m=250,
        photos_per_row=3,
    )
    print(f"flight plan: {len(plan)} waypoints, "
          f"{len(plan.photo_waypoints)} photos, "
          f"{plan.total_length_m():.0f} m track")

    fcs = runtime.add_container("fcs")  # flight computer
    payload = runtime.add_container("payload")  # payload computer (FPGA here)
    ground = runtime.add_container("ground")  # ground station over the radio

    mission = MissionControlService(plan, detection_threshold=0.3)
    camera = CameraService(
        default_features=0,
        features_at={plan.photo_waypoints[0]: 4, plan.photo_waypoints[-1]: 6},
    )
    storage = StorageService()
    video = VideoProcessingService()
    station = GroundStationService()

    fcs.install_service(GpsService(KinematicUav(plan)))
    fcs.install_service(mission)
    payload.install_service(camera)
    payload.install_service(storage)
    payload.install_service(video)
    ground.install_service(station)

    runtime.start()
    completed = runtime.run_until(lambda: mission.complete, timeout=600.0)
    runtime.run_for(5.0)  # let the tail of the pipeline drain
    runtime.stop()

    print(f"\nmission {'completed' if completed else 'DID NOT complete'} "
          f"at t={runtime.sim.now():.1f} s (virtual)")
    print(f"photos taken: {camera.photos_taken}")
    print(f"stored objects: {storage.stored_names()}")
    print(f"frames processed: {video.frames_processed}, "
          f"detections: {video.detections}")
    print(f"position samples logged: "
          f"{len(storage.variable_log('gps.position'))}")

    stats = runtime.network.stats.snapshot()
    print(f"\nwire: {stats['emissions']} emissions / "
          f"{stats['emitted_bytes']} B emitted, "
          f"{stats['deliveries']} deliveries")

    print("\n=== ground station terminal (last 20 lines) ===")
    for t, line in station.terminal()[-20:]:
        print(f"{t:7.2f}  {line}")


if __name__ == "__main__":
    main()
