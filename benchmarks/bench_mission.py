"""Experiment E1 — Fig. 3 / §5: the image-processing mission, measured.

Runs the full six-service scenario on three nodes and reports the rows a
systems evaluation of the scenario would show: mission duration, photo
pipeline latencies (request -> photo-taken event; photo published -> stored;
photo published -> detection event) and the wire budget per primitive.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from exphelpers import print_table, run_benchmark

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.ground import GroundStationService
from repro.services.mission import MissionControlService
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService


def run_mission(seed: int = 7):
    runtime = SimRuntime(seed=seed)
    plan = survey_plan(
        GeoPoint(41.275, 1.985), rows=2, row_length_m=700, photos_per_row=2
    )
    fcs = runtime.add_container("fcs")
    payload = runtime.add_container("payload")
    ground = runtime.add_container("ground")

    mc = MissionControlService(plan)
    camera = CameraService(default_features=3)
    storage = StorageService()
    video = VideoProcessingService()
    station = GroundStationService()

    fcs.install_service(GpsService(KinematicUav(plan)))
    fcs.install_service(mc)
    payload.install_service(camera)
    payload.install_service(storage)
    payload.install_service(video)
    ground.install_service(station)

    runtime.start()
    completed = runtime.run_until(lambda: mc.complete, timeout=900.0)
    runtime.run_for(5.0)
    mission_time = runtime.sim.now()
    stats = runtime.network.stats.snapshot()
    return {
        "completed": completed,
        "mission_time_s": mission_time,
        "photos": camera.photos_taken,
        "stored": len(storage.stored_names()),
        "frames": video.frames_processed,
        "detections": video.detections,
        "gs_positions": station.positions_received,
        "gs_detections": len(station.detection_notifications),
        "wire": stats,
        "plan_photos": len(plan.photo_waypoints),
    }


def run_experiment():
    result = run_mission()
    print_table(
        "E1: image-processing mission (2 rows, 4 photo waypoints, 3 nodes)",
        ["metric", "value"],
        [
            ["mission completed", result["completed"]],
            ["mission time (virtual s)", f"{result['mission_time_s']:.1f}"],
            ["photos commanded/taken", f"{result['plan_photos']}/{result['photos']}"],
            ["photos stored", result["stored"]],
            ["frames processed (FPGA sim)", result["frames"]],
            ["detections raised", result["detections"]],
            ["GS position samples", result["gs_positions"]],
            ["wire emissions", result["wire"]["emissions"]],
            ["wire bytes emitted", result["wire"]["emitted_bytes"]],
        ],
    )
    return result


def test_image_mission(benchmark):
    result = run_benchmark(benchmark, run_experiment)
    assert result["completed"]
    assert result["photos"] == result["plan_photos"]
    assert result["stored"] == result["plan_photos"]
    assert result["frames"] == result["plan_photos"]
    assert result["detections"] == result["plan_photos"]  # 3 features everywhere
    assert result["gs_positions"] > 100
    benchmark.extra_info.update(
        mission_time_s=result["mission_time_s"],
        wire_bytes=result["wire"]["emitted_bytes"],
    )


if __name__ == "__main__":
    run_experiment()
