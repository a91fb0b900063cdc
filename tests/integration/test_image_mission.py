"""Experiment E1: the §5 image-processing scenario end to end.

Six services across three nodes exercise all four primitives: GPS publishes
the position variable; Mission Control initializes Camera/Storage/Video via
remote invocation, raises photo-request events at photo waypoints; photos
travel by multicast file transfer to Storage and Video Processing; detection
events flow back to MC and the Ground Station.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.imaging import decode_pgm
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.ground import GroundStationService
from repro.services.mission import MissionControlService
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService
from repro.services.names import photo_resource


@pytest.fixture
def mission_setup():
    runtime = SimRuntime(seed=7)
    plan = survey_plan(
        GeoPoint(41.275, 1.985), rows=1, row_length_m=600, photos_per_row=2
    )
    fcs = runtime.add_container("fcs")
    payload = runtime.add_container("payload")
    ground = runtime.add_container("ground")

    gps = GpsService(KinematicUav(plan))
    mc = MissionControlService(plan)
    camera = CameraService(features_at={1: 4, 2: 0})  # wp1 rich, wp2 empty
    storage = StorageService()
    video = VideoProcessingService()
    gs = GroundStationService()

    fcs.install_service(gps)
    fcs.install_service(mc)
    payload.install_service(camera)
    payload.install_service(storage)
    payload.install_service(video)
    ground.install_service(gs)
    runtime.start()
    return runtime, plan, mc, camera, storage, video, gs


class TestImageMission:
    def test_mission_completes(self, mission_setup):
        runtime, plan, mc, *_ = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)

    def test_all_four_primitives_exercised(self, mission_setup):
        runtime, plan, mc, camera, storage, video, gs = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)
        runtime.run_for(5.0)
        # Variable: GS has seen positions and status.
        assert gs.positions_received > 50
        assert gs.last_status is not None and gs.last_status["complete"]
        # Remote invocation: camera was configured, storage told to store.
        assert camera.prefix == "photo"
        # Events: photo requests arrived, photo-taken and complete came back.
        assert camera.photos_taken == 2
        assert gs.mission_completed
        # File transfer: both photos stored on the payload node.
        expected = [photo_resource("photo", i) for i in plan.photo_waypoints]
        assert storage.stored_names() == sorted(expected)

    def test_detection_only_for_feature_rich_photo(self, mission_setup):
        runtime, plan, mc, camera, storage, video, gs = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)
        runtime.run_for(5.0)
        # Waypoint 1 had 4 embedded features; waypoint 2 had none.
        assert video.frames_processed == 2
        assert video.detections == 1
        assert len(mc.detections) == 1
        assert mc.detections[0]["resource"] == photo_resource("photo", 1)
        assert len(gs.detection_notifications) == 1

    def test_stored_photo_is_a_valid_image(self, mission_setup):
        runtime, plan, mc, camera, storage, video, gs = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)
        runtime.run_for(5.0)
        image = decode_pgm(storage.object(photo_resource("photo", 1)))
        assert image.shape == (128, 128)

    def test_position_log_recorded(self, mission_setup):
        runtime, plan, mc, camera, storage, video, gs = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)
        runtime.run_for(2.0)
        log = storage.variable_log("gps.position")
        assert len(log) > 50
        assert {"t", "value"} <= set(log[0])

    def test_no_emergencies_in_nominal_run(self, mission_setup):
        runtime, plan, mc, camera, storage, video, gs = mission_setup
        assert runtime.run_until(lambda: mc.complete, timeout=180.0)
        for container in runtime.containers.values():
            assert container.emergencies == []

    def test_deterministic_replay(self):
        def run():
            runtime = SimRuntime(seed=42)
            plan = survey_plan(
                GeoPoint(41.275, 1.985), rows=1, row_length_m=400, photos_per_row=1
            )
            fcs = runtime.add_container("fcs")
            payload = runtime.add_container("payload")
            mc = MissionControlService(plan)
            fcs.install_service(GpsService(KinematicUav(plan)))
            fcs.install_service(mc)
            payload.install_service(CameraService())
            storage = StorageService()
            payload.install_service(storage)
            payload.install_service(VideoProcessingService())
            runtime.start()
            runtime.run_until(lambda: mc.complete, timeout=120.0)
            runtime.run_for(3.0)
            return (
                runtime.sim.now(),
                runtime.network.stats.snapshot(),
                storage.stored_names(),
            )

        assert run() == run()
