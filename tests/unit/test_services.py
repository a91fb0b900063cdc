"""Unit tests for the standard avionics services (single-container)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.container import ServiceState
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.imaging import decode_pgm
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService
from repro.services.names import (
    DEV_CAMERA,
    EVT_PHOTO_TAKEN,
    FN_CAMERA_CONFIGURE,
    FN_STORAGE_DELETE,
    FN_STORAGE_LIST,
    FN_STORAGE_READ,
    FN_STORAGE_STORE,
    VAR_POSITION,
    photo_resource,
)


def single_node(*services, seed=1):
    runtime = SimRuntime(seed=seed)
    node = runtime.add_container("node")
    for service in services:
        node.install_service(service)
    runtime.start()
    runtime.run_for(1.0)
    return runtime, node


class TestGpsService:
    def test_publishes_at_requested_rate(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        gps = GpsService(KinematicUav(plan), rate_hz=10.0)
        probe = ProbeService("probe", lambda s: s.watch_variable(VAR_POSITION))
        runtime, _ = single_node(gps, probe)
        runtime.run_for(5.0)
        # ~10 Hz for ~6 s.
        assert 50 <= len(probe.samples) <= 62

    def test_positions_advance_along_plan(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        gps = GpsService(KinematicUav(plan), rate_hz=5.0)
        probe = ProbeService("probe", lambda s: s.watch_variable(VAR_POSITION))
        runtime, _ = single_node(gps, probe)
        runtime.run_for(20.0)
        values = probe.values_of(VAR_POSITION)
        assert values[0] != values[-1]
        assert all(v["ground_speed"] == 25.0 for v in values)

    def test_rate_validation(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        with pytest.raises(ValueError):
            GpsService(KinematicUav(plan), rate_hz=0)

    def test_stop_stops_publishing(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        gps = GpsService(KinematicUav(plan), rate_hz=10.0)
        probe = ProbeService("probe", lambda s: s.watch_variable(VAR_POSITION))
        runtime, node = single_node(gps, probe)
        runtime.run_for(2.0)
        node.stop_service("gps")
        count = len(probe.samples)
        runtime.run_for(2.0)
        assert len(probe.samples) == count


class TestCameraService:
    def make(self, **kw):
        camera = CameraService(**kw)
        probe = ProbeService("probe", lambda s: (
            s.watch_event(EVT_PHOTO_TAKEN),
            s.watch_file(photo_resource("p", 3)),
        ))
        runtime, node = single_node(camera, probe)
        return runtime, node, camera, probe

    def test_holds_camera_device(self):
        runtime, node, camera, _ = self.make()
        assert node.resources.device_owner(DEV_CAMERA) == "camera"

    def test_configure_then_photo(self):
        runtime, node, camera, probe = self.make(default_features=2)
        probe.call_recorded(FN_CAMERA_CONFIGURE, ("p", 64, 64))
        runtime.run_for(0.5)
        assert probe.results == [True]
        # Drive the photo request into the camera directly (no MC here).
        request = {"waypoint": 3, "lat": 41.0, "lon": 2.0, "resource": "p.3"}
        camera._on_photo_request(request, 0.0)
        runtime.run_for(1.0)
        assert camera.photos_taken == 1
        assert len(probe.events_of(EVT_PHOTO_TAKEN)) == 1
        name, data, revision = probe.files[0]
        image = decode_pgm(data)
        assert image.shape == (64, 64)

    def test_photo_before_configure_ignored(self):
        runtime, node, camera, probe = self.make()
        camera._on_photo_request(
            {"waypoint": 1, "lat": 0.0, "lon": 0.0, "resource": "x"}, 0.0
        )
        runtime.run_for(1.0)
        assert camera.photos_taken == 0

    def test_bad_configure_rejected(self):
        runtime, node, camera, probe = self.make()
        probe.call_recorded(FN_CAMERA_CONFIGURE, ("p", -1, 64))
        runtime.run_for(0.5)
        assert probe.results == [False]


class TestStorageService:
    def test_store_read_list_delete(self):
        storage = StorageService()
        probe = ProbeService("probe")
        runtime, node = single_node(storage, probe)
        probe.call_recorded(FN_STORAGE_STORE, ("obj.x",))
        runtime.run_for(0.5)
        probe.ctx.publish_file("obj.x", b"payload bytes")
        runtime.run_for(0.5)
        assert storage.stored_names() == ["obj.x"]
        probe.call_recorded(FN_STORAGE_READ, ("obj.x",))
        runtime.run_for(0.5)
        assert probe.results[-1] == b"payload bytes"
        probe.call_recorded(FN_STORAGE_LIST)
        runtime.run_for(0.5)
        assert probe.results[-1] == ["obj.x"]
        probe.call_recorded(FN_STORAGE_DELETE, ("obj.x",))
        runtime.run_for(0.5)
        assert probe.results[-1] is True
        assert storage.stored_names() == []

    def test_read_missing_reports_error(self):
        storage = StorageService()
        probe = ProbeService("probe")
        runtime, _ = single_node(storage, probe)
        probe.call_recorded(FN_STORAGE_READ, ("ghost",))
        runtime.run_for(0.5)
        assert len(probe.errors) == 1

    def test_storage_quota_respected(self):
        runtime = SimRuntime(seed=1)
        node = runtime.add_container("node")
        # Leave 10 bytes of the node's default budget free.
        node.resources.allocate_storage("filler", node.resources.storage_free - 10)
        storage = StorageService()
        probe = ProbeService("probe")
        node.install_service(storage)
        node.install_service(probe)
        runtime.start()
        runtime.run_for(1.0)
        probe.call_recorded(FN_STORAGE_STORE, ("big",))
        runtime.run_for(0.5)
        probe.ctx.publish_file("big", b"x" * 100)  # exceeds the 10-byte quota
        runtime.run_for(0.5)
        # The storage service failed on the quota error; isolated, reported.
        assert node.service_state("storage") == ServiceState.FAILED

    def test_variable_log_readable_as_json(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        storage = StorageService()
        probe = ProbeService("probe")
        gps = GpsService(KinematicUav(plan), rate_hz=5.0)
        runtime, _ = single_node(storage, probe, gps)
        probe.call_recorded("storage.log_variable", (VAR_POSITION,))
        runtime.run_for(3.0)
        probe.call_recorded(FN_STORAGE_READ, (VAR_POSITION,))
        runtime.run_for(0.5)
        log = json.loads(probe.results[-1])
        assert len(log) >= 10
        assert "value" in log[0]


class TestVideoProcessingService:
    def test_detection_above_threshold(self):
        from repro.imaging import encode_pgm, generate_image
        from repro.services.names import EVT_DETECTION, FN_VIDEO_PROCESS

        video = VideoProcessingService(processing_delay=0.01)
        probe = ProbeService("probe", lambda s: s.watch_event(EVT_DETECTION))
        runtime, _ = single_node(video, probe)
        probe.call_recorded(FN_VIDEO_PROCESS, ("frame.hot", 0.2))
        runtime.run_for(0.5)
        probe.ctx.publish_file("frame.hot", encode_pgm(generate_image(1, features=5)))
        runtime.run_for(1.0)
        assert video.frames_processed == 1
        assert video.detections == 1
        assert len(probe.events_of(EVT_DETECTION)) == 1

    def test_empty_frame_no_detection(self):
        from repro.imaging import encode_pgm, generate_image
        from repro.services.names import EVT_DETECTION, FN_VIDEO_PROCESS

        video = VideoProcessingService(processing_delay=0.01)
        probe = ProbeService("probe", lambda s: s.watch_event(EVT_DETECTION))
        runtime, _ = single_node(video, probe)
        probe.call_recorded(FN_VIDEO_PROCESS, ("frame.cold", 0.2))
        runtime.run_for(0.5)
        probe.ctx.publish_file("frame.cold", encode_pgm(generate_image(1, features=0)))
        runtime.run_for(1.0)
        assert video.frames_processed == 1
        assert video.detections == 0
        assert probe.events_of(EVT_DETECTION) == []
