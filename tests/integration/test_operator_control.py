"""Operator control of the mission via remote invocation (§5)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services.camera import CameraService
from repro.services.gps import GpsService
from repro.services.mission import (
    FN_MISSION_ABORT,
    FN_MISSION_HOLD,
    FN_MISSION_RESUME,
    MissionControlService,
)
from repro.services.storage import StorageService
from repro.services.videoproc import VideoProcessingService


@pytest.fixture
def setup():
    runtime = SimRuntime(seed=4)
    plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, row_length_m=600,
                       photos_per_row=1)
    fcs = runtime.add_container("fcs")
    payload = runtime.add_container("payload")
    ground = runtime.add_container("ground")
    mc = MissionControlService(plan)
    fcs.install_service(GpsService(KinematicUav(plan)))
    fcs.install_service(mc)
    payload.install_service(CameraService())
    payload.install_service(StorageService())
    payload.install_service(VideoProcessingService())
    operator = ProbeService("operator")
    ground.install_service(operator)
    runtime.start()
    runtime.run_for(3.0)
    return runtime, mc, operator


class TestOperatorControl:
    def test_hold_freezes_progress(self, setup):
        runtime, mc, operator = setup
        operator.call_recorded(FN_MISSION_HOLD)
        runtime.run_for(1.0)
        assert operator.results == [True]
        frozen_at = mc.next_waypoint
        runtime.run_for(30.0)  # the UAV keeps flying; MC ignores it
        assert mc.next_waypoint == frozen_at
        assert not mc.complete
        assert mc.holding

    def test_resume_after_hold(self, setup):
        runtime, mc, operator = setup
        operator.call_recorded(FN_MISSION_HOLD)
        runtime.run_for(5.0)
        operator.call_recorded(FN_MISSION_RESUME)
        runtime.run_for(1.0)
        assert not mc.holding
        # With the capture look-ahead the mission can still finish even
        # though some waypoints flew by during the hold.
        assert runtime.run_until(lambda: mc.complete or mc.next_waypoint > 0,
                                 timeout=120.0)

    def test_resume_without_hold_refused(self, setup):
        runtime, mc, operator = setup
        operator.call_recorded(FN_MISSION_RESUME)
        runtime.run_for(1.0)
        assert operator.results == [False]

    def test_abort_terminates_and_notifies(self, setup):
        runtime, mc, operator = setup
        listener = ProbeService("listener", lambda s: s.watch_event("mission.complete"))
        runtime.container("ground").install_service(listener)
        runtime.run_for(2.0)
        operator.call_recorded(FN_MISSION_ABORT)
        runtime.run_for(2.0)
        assert operator.results == [True]
        assert mc.aborted and mc.complete
        assert len(listener.events) == 1

    def test_abort_is_final(self, setup):
        runtime, mc, operator = setup
        operator.call_recorded(FN_MISSION_ABORT)
        runtime.run_for(1.0)
        operator.call_recorded(FN_MISSION_HOLD)
        operator.call_recorded(FN_MISSION_ABORT)
        runtime.run_for(1.0)
        assert operator.results == [True, False, False]

    def test_status_variable_reflects_hold(self, setup):
        runtime, mc, operator = setup
        watcher = ProbeService("watcher", lambda s: s.watch_variable("mission.status"))
        runtime.container("ground").install_service(watcher)
        runtime.run_for(2.0)
        operator.call_recorded(FN_MISSION_HOLD)
        runtime.run_for(3.0)
        assert watcher.values_of("mission.status")[-1]["holding"] is True
