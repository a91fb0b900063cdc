"""Unit tests for the AHRS service."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services.ahrs import VAR_ATTITUDE, AhrsService
from repro.services.gps import GpsService


def make_runtime(rows=1):
    runtime = SimRuntime(seed=3)
    plan = survey_plan(GeoPoint(41.275, 1.985), rows=rows, photos_per_row=0)
    uav = KinematicUav(plan)
    node = runtime.add_container("fcs")
    node.install_service(GpsService(uav, rate_hz=10.0))  # steps the airframe
    node.install_service(AhrsService(uav, rate_hz=10.0))
    probe = ProbeService("probe", lambda s: s.watch_variable(VAR_ATTITUDE))
    runtime.add_container("obs").install_service(probe)
    runtime.start()
    return runtime, probe


class TestAhrs:
    def test_publishes_attitude(self):
        runtime, probe = make_runtime()
        runtime.run_for(5.0)
        samples = probe.values_of(VAR_ATTITUDE)
        assert len(samples) > 20
        for sample in samples:
            assert {"roll", "pitch", "yaw", "timestamp"} == set(sample)
            assert 0.0 <= sample["yaw"] < 360.0

    def test_banks_in_turns(self):
        runtime, probe = make_runtime(rows=2)  # row turnaround forces a turn
        runtime.run_for(60.0)
        rolls = [abs(v["roll"]) for v in probe.values_of(VAR_ATTITUDE)]
        # Straight legs are nearly level; the turn shows real bank.
        assert min(rolls) < 2.0
        assert max(rolls) > 10.0

    def test_pitch_stays_near_level(self):
        runtime, probe = make_runtime()
        runtime.run_for(10.0)
        pitches = [v["pitch"] for v in probe.values_of(VAR_ATTITUDE)]
        assert all(abs(p) < 2.0 for p in pitches)

    def test_rate_validation(self):
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        with pytest.raises(ValueError):
            AhrsService(KinematicUav(plan), rate_hz=0)
