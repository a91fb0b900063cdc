"""Unit tests for the FlightGear-style telemetry codec and bridge service."""

import pytest

from repro.telemetry import GenericProtocol, TelemetryField
from repro.telemetry.generic import FLIGHTGEAR_POSITION_PROTOCOL
from repro.util.errors import EncodingError

FIELDS = [
    TelemetryField("lat", "double", "%.6f"),
    TelemetryField("alt", "float", "%.1f"),
    TelemetryField("count", "int"),
    TelemetryField("armed", "bool"),
]

VALUES = {"lat": 41.275123, "alt": 300.5, "count": 42, "armed": True}


class TestAsciiMode:
    def test_encode_shape(self):
        protocol = GenericProtocol(FIELDS)
        frame = protocol.encode(VALUES)
        assert frame == b"41.275123,300.5,42,1\n"

    def test_round_trip(self):
        protocol = GenericProtocol(FIELDS)
        decoded = protocol.decode(protocol.encode(VALUES))
        assert decoded["lat"] == pytest.approx(41.275123)
        assert decoded["count"] == 42
        assert decoded["armed"] is True

    def test_custom_separator(self):
        protocol = GenericProtocol(FIELDS, separator="\t")
        assert b"\t" in protocol.encode(VALUES)

    def test_missing_field_rejected(self):
        protocol = GenericProtocol(FIELDS)
        with pytest.raises(EncodingError, match="missing"):
            protocol.encode({"lat": 1.0})

    def test_field_count_mismatch_on_decode(self):
        protocol = GenericProtocol(FIELDS)
        with pytest.raises(EncodingError):
            protocol.decode(b"1.0,2.0\n")

    def test_string_field(self):
        protocol = GenericProtocol([TelemetryField("id", "string", "%s")])
        assert protocol.decode(protocol.encode({"id": "UAV-1"})) == {"id": "UAV-1"}


class TestBinaryMode:
    def test_round_trip(self):
        protocol = GenericProtocol(FIELDS, binary=True)
        decoded = protocol.decode(protocol.encode(VALUES))
        assert decoded["lat"] == pytest.approx(41.275123)
        assert decoded["alt"] == pytest.approx(300.5, abs=0.01)
        assert decoded["count"] == 42
        assert decoded["armed"] is True

    def test_frame_size_fixed(self):
        protocol = GenericProtocol(FIELDS, binary=True)
        assert protocol.frame_size == 8 + 4 + 4 + 1
        assert len(protocol.encode(VALUES)) == protocol.frame_size

    def test_truncated_rejected(self):
        protocol = GenericProtocol(FIELDS, binary=True)
        with pytest.raises(EncodingError):
            protocol.decode(protocol.encode(VALUES)[:-1])

    def test_string_fields_refused_in_binary(self):
        with pytest.raises(ValueError):
            GenericProtocol([TelemetryField("id", "string")], binary=True)


class TestValidation:
    def test_empty_protocol_rejected(self):
        with pytest.raises(ValueError):
            GenericProtocol([])

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            TelemetryField("x", "quaternion")

    def test_builtin_position_protocol(self):
        frame = FLIGHTGEAR_POSITION_PROTOCOL.encode(
            {
                "latitude-deg": 41.0,
                "longitude-deg": 2.0,
                "altitude-ft": 984.0,
                "heading-deg": 270.0,
                "airspeed-kt": 48.6,
            }
        )
        decoded = FLIGHTGEAR_POSITION_PROTOCOL.decode(frame)
        assert decoded["latitude-deg"] == pytest.approx(41.0)


class TestTelemetryServiceIntegration:
    def test_bridge_emits_flightgear_frames(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from helpers import settle

        from repro import SimRuntime
        from repro.flight import GeoPoint, KinematicUav, survey_plan
        from repro.services.gps import GpsService
        from repro.telemetry import InMemoryTelemetrySink, TelemetryService

        runtime = SimRuntime(seed=2)
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)
        fcs = runtime.add_container("fcs")
        gcs = runtime.add_container("gcs")
        fcs.install_service(GpsService(KinematicUav(plan)))
        sink = InMemoryTelemetrySink()
        bridge = TelemetryService(sink, max_rate_hz=5.0)
        gcs.install_service(bridge)
        settle(runtime, 10.0)
        assert bridge.frames_sent > 20
        decoded = FLIGHTGEAR_POSITION_PROTOCOL.decode(sink.frames[-1])
        assert decoded["latitude-deg"] == pytest.approx(41.275, abs=0.05)
        assert decoded["altitude-ft"] == pytest.approx(300 * 3.28084, rel=0.01)
