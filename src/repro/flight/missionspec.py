"""Declarative mission specifications.

The paper's thesis is "rapid, efficient and low-cost mission definition and
execution" (§7): the same platform should fly many missions "with little
reconfiguration time and overhead". This module is that reconfiguration
surface — a JSON document describes the flight plan and payload behaviour,
and :func:`build_mission` assembles the standard services onto a runtime.

Example document::

    {
      "name": "survey-castelldefels",
      "origin": {"lat": 41.275, "lon": 1.985, "alt": 300},
      "cruise_speed": 25.0,
      "plan": {"type": "survey", "rows": 2, "row_length_m": 800,
               "row_spacing_m": 250, "photos_per_row": 3},
      "mission": {"photo_prefix": "photo", "detection_threshold": 0.3,
                  "image_size": 128}
    }

Plan types: ``survey`` (lawn-mower with photo points), ``waypoints``
(explicit list) and ``loiter`` (circle approximated by waypoints).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

from repro.flight.dynamics import KinematicUav
from repro.flight.geodesy import GeoPoint, destination_point
from repro.flight.plan import FlightPlan, Waypoint, WaypointAction, survey_plan
from repro.util.errors import ConfigurationError


@dataclass
class MissionSpec:
    """A parsed mission document."""

    name: str
    origin: GeoPoint
    plan: FlightPlan
    cruise_speed: float = 25.0
    gps_rate_hz: float = 5.0
    photo_prefix: str = "photo"
    detection_threshold: float = 0.3
    image_size: int = 128
    camera_features: Dict[int, int] = field(default_factory=dict)
    default_features: int = 3


def load_mission_spec(source: Union[str, Path, dict]) -> MissionSpec:
    """Parse a mission document from a path, JSON text, or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            # Not inline JSON: treat it as a path.
            text = Path(source).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid mission JSON: {exc}") from exc
    return _parse(doc)


def _parse(doc: dict) -> MissionSpec:
    try:
        name = doc["name"]
        origin_doc = doc["origin"]
        plan_doc = doc["plan"]
    except KeyError as exc:
        raise ConfigurationError(f"mission document missing key {exc}") from exc
    origin = GeoPoint(
        float(origin_doc["lat"]),
        float(origin_doc["lon"]),
        float(origin_doc.get("alt", 300.0)),
    )
    plan = _build_plan(origin, plan_doc)
    mission = doc.get("mission", {})
    camera = doc.get("camera", {})
    features = {
        int(k): int(v) for k, v in camera.get("features_at", {}).items()
    }
    return MissionSpec(
        name=name,
        origin=origin,
        plan=plan,
        cruise_speed=float(doc.get("cruise_speed", 25.0)),
        gps_rate_hz=float(doc.get("gps_rate_hz", 5.0)),
        photo_prefix=mission.get("photo_prefix", "photo"),
        detection_threshold=float(mission.get("detection_threshold", 0.3)),
        image_size=int(mission.get("image_size", 128)),
        camera_features=features,
        default_features=int(camera.get("default_features", 3)),
    )


def _build_plan(origin: GeoPoint, doc: dict) -> FlightPlan:
    plan_type = doc.get("type")
    if plan_type == "survey":
        return survey_plan(
            origin,
            rows=int(doc.get("rows", 2)),
            row_length_m=float(doc.get("row_length_m", 800.0)),
            row_spacing_m=float(doc.get("row_spacing_m", 200.0)),
            photos_per_row=int(doc.get("photos_per_row", 2)),
            altitude=origin.alt,
        )
    if plan_type == "waypoints":
        waypoints = []
        for i, wp in enumerate(doc.get("waypoints", [])):
            try:
                action = WaypointAction(wp.get("action", "none"))
            except ValueError:
                raise ConfigurationError(
                    f"waypoint {i}: unknown action {wp.get('action')!r}"
                ) from None
            waypoints.append(
                Waypoint(
                    GeoPoint(float(wp["lat"]), float(wp["lon"]),
                             float(wp.get("alt", origin.alt))),
                    capture_radius_m=float(wp.get("radius", 25.0)),
                    action=action,
                    name=wp.get("name", f"wp{i}"),
                )
            )
        return FlightPlan(waypoints=waypoints, name="waypoints")
    if plan_type == "loiter":
        radius = float(doc.get("radius_m", 400.0))
        points = int(doc.get("points", 8))
        laps = int(doc.get("laps", 2))
        if points < 3 or laps < 1:
            raise ConfigurationError("loiter needs >= 3 points and >= 1 lap")
        circle = [
            Waypoint(
                destination_point(origin, i * 360.0 / points, radius),
                capture_radius_m=max(25.0, radius * 0.1),
                name=f"loiter{i}",
            )
            for i in range(points)
        ]
        return FlightPlan(waypoints=circle * laps, name="loiter")
    raise ConfigurationError(f"unknown plan type {plan_type!r}")


def build_mission(runtime, spec: MissionSpec):
    """Assemble the standard §5 service set for ``spec`` onto ``runtime``.

    Creates three containers (fcs / payload / ground) and installs GPS,
    Mission Control, Camera, Storage, Video Processing and Ground Station,
    configured from the spec. Returns a dict of the service instances.
    """
    from repro.services.camera import CameraService
    from repro.services.gps import GpsService
    from repro.services.ground import GroundStationService
    from repro.services.mission import MissionControlService
    from repro.services.storage import StorageService
    from repro.services.videoproc import VideoProcessingService

    fcs = runtime.add_container("fcs")
    payload = runtime.add_container("payload")
    ground = runtime.add_container("ground")

    uav = KinematicUav(spec.plan, cruise_speed=spec.cruise_speed)
    services = {
        "gps": GpsService(uav, rate_hz=spec.gps_rate_hz),
        "mission": MissionControlService(
            spec.plan,
            photo_prefix=spec.photo_prefix,
            detection_threshold=spec.detection_threshold,
            image_size=spec.image_size,
        ),
        "camera": CameraService(
            default_features=spec.default_features,
            features_at=spec.camera_features,
        ),
        "storage": StorageService(),
        "video": VideoProcessingService(),
        "ground": GroundStationService(),
    }
    fcs.install_service(services["gps"])
    fcs.install_service(services["mission"])
    payload.install_service(services["camera"])
    payload.install_service(services["storage"])
    payload.install_service(services["video"])
    ground.install_service(services["ground"])
    return services


__all__ = ["MissionSpec", "load_mission_spec", "build_mission"]
