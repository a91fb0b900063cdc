"""Kinematic UAV model.

A turn-rate-limited point mass: enough fidelity to generate realistic
position/heading telemetry and waypoint-capture timing for the middleware
experiments, without pretending to be an aerodynamics simulator (the paper's
FCS is out of scope — it navigates, we observe).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.flight.geodesy import (
    GeoPoint,
    angle_diff_deg,
    bearing_deg,
    destination_point,
    distance_m,
)
from repro.flight.plan import FlightPlan, Waypoint


@dataclass(frozen=True)
class UavState:
    """Instantaneous aircraft state."""

    position: GeoPoint
    heading: float  # degrees, 0 = north
    ground_speed: float  # m/s
    time: float  # seconds since mission start


class KinematicUav:
    """Point-mass aircraft following a flight plan.

    Parameters
    ----------
    plan:
        The flight plan to fly, leg by leg.
    start:
        Initial position (defaults to the first waypoint).
    cruise_speed:
        Ground speed in m/s; the paper's mini-UAV class cruises ~20-30 m/s.
    max_turn_rate:
        Degrees per second of heading change.
    """

    def __init__(
        self,
        plan: FlightPlan,
        start: Optional[GeoPoint] = None,
        cruise_speed: float = 25.0,
        max_turn_rate: float = 15.0,
    ):
        if cruise_speed <= 0:
            raise ValueError("cruise speed must be positive")
        self.plan = plan
        self.cruise_speed = cruise_speed
        self.max_turn_rate = max_turn_rate
        origin = start or plan.waypoint(0).point
        first_target = plan.waypoint(0).point
        self._state = UavState(
            position=origin,
            heading=bearing_deg(origin, first_target) if origin != first_target else 0.0,
            ground_speed=cruise_speed,
            time=0.0,
        )
        self._target_index = 0
        self.completed = False

    # -- observation ------------------------------------------------------------
    @property
    def state(self) -> UavState:
        return self._state

    @property
    def current_target(self) -> Optional[Waypoint]:
        if self.completed:
            return None
        return self.plan.waypoint(self._target_index)

    # -- integration ------------------------------------------------------------
    def step(self, dt: float) -> list:
        """Advance ``dt`` seconds. Returns the indices of waypoints captured
        during this step (usually empty or one)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        captured = []
        if self.completed:
            self._state = replace(self._state, time=self._state.time + dt)
            return captured

        target = self.plan.waypoint(self._target_index)
        # Turn toward the target, limited by turn rate.
        desired = bearing_deg(self._state.position, target.point)
        diff = angle_diff_deg(self._state.heading, desired)
        max_turn = self.max_turn_rate * dt
        turn = max(-max_turn, min(max_turn, diff))
        heading = (self._state.heading + turn) % 360.0
        # Advance along the (new) heading.
        travel = self.cruise_speed * dt
        position = destination_point(self._state.position, heading, travel)
        position = GeoPoint(position.lat, position.lon, target.point.alt)
        self._state = UavState(
            position=position,
            heading=heading,
            ground_speed=self.cruise_speed,
            time=self._state.time + dt,
        )
        # Waypoint capture; chains in case capture radii overlap.
        while not self.completed:
            target = self.plan.waypoint(self._target_index)
            if distance_m(self._state.position, target.point) > target.capture_radius_m:
                break
            captured.append(self._target_index)
            self._target_index += 1
            if self._target_index >= len(self.plan):
                self.completed = True
        return captured

    def eta_to_target_s(self) -> float:
        """Crude time-to-next-waypoint assuming a straight line."""
        target = self.current_target
        if target is None:
            return 0.0
        return distance_m(self._state.position, target.point) / self.cruise_speed

    def distance_remaining_m(self) -> float:
        """Straight-line-along-plan distance still to fly."""
        if self.completed:
            return 0.0
        total = distance_m(
            self._state.position, self.plan.waypoint(self._target_index).point
        )
        for i in range(self._target_index, len(self.plan) - 1):
            total += distance_m(
                self.plan.waypoint(i).point, self.plan.waypoint(i + 1).point
            )
        return total


__all__ = ["KinematicUav", "UavState"]
