#!/usr/bin/env python
"""The §6 FlightGear integration, reproduced (experiment E9).

The paper highlights that "the telemetry interface with FlightGear simulator
has been done by a person without previous knowledge of the architecture in
only 2 days" — the integration touches nothing but the public service API.
This example runs the bridge against a simulated flight and prints the
generic-protocol frames a FlightGear ``--generic=socket,in,...`` endpoint
would consume.

Run:  python examples/flightgear_telemetry.py
"""

from repro import SimRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services.gps import GpsService
from repro.telemetry import InMemoryTelemetrySink, TelemetryService
from repro.telemetry.generic import FLIGHTGEAR_POSITION_PROTOCOL


def main():
    runtime = SimRuntime(seed=11)
    plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)

    fcs = runtime.add_container("fcs")
    gcs = runtime.add_container("gcs")

    fcs.install_service(GpsService(KinematicUav(plan), rate_hz=10.0))
    sink = InMemoryTelemetrySink()
    bridge = TelemetryService(sink, max_rate_hz=4.0)
    gcs.install_service(bridge)

    runtime.start()
    runtime.run_for(20.0)
    runtime.stop()

    print(f"{bridge.frames_sent} telemetry frames emitted "
          f"(GPS at 10 Hz, feed throttled to 4 Hz)\n")
    print("last 8 frames on the FlightGear feed:")
    for frame in sink.frames[-8:]:
        print(" ", frame.decode().strip())
    decoded = FLIGHTGEAR_POSITION_PROTOCOL.decode(sink.frames[-1])
    print("\ndecoded:", decoded)


if __name__ == "__main__":
    main()
