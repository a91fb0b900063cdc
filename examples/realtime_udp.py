#!/usr/bin/env python
"""The wall-clock runtime: same services, real UDP sockets, machine time.

Everything in the other examples runs on the deterministic simulator; this
one swaps the PEPt Transport plug-in for loopback UDP sockets and the
virtual clock for an asyncio event loop on the machine clock — the
configuration the paper's C# prototype actually ran in, minus the embedded
boards. Runs for ~4 wall seconds.

Run:  python examples/realtime_udp.py
"""

import time

from repro import AsyncRuntime
from repro.flight import GeoPoint, KinematicUav, survey_plan
from repro.services import GpsService, GroundStationService

FAST_DISCOVERY = dict(
    announce_interval=0.2,
    heartbeat_interval=0.05,
    liveness_timeout=0.5,
    housekeeping_interval=0.1,
)


def main():
    runtime = AsyncRuntime()
    plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, photos_per_row=0)

    fcs = runtime.add_container("fcs", **FAST_DISCOVERY)
    ground = runtime.add_container("ground", **FAST_DISCOVERY)

    gps = GpsService(KinematicUav(plan), rate_hz=20.0)
    station = GroundStationService(position_print_period=0.5)
    fcs.install_service(gps)
    ground.install_service(station)

    print("running on real UDP sockets for 4 seconds...")
    started = time.monotonic()
    runtime.start()
    runtime.run_for(4.0)
    received = runtime.on_reactor(lambda: station.positions_received)
    last = runtime.on_reactor(lambda: dict(station.last_position or {}))
    terminal = runtime.on_reactor(lambda: list(station.terminal()))
    runtime.stop()
    elapsed = time.monotonic() - started

    print(f"\n{received} position samples crossed the wire "
          f"in {elapsed:.1f} s (20 Hz GPS)")
    print(f"last fix: lat={last.get('lat', 0):.5f} lon={last.get('lon', 0):.5f}")
    print("\nground station terminal:")
    for t, line in terminal[-8:]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
