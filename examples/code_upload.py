#!/usr/bin/env python
"""Code upload and hot upgrade — the §4.4 deployment use case.

"This continuous media includes generated photography images, configuration
files or services program code to be uploaded to the service containers."

The ground station uploads a new payload service to the flying UAV through
the multicast file primitive, then replaces it mid-flight with revision 2 —
no restart, no reconfiguration beyond the upload itself.

Run:  python examples/code_upload.py
"""

from repro import SimRuntime
from repro.services import Service
from repro.services.deploy import DeploymentService, deployment_resource

SPECTROMETER_V1 = b'''
from repro.services import Service
from repro.encoding.schema import parse_type

READING = parse_type("struct Reading { float64 ppm; uint32 sample; }")

class Spectrometer(Service):
    """Rev 1: raw methane readings at 1 Hz."""
    def __init__(self):
        super().__init__("spectrometer")
        self.sample = 0
    def on_start(self):
        self.reading = self.ctx.provide_variable(
            "spectrometer.methane", READING, validity=3.0, period=1.0)
        self.ctx.every(1.0, self.measure)
    def measure(self):
        self.sample += 1
        self.reading.publish({"ppm": 1.9 + 0.01 * self.sample,
                              "sample": self.sample})

def create_service():
    return Spectrometer()
'''

# Revision 2 adds an alarm event — new functionality, uploaded in flight.
SPECTROMETER_V2 = b'''
from repro.services import Service
from repro.encoding.schema import parse_type
from repro.encoding.types import FLOAT64

READING = parse_type("struct Reading { float64 ppm; uint32 sample; }")

class Spectrometer(Service):
    """Rev 2: readings plus a threshold alarm."""
    def __init__(self):
        super().__init__("spectrometer")
        self.sample = 0
    def on_start(self):
        self.reading = self.ctx.provide_variable(
            "spectrometer.methane", READING, validity=3.0, period=1.0)
        self.alarm = self.ctx.provide_event("spectrometer.alarm", FLOAT64)
        self.ctx.every(1.0, self.measure)
    def measure(self):
        self.sample += 1
        ppm = 2.2 + 0.05 * self.sample
        self.reading.publish({"ppm": ppm, "sample": self.sample})
        if ppm > 2.5:
            self.alarm.raise_event(ppm)

def create_service():
    return Spectrometer()
'''


class OperatorConsole(Service):
    def __init__(self):
        super().__init__("console")
        self.readings = 0

    def on_start(self):
        self.ctx.subscribe_variable(
            "spectrometer.methane",
            on_sample=lambda v, t: self._show(v),
        )
        self.ctx.subscribe_event(
            "spectrometer.alarm",
            lambda ppm, t: self.ctx.log(f"ALARM methane at {ppm:.2f} ppm"),
        )

    def _show(self, value):
        self.readings += 1
        if value["sample"] % 5 == 0:
            self.ctx.log(f"CH4 {value['ppm']:.2f} ppm (sample {value['sample']})")


def main():
    runtime = SimRuntime(seed=8)
    uav = runtime.add_container("uav")
    ground = runtime.add_container("ground")

    uav.install_service(DeploymentService())
    console = OperatorConsole()
    ground.install_service(console)

    class Uploader(Service):
        def __init__(self):
            super().__init__("uploader")

    uploader = Uploader()
    ground.install_service(uploader)

    runtime.start()
    runtime.run_for(3.0)

    print("uploading spectrometer rev 1 ...")
    uploader.ctx.publish_file(deployment_resource("uav"), SPECTROMETER_V1)
    runtime.run_for(12.0)

    print("uploading spectrometer rev 2 (adds the alarm) ...")
    uploader.ctx.publish_file(deployment_resource("uav"), SPECTROMETER_V2)
    runtime.run_for(12.0)
    runtime.stop()

    print(f"\nconsole received {console.readings} readings\n")
    print("=== operator console ===")
    for t, line in console.ctx.log_lines:
        print(f"{t:6.1f}  {line}")
    print("\nuav services:", [f"{r.name}({r.state.value})" for r in uav.services()])


if __name__ == "__main__":
    main()
