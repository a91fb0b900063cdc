"""repro — a reproduction of "A Middleware Architecture for Unmanned
Aircraft Avionics" (López et al., Middleware 2007).

A service-oriented publish/subscribe middleware for UAV mission and payload
control: service containers (one per node) host decoupled services that
communicate through four primitives — variables, events, remote invocation
and multicast file transmission — over a pluggable PEPt stack
(Presentation, Encoding, Protocol, Transport) with a pluggable scheduler.

Quickstart::

    from repro import SimRuntime
    from repro.services.gps import GpsService
    from repro.services.ground import GroundStationService
    from repro.flight import survey_plan, KinematicUav, GeoPoint

    runtime = SimRuntime(seed=7)
    plan = survey_plan(GeoPoint(41.275, 1.985))
    fcs = runtime.add_container("fcs")
    ground = runtime.add_container("ground")
    fcs.install_service(GpsService(KinematicUav(plan)))
    ground.install_service(GroundStationService())
    runtime.start()
    runtime.run_for(30.0)
"""

from repro.container import ContainerConfig, RestartPolicy, ServiceContainer
from repro.runtime import AsyncRuntime
from repro.services import Service, ServiceContext
from repro.util.errors import (
    ConfigurationError,
    EncodingError,
    MiddlewareError,
    NameResolutionError,
    ProtocolError,
    ResourceError,
    ServiceError,
    TimeoutError_,
    TransportError,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # Lazy: the simulation runtime loads the simulator, which a deployment never runs.
    if name == "SimRuntime":
        from repro.runtime.simruntime import SimRuntime

        return SimRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimRuntime",
    "AsyncRuntime",
    "ServiceContainer",
    "ContainerConfig",
    "RestartPolicy",
    "Service",
    "ServiceContext",
    "MiddlewareError",
    "ConfigurationError",
    "EncodingError",
    "ProtocolError",
    "TransportError",
    "NameResolutionError",
    "ServiceError",
    "ResourceError",
    "TimeoutError_",
    "__version__",
]
