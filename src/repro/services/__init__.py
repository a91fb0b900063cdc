"""Service programming model.

Services are "semantic units that behave as producers of data and as
consumers of data coming from other services" (§3). They subclass
:class:`Service`, declare provisions and subscriptions in ``on_start``
through their :class:`ServiceContext`, and never touch the network.

The standard services implement the §5 image-processing scenario, one
module each: :mod:`~repro.services.gps`, :mod:`~repro.services.camera`,
:mod:`~repro.services.storage`, :mod:`~repro.services.videoproc`,
:mod:`~repro.services.mission` and :mod:`~repro.services.ground`, plus
:mod:`~repro.services.ahrs` and :mod:`~repro.services.deploy`. Import a
service from its module; this package loads none of them.
"""

from repro.services.base import Service, ServiceContext

__all__ = ["Service", "ServiceContext"]
