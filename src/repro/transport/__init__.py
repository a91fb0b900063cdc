"""PEPt Transport subsystem.

"Transport moves the resulting frames from one node in the network to
another" (§6). Pluggable implementations:

- :class:`~repro.transport.sim.SimTransport` — binds a
  :class:`repro.simnet.SimNic` (simulation only);
- :class:`AsyncUdpTransport` — batch-I/O non-blocking UDP sockets on an
  asyncio event loop (async runtime; see :mod:`repro.transport.udp_async`),
  resolving peers through the :class:`~repro.transport.udp.UdpNetwork`
  registry.

:class:`FrameTransport` adapts any raw byte transport to the Protocol
layer's :class:`~repro.protocol.Frame` objects, fragmenting oversized frames
transparently. Endpoints and groups are named by
:mod:`repro.transport.addressing`.
"""

from repro.transport.base import RawTransport
from repro.transport.frame_transport import FrameTransport

__all__ = [
    "RawTransport",
    "FrameTransport",
]
