"""PEPt Transport subsystem.

"Transport moves the resulting frames from one node in the network to
another" (§6). Pluggable implementations:

- :class:`SimTransport` — binds a :class:`repro.simnet.SimNic` (default);
- :class:`AsyncUdpTransport` — batch-I/O non-blocking UDP sockets on an
  asyncio event loop (async runtime; see :mod:`repro.transport.udp_async`),
  resolving peers through the :class:`~repro.transport.udp.UdpNetwork`
  registry.

:class:`FrameTransport` adapts any raw byte transport to the Protocol
layer's :class:`~repro.protocol.Frame` objects, fragmenting oversized frames
transparently.
"""

from repro.transport.base import RawTransport
from repro.transport.frame_transport import FrameTransport
from repro.transport.sim import SimTransport

__all__ = [
    "RawTransport",
    "FrameTransport",
    "SimTransport",
]
