"""Deterministic discrete-event simulation kernel.

This is the substrate the paper's testbed (a LAN of embedded boards) is
replaced with: a single-threaded virtual-time event loop. All middleware
protocol code is written sans-io against :class:`repro.util.Clock` and timer
callbacks, so the identical logic also runs under the wall-clock runtime.
"""

from repro.sim.kernel import Simulator, TimerHandle

__all__ = ["Simulator", "TimerHandle"]
