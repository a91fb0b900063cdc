"""Runtimes: bind the sans-io middleware to an execution environment.

- :class:`SimRuntime` — deterministic virtual time over the simulated
  network (the reference; the default for tests and benchmarks);
- :class:`AsyncRuntime` — wall-clock asyncio loop over batch-I/O UDP
  loopback sockets (the same code on a real transport; the loop thread
  is the serialization domain).
"""

from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.simruntime import SimRuntime

__all__ = ["SimRuntime", "AsyncRuntime"]
