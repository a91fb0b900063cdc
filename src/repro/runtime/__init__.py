"""Runtimes: bind the sans-io middleware to an execution environment.

- :class:`~repro.runtime.simruntime.SimRuntime` — deterministic virtual
  time over the simulated network (the reference for tests and
  benchmarks; a deployment never loads it);
- :class:`AsyncRuntime` — wall-clock asyncio loop over batch-I/O UDP
  loopback sockets (the same code on a real transport; the loop thread
  is the serialization domain).
"""

from repro.runtime.async_runtime import AsyncRuntime

__all__ = ["AsyncRuntime"]
