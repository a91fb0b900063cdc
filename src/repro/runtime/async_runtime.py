"""The wall-clock runtime: one asyncio loop, batch-I/O sockets.

Same containers, primitives and services as :class:`SimRuntime`, driven by
the machine clock over real UDP loopback sockets (``add_container`` /
``start`` / ``run_for`` / ``run_until`` / ``on_reactor`` / ``stop``).
Every socket is non-blocking on a single asyncio event loop and ingress
arrives in bursts — one loop callback per socket drain, zero cross-thread
posts (see :mod:`repro.transport.udp_async`). The loop thread *is* the
serialization domain: the only thread that ever touches container state,
the same discipline as the single-threaded simulation kernel on a
different clock.

If `uvloop <https://github.com/MagicStack/uvloop>`_ is importable the loop
is built from it (epoll in C instead of Python selectors); otherwise the
stdlib loop is used. Nothing else changes — the choice is invisible above
the runtime.
"""

from __future__ import annotations

# repro: allow-file[REP002] -- the async harness runs on the machine clock
# by design; determinism guarantees apply to the sim runtime only.
import asyncio
import concurrent.futures
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.container.config import ContainerConfig
from repro.container.container import ServiceContainer
from repro.transport.frame_transport import FrameTransport
from repro.transport.udp import UdpNetwork
from repro.transport.udp_async import AsyncUdpTransport
from repro.util.errors import ConfigurationError, MiddlewareError

_STOPPED = "runtime stopped: its event loop is closed"


def _new_event_loop(use_uvloop: Optional[bool]):
    """Build the loop: uvloop when requested/available, stdlib otherwise."""
    if use_uvloop is not False:
        try:
            import uvloop  # type: ignore

            return uvloop.new_event_loop(), True
        except ImportError:
            if use_uvloop is True:
                raise ConfigurationError(
                    "use_uvloop=True but uvloop is not installed"
                )
    return asyncio.new_event_loop(), False


class _CrossThreadTimer:
    """Timer handle returned when ``schedule`` is called off the loop
    thread: the real ``call_later`` is armed via the loop's threadsafe
    queue, and ``cancel`` works before or after the arm lands."""

    __slots__ = ("cancelled", "inner")

    def __init__(self):
        self.cancelled = False
        self.inner = None

    def cancel(self) -> None:
        self.cancelled = True
        if self.inner is not None:
            self.inner.cancel()


class LoopDomain:
    """The event-loop serialization domain, speaking the same protocol as
    :class:`repro.sim.Simulator`: ``now()`` (Clock) and
    ``schedule(delay, fn) -> cancellable`` (timer service), so containers
    cannot tell the two apart — plus ``post`` and ``call_blocking``, the
    bridges for application threads into the domain."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._loop_thread_ident: Optional[int] = None
        self._errors: List[Exception] = []
        loop.set_exception_handler(self._on_loop_exception)

    # -- Clock protocol ----------------------------------------------------
    #: ``time.monotonic`` itself: read on every send, ACK and call, it is a
    #: C call with no Python frame around it.
    now = staticmethod(time.monotonic)

    # -- timer service -----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]):
        """Run ``fn`` on the loop thread after ``delay`` seconds. Once the
        runtime is stopped the returned handle is already cancelled."""
        delay = max(0.0, delay)
        if threading.get_ident() == self._loop_thread_ident:
            return self._loop.call_later(delay, fn)
        handle = _CrossThreadTimer()

        def arm() -> None:
            if not handle.cancelled:
                handle.inner = self._loop.call_later(delay, fn)

        if not self._submit(arm):
            handle.cancelled = True
        return handle

    def post(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread as soon as possible; dropped once
        the runtime is stopped."""
        self._submit(fn)

    def call_blocking(self, fn: Callable[[], object], timeout: float = 5.0):
        """Run ``fn`` inside the serialization domain and wait for its
        result; raises whatever ``fn`` raised, or :class:`MiddlewareError`
        at once if the runtime is stopped. Called *on* the loop thread it
        degenerates to a direct call (blocking there would deadlock)."""
        if threading.get_ident() == self._loop_thread_ident:
            return fn()
        future: concurrent.futures.Future = concurrent.futures.Future()

        def run() -> None:
            try:
                future.set_result(fn())
            except Exception as exc:  # noqa: BLE001 — re-raised in the caller
                future.set_exception(exc)

        if not self._submit(run):
            raise MiddlewareError(_STOPPED)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            raise TimeoutError("loop call timed out") from None

    @property
    def errors(self) -> List[Exception]:
        """Exceptions raised by loop callbacks (kept, never swallowed)."""
        return list(self._errors)

    # -- internals ---------------------------------------------------------
    def _submit(self, fn: Callable[[], None]) -> bool:
        """Queue ``fn`` on the loop from any thread; False once the loop
        is closed (asyncio's only RuntimeError here)."""
        try:
            self._loop.call_soon_threadsafe(fn)
        except RuntimeError:
            return False
        return True

    def _note_thread(self) -> None:
        self._loop_thread_ident = threading.get_ident()

    def _on_loop_exception(self, loop, context) -> None:
        exc = context.get("exception")
        if exc is None:
            exc = RuntimeError(context.get("message", "event loop error"))
        self._errors.append(exc)


class AsyncRuntime:
    """Wall-clock harness: asyncio loop + batch-I/O UDP + containers.

    The one real-socket runtime: same methods and wire format as
    :class:`SimRuntime`. Ingress is drained in bursts and egress leaves
    through scatter/gather ``sendmsg`` without datagram joins (see
    docs/performance.md §6).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        base_port: int = 0,
        use_uvloop: Optional[bool] = None,
    ):
        self._loop, self.uses_uvloop = _new_event_loop(use_uvloop)
        self.reactor = LoopDomain(self._loop)
        self.network = UdpNetwork(host=host, base_port=base_port)
        self.containers: Dict[str, ServiceContainer] = {}
        self._started = False
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run_loop, name="async-runtime", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        self.reactor._note_thread()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()
            # The OS may hand this ident to a later thread, which must
            # take the cross-thread (stopped) paths, not the on-loop ones.
            self.reactor._loop_thread_ident = None

    # -- topology ----------------------------------------------------------
    def add_container(
        self,
        container_id: str,
        node: Optional[str] = None,
        config: Optional[ContainerConfig] = None,
        **config_overrides,
    ) -> ServiceContainer:
        if container_id in self.containers:
            raise ConfigurationError(f"container {container_id!r} already exists")
        node = node or container_id
        if config is None:
            config = ContainerConfig(
                container_id=container_id, node=node, **config_overrides
            )
        raw = AsyncUdpTransport(self.network, node, self._loop)
        transport = FrameTransport(raw, clock=self.reactor, source=container_id)
        container = ServiceContainer(
            config=config, clock=self.reactor, timers=self.reactor,
            transport=transport,
        )
        self.containers[container_id] = container
        if self._started:
            self.reactor.call_blocking(container.start)
        return container

    def container(self, container_id: str) -> ServiceContainer:
        return self.containers[container_id]

    # -- execution ---------------------------------------------------------
    def start(self) -> None:
        """Start every container in one loop turn, then have each announce.

        A container announces as it starts, but only those already open
        hear it; the announce sent once every socket is open is the one
        the whole domain hears, so nobody waits for a periodic one."""
        self._started = True

        def start_all() -> None:
            fresh = [c for c in self.containers.values() if not c.running]
            for container in fresh:
                container.start()
            for container in fresh:
                container.announce_soon()

        self.reactor.call_blocking(start_all)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for container in self.containers.values():
            if container.running:
                self.reactor.call_blocking(container.stop)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    def run_for(self, duration: float) -> None:
        """Let the system run for ``duration`` wall seconds."""
        # repro: allow[REP004] -- blocks the *application* thread by
        # contract while the loop keeps serving; never runs on it.
        time.sleep(duration)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float, poll: float = 0.02
    ) -> bool:
        """Wait until ``predicate`` (evaluated on the loop thread) holds.

        The wait lives entirely on the loop: one coroutine re-checks the
        predicate every ``poll`` seconds of loop time — no cross-thread
        call round-trips while waiting. Raises :class:`MiddlewareError`
        at once if the runtime is stopped.
        """

        async def waiter() -> bool:
            deadline = self._loop.time() + timeout
            while True:
                if predicate():
                    return True
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    return bool(predicate())
                await asyncio.sleep(min(poll, remaining))

        coro = waiter()
        try:
            future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:  # loop closed: nothing will ever await coro
            coro.close()
            raise MiddlewareError(_STOPPED) from None
        try:
            return bool(future.result(timeout + 5.0))
        except concurrent.futures.TimeoutError:  # pragma: no cover — loop wedged
            future.cancel()
            raise TimeoutError("run_until wait timed out") from None

    def on_reactor(self, fn: Callable[[], object], timeout: float = 5.0):
        """Run ``fn`` inside the serialization domain and return its result.

        All interaction with containers/services from application threads
        must go through here.
        """
        return self.reactor.call_blocking(fn, timeout=timeout)


__all__ = ["AsyncRuntime", "LoopDomain"]
