"""The Remote Invocation primitive (§4.3).

Two-way point-to-point calls between services, with the server's location
fully abstracted by the middleware:

- functions are exposed with typed parameters and an optional return value;
- clients "check that all the functions they need … are provided by one or
  more services available in the network" (:meth:`InvocationManager.check_required`);
- binding is **static** (pre-allocated provider), **round-robin**, or
  **least-loaded** (heartbeat load field) — the paper's static/dynamic
  redirection;
- on provider failure "the middleware will detect the situation and redirect
  requests to the redundant service" — pending calls are re-issued to the
  next provider, up to ``CALL_MAX_REDIRECTS`` times;
- "if no service provides the requested function the middleware will warn
  the system to take the programmed emergency procedure" — the container's
  emergency hook fires and the call errors with
  :class:`~repro.util.errors.NameResolutionError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.encoding.schema import parse_type
from repro.encoding.types import DataType, StructType
from repro.observability.metrics import Counter, Histogram
from repro.primitives import wire
from repro.primitives.host import PrimitiveHost
from repro.protocol.frames import Frame, MessageKind
from repro.util.errors import (
    ConfigurationError,
    InvocationError,
    NameResolutionError,
)
from repro.util.ids import make_uid
from repro.util.wakeup import Wakeup

OnResult = Callable[[Any], None]
OnError = Callable[[Exception], None]

#: Automatic re-routes of a failed call before giving up.
CALL_MAX_REDIRECTS = 2
#: Caller-side args bindings kept per manager; cleared wholesale when full.
_ARGS_MEMO_MAX = 1024
#: A result decoder not bound yet (a bound ``None`` means "no result type").
_UNBOUND = object()


def _param_names(count: int) -> Tuple[str, ...]:
    """Field names of the args struct: ``p0``, ``p1``, …"""
    return tuple(f"p{i}" for i in range(count))


def _args_schema(name: str, params: Sequence[DataType]) -> Optional[StructType]:
    """Build the struct carrying a call's arguments (None for zero-arg)."""
    if not params:
        return None
    return StructType(
        f"Args_{name.replace('.', '_')}",
        list(zip(_param_names(len(params)), params)),
    )


@dataclass
class FunctionProvision:
    """Server-side registration of one callable function."""

    name: str
    params: List[DataType]
    result: Optional[DataType]
    fn: Callable[..., Any]
    service: str
    calls_served: int = 0
    #: Built once: the codec caches compiled schemas by object identity.
    args_schema: Optional[StructType] = field(init=False, repr=False)
    #: Resolved once at ``provide``: the args decoder and the result encoder
    #: bound to their schemas (None without arguments / without a result).
    _decode_args: Optional[Callable[[bytes], dict]] = field(
        init=False, repr=False, default=None
    )
    _encode_result: Optional[Callable[[Any], bytes]] = field(
        init=False, repr=False, default=None
    )
    #: The args struct's field names, in parameter order.
    _arg_names: Tuple[str, ...] = field(init=False, repr=False, default=())

    def __post_init__(self) -> None:
        self.args_schema = _args_schema(self.name, self.params)
        self._arg_names = _param_names(len(self.params))


@dataclass
class CallHandle:
    """Client-side handle for one in-flight invocation."""

    call_id: str
    function: str
    args: tuple
    on_result: Optional[OnResult]
    on_error: Optional[OnError]
    deadline: float
    binding: str
    issued_at: float = 0.0
    #: The window the call was made with: the first and every redirect's.
    timeout: float = 0.0
    provider: Optional[str] = None
    redirects: int = 0
    done: bool = False
    result: Any = None
    error: Optional[Exception] = None
    _span: object = field(default=None, repr=False)

    @property
    def pending(self) -> bool:
        return not self.done


class InvocationManager:
    """Owns both sides of the remote-invocation primitive."""

    def __init__(self, host: PrimitiveHost):
        self._host = host
        self._provisions: Dict[str, FunctionProvision] = {}
        self._calls: Dict[str, CallHandle] = {}
        self._rr_counters: Dict[str, int] = {}
        self._static_bindings: Dict[str, str] = {}  # function -> container
        #: (function, offered params) -> (parameter count, field names, the
        #: args struct's bound encoder): one schema per distinct offer.
        self._args_memo: Dict[tuple, tuple] = {}
        #: What calling a function at one provider needs, bound from the
        #: provider's offer at the first call (its ``_args_memo`` entry) and
        #: at the first response (the result decoder, or None); both valid
        #: while the directory revision stands and no local provision has
        #: come or gone since, like the event manager's decoder cache.
        self._arg_encoders: Dict[Tuple[str, str], tuple] = {}
        self._result_decoders: Dict[Tuple[str, str], Optional[Callable]] = {}
        self._bound_rev = -1
        #: One wake-up for every pending call, never later than the earliest
        #: ``CallHandle.deadline``.
        self._wakeup = Wakeup(host.clock, host.timers, self._expire_due)
        # Everything a call needs from the host, resolved once: the
        # collaborators are fixed for the container's life (their *state* —
        # tracer.enabled, probes.enabled, the config's values — is read
        # live, per call).
        self._id = host.id
        self._clock = host.clock
        self._codec = host.codec
        self._config = host.config
        self._directory = host.directory
        self._tracer = host.tracer
        self._probes = host.probes

    # Instruments, each resolved at its first use and then a plain attribute:
    # no lookup by name per call, and a container that never makes, serves or
    # times out a call — most of a fleet — registers none of them.
    @cached_property
    def _calls_counter(self) -> Counter:
        return self._host.metrics.counter("rpc_calls")

    @cached_property
    def _served_counter(self) -> Counter:
        return self._host.metrics.counter("rpc_served")

    @cached_property
    def _timeouts_counter(self) -> Counter:
        return self._host.metrics.counter("rpc_timeouts")

    @cached_property
    def _completed_counter(self) -> Counter:
        return self._host.metrics.counter("rpc_completed")

    @cached_property
    def _errors_counter(self) -> Counter:
        return self._host.metrics.counter("rpc_errors")

    @cached_property
    def _latency_histogram(self) -> Histogram:
        return self._host.metrics.histogram("rpc_latency")

    # -- server side ----------------------------------------------------------
    def provide(
        self,
        name: str,
        fn: Callable[..., Any],
        params: Optional[Sequence[DataType]] = None,
        result: Optional[DataType] = None,
        service: str = "",
    ) -> FunctionProvision:
        if name in self._provisions:
            raise ConfigurationError(f"function {name!r} already provided here")
        provision = FunctionProvision(
            name=name,
            params=list(params or []),
            result=result,
            fn=fn,
            service=service,
        )
        if provision.args_schema is not None:
            provision._decode_args = self._codec.decoder(provision.args_schema)
        if result is not None:
            provision._encode_result = self._codec.encoder(result)
        self._provisions[name] = provision
        self._unbind()
        self._host.announce_soon()
        return provision

    def withdraw(self, name: str) -> None:
        if self._provisions.pop(name, None) is not None:
            self._unbind()
            self._host.announce_soon()

    def withdraw_service(self, service: str) -> None:
        for name in [n for n, p in self._provisions.items() if p.service == service]:
            del self._provisions[name]
        self._unbind()
        self._host.announce_soon()

    def offers(self) -> List[dict]:
        return [
            {
                "name": p.name,
                "params": [t.describe() for t in p.params],
                "result": p.result.describe() if p.result else "",
            }
            for p in sorted(self._provisions.values(), key=lambda p: p.name)
        ]

    # -- client side -------------------------------------------------------------
    def check_required(self, functions: Sequence[str]) -> List[str]:
        """The §4.3 startup check: which required functions have no provider
        anywhere (locally or in the directory)? Empty list = all satisfied."""
        missing = []
        for name in functions:
            if name in self._provisions:
                continue
            if self._host.directory.providers_of_function(name):
                continue
            missing.append(name)
        return missing

    def bind_static(self, function: str, container: str) -> None:
        """Pin ``function`` to a provider container (§4.3 static allocation,
        "useful in critical services where resources … are pre-allocated")."""
        self._static_bindings[function] = container

    def call(
        self,
        function: str,
        args: tuple = (),
        on_result: Optional[OnResult] = None,
        on_error: Optional[OnError] = None,
        timeout: Optional[float] = None,
        binding: Optional[str] = None,
    ) -> CallHandle:
        """Invoke ``function`` wherever it lives. Completion is reported via
        callbacks; the returned handle tracks progress. ``timeout`` (default
        ``ContainerConfig.call_timeout``) is the window of the first attempt
        and of every redirect after a timeout."""
        config = self._config
        if timeout is None:
            timeout = config.call_timeout
        now = self._clock.now()
        handle = CallHandle(
            make_uid("call"), function, tuple(args), on_result, on_error,
            now + timeout, binding or config.call_binding, now, timeout,
        )
        self._calls_counter.inc()
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "rpc.call", function, key=handle.call_id,
                attrs={"function": function},
            )
        tracer = self._tracer
        if tracer.enabled:  # skip span-name formatting on the untraced path
            handle._span = tracer.start_span(
                f"rpc:{function}", "rpc.call", call_id=handle.call_id
            )
        self._calls[handle.call_id] = handle
        self._dispatch(handle)
        return handle

    def pending_calls(self) -> List[CallHandle]:
        """In-flight invocations — empty once every call has terminated
        with a result or a defined error (the chaos invariant)."""
        return [h for h in self._calls.values() if h.pending]

    # -- directory hooks ------------------------------------------------------
    def on_provider_down(self, container: str) -> None:
        """Redirect every pending call bound to a dead provider (§4.3)."""
        for handle in [
            h for h in self._calls.values() if h.pending and h.provider == container
        ]:
            self._redirect(handle, reason=f"provider {container} failed")

    # -- frame input ----------------------------------------------------------
    def on_request_frame(self, frame: Frame) -> None:
        doc, trace = wire.decode_rpc_request(frame.payload)
        caller = frame.source
        call_id = doc["call_id"]
        provision = self._provisions.get(doc["function"])
        if provision is None:
            self._respond(
                caller, call_id, False, f"function {doc['function']!r} not provided here"
            )
            return
        try:
            args = self._decode_args(provision, doc["args"])
        except Exception as exc:  # noqa: BLE001 — bad args are a caller error
            self._respond(caller, call_id, False, f"bad arguments: {exc}")
            return
        tracer = self._tracer
        if not tracer.enabled:  # no span: no name formatting, no context switch
            self._host.submit(
                "invocation", partial(self._serve, provision, args, caller, call_id, None)
            )
            return
        span = tracer.start_span(
            f"rpc:{doc['function']}", "rpc.server", parent=trace, caller=caller
        )
        with tracer.activate(tracer.context_of(span)):
            self._host.submit(
                "invocation", partial(self._serve, provision, args, caller, call_id, span)
            )

    def on_response_frame(self, frame: Frame) -> None:
        doc = wire.decode_rpc_response(frame.payload)[0]  # tail-tolerant
        handle = self._calls.get(doc["call_id"])
        if handle is None or handle.done:
            return  # late or duplicate response
        if not doc["ok"]:
            self._finish_error(handle, InvocationError(handle.function, doc["error"]))
            return
        if self._directory.revision != self._bound_rev:
            self._unbind()
        key = (handle.function, frame.source)
        decode = self._result_decoders.get(key, _UNBOUND)
        if decode is _UNBOUND:
            decode = self._bind_result(key)
        encoded = doc["result"]
        self._finish_ok(handle, decode(encoded) if decode is not None and encoded else None)

    # -- internals -----------------------------------------------------------
    def _serve(
        self, provision: FunctionProvision, args: tuple, caller: str, call_id: str, span
    ) -> None:
        """One served request, run by the scheduler."""
        provision.calls_served += 1
        self._served_counter.inc()
        try:
            result = provision.fn(*args)
            encode = provision._encode_result
            encoded = encode(result) if encode is not None else b""
            self._respond(caller, call_id, True, "", encoded)
        except Exception as exc:  # noqa: BLE001 — server fault, reported back
            self._respond(caller, call_id, False, str(exc))
        if span is not None:
            self._tracer.finish(span)

    def _run_local(self, provision: FunctionProvision, handle: CallHandle) -> None:
        """A call to a function this container provides, run by the scheduler."""
        provision.calls_served += 1
        try:
            self._finish_ok(handle, provision.fn(*handle.args))
        except Exception as exc:  # noqa: BLE001
            self._finish_error(handle, InvocationError(handle.function, str(exc)))

    def _submit(self, handle: CallHandle, task: Callable[[], None]) -> None:
        """Hand ``task`` to the scheduler inside the call's trace context."""
        span = handle._span
        if span is None:
            self._host.submit("invocation", task)
            return
        tracer = self._tracer
        with tracer.activate(tracer.context_of(span)):
            self._host.submit("invocation", task)

    def _dispatch(self, handle: CallHandle) -> None:
        # Local fast path: the function lives in this container.
        local = self._provisions.get(handle.function)
        if local is not None:
            handle.provider = self._id
            self._wakeup.need(handle.deadline)
            self._submit(handle, partial(self._run_local, local, handle))
            return

        provider = self._select_provider(handle)
        if provider is None:
            message = f"no provider for function {handle.function!r}"
            self._host.emergency(message)
            self._finish_error(handle, NameResolutionError(message))
            return
        handle.provider = provider
        try:
            encoded_args = self._encode_args(handle.function, provider, handle.args)
        except Exception as exc:  # noqa: BLE001
            self._finish_error(handle, InvocationError(handle.function, f"bad arguments: {exc}"))
            return
        span = handle._span
        payload = wire.encode_rpc_request(
            {"call_id": handle.call_id, "function": handle.function, "args": encoded_args},
            None if span is None else self._tracer.context_of(span),
        )
        self._host.send_reliable(provider, MessageKind.RPC_REQUEST, payload)
        self._wakeup.need(handle.deadline)

    def _select_provider(self, handle: CallHandle) -> Optional[str]:
        if handle.binding == "static":
            pinned = self._static_bindings.get(handle.function)
            if pinned is not None:
                record = self._directory.record(pinned)
                if record is not None and record.alive and handle.function in record.functions:
                    return pinned
                return None  # static binding down: no silent re-route
        providers = self._directory.providers_of_function(handle.function)
        if handle.provider is not None:
            # Skip the one that just failed — unless it is the only one alive.
            others = [r for r in providers if r.container != handle.provider]
            if others:
                providers = others
        if not providers:
            return None
        if handle.binding == "least_loaded":
            return min(providers, key=lambda r: (r.load, r.container)).container
        # round_robin (default)
        counter = self._rr_counters.get(handle.function, 0)
        self._rr_counters[handle.function] = counter + 1
        return providers[counter % len(providers)].container

    def _redirect(self, handle: CallHandle, reason: str) -> None:
        if handle.redirects >= CALL_MAX_REDIRECTS:
            self._finish_error(
                handle,
                InvocationError(handle.function, f"{reason}; redirect limit reached"),
            )
            return
        handle.redirects += 1
        self._dispatch(handle)

    def _expire_due(self, now: float) -> Optional[float]:
        """The wake-up: time out every call whose deadline has passed and
        report the earliest deadline still pending."""
        due = [h for h in self._calls.values() if h.deadline <= now]
        for handle in sorted(due, key=lambda h: h.deadline):
            if handle.done:
                continue
            # A timeout usually means the provider died between heartbeats;
            # treat it like a failure and try a redundant provider — which
            # gets one more timeout window.
            self._timeouts_counter.inc()
            handle.deadline = now + handle.timeout
            self._redirect(handle, reason="call timed out")
        return min((h.deadline for h in self._calls.values()), default=None)

    def _finish_ok(self, handle: CallHandle, result: Any) -> None:
        handle.done = True
        handle.result = result
        self._calls.pop(handle.call_id, None)
        self._completed_counter.inc()
        self._latency_histogram.observe(self._clock.now() - handle.issued_at)
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "rpc.done", handle.function, key=handle.call_id,
                attrs={"function": handle.function, "outcome": "ok"},
            )
        span = handle._span
        if span is not None:
            span.attrs["redirects"] = handle.redirects
            self._tracer.finish(span)
        if handle.on_result is not None:
            self._submit(handle, partial(handle.on_result, result))

    def _finish_error(self, handle: CallHandle, error: Exception) -> None:
        handle.done = True
        handle.error = error
        self._calls.pop(handle.call_id, None)
        self._errors_counter.inc()
        probes = self._probes
        if probes.enabled:
            probes.emit(
                "rpc.done", handle.function, key=handle.call_id,
                attrs={"function": handle.function, "outcome": "error"},
            )
        span = handle._span
        if span is not None:
            span.attrs["redirects"] = handle.redirects
            span.attrs["error"] = str(error)
            self._tracer.finish(span)
        if handle.on_error is not None:
            self._submit(handle, partial(handle.on_error, error))

    def _respond(
        self, caller: str, call_id: str, ok: bool, error: str = "", result: bytes = b""
    ) -> None:
        payload = wire.encode_rpc_response(
            {"call_id": call_id, "ok": ok, "error": error, "result": result},
            # Responses carry the server-side context (the ambient one while
            # the function executed); the caller correlates by call_id.
            self._tracer.current,
        )
        if caller == self._id:
            # Local caller of a local function; deliver without the network.
            self.on_response_frame(Frame(MessageKind.RPC_RESPONSE, self._id, payload))
            return
        self._host.send_reliable(caller, MessageKind.RPC_RESPONSE, payload)

    def _decode_args(self, provision: FunctionProvision, encoded: bytes) -> tuple:
        decode = provision._decode_args
        if decode is None:
            return ()
        return tuple(map(decode(encoded).__getitem__, provision._arg_names))

    def _encode_args(self, function: str, provider: str, args: tuple) -> bytes:
        if self._directory.revision != self._bound_rev:
            self._unbind()
        bound = self._arg_encoders.get((function, provider))
        if bound is None:
            bound = self._bind_args(function, provider)
        arity, names, encode = bound
        if arity != len(args):
            raise InvocationError(function, f"expected {arity} arguments, got {len(args)}")
        return encode(dict(zip(names, args))) if arity else b""

    def _bind_args(self, function: str, provider: str) -> tuple:
        """(parameter count, field names, encoder) from ``provider``'s offer."""
        record = self._directory.record(provider)
        offer = record.functions.get(function) if record else None
        if offer is None:
            raise InvocationError(function, "provider offer unknown")
        key = (function, tuple(offer["params"]))
        bound = self._args_memo.get(key)
        if bound is None:
            if len(self._args_memo) >= _ARGS_MEMO_MAX:
                self._args_memo.clear()
            params = [parse_type(p) for p in offer["params"]]
            schema = _args_schema(function, params)
            bound = self._args_memo[key] = (
                len(params),
                _param_names(len(params)),
                self._codec.encoder(schema) if schema is not None else None,
            )
        self._arg_encoders[(function, provider)] = bound
        return bound

    def _bind_result(self, key: Tuple[str, str]) -> Optional[Callable[[bytes], Any]]:
        """The decoder for ``function``'s result as ``provider`` sends it: a
        local provision's type wins, else the provider's offer; None when
        neither names one."""
        function, provider = key
        local = self._provisions.get(function)
        if local is not None:
            datatype = local.result
        else:
            record = self._directory.record(provider)
            offer = record.functions.get(function) if record else None
            has_result = offer is not None and offer["result"]
            datatype = parse_type(offer["result"]) if has_result else None
        decode = self._result_decoders[key] = (
            self._codec.decoder(datatype) if datatype is not None else None
        )
        return decode

    def _unbind(self) -> None:
        """Forget every binding: the directory moved, or a local provision
        came or went."""
        self._arg_encoders.clear()
        self._result_decoders.clear()
        self._bound_rev = self._directory.revision


__all__ = ["InvocationManager", "CallHandle", "FunctionProvision"]
