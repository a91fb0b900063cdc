"""Payload schemas for the four primitives.

Application values are encoded with the container's configured codec; these
wrappers (name, timestamps, chunk numbers) always use the binary codec so
the protocol stays parseable regardless of the application-data plug-in.

Every primitive payload may carry an optional **trace-context tail**: one
tag byte (:data:`TRACE_TAIL_TAG`) followed by an encoded
:data:`TRACE_CONTEXT_SCHEMA` struct, appended *after* the payload struct.
Untraced frames are byte-identical to the pre-tracing format, and
:func:`decode` accepts both shapes — so old and new containers interoperate
and tracing costs nothing when disabled.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import (
    BOOL,
    BYTES,
    FLOAT64,
    STRING,
    UINT32,
    UINT64,
    StructType,
    VectorType,
)
from repro.observability.trace import TraceContext
from repro.util.errors import EncodingError

# The protocol wrappers always speak the binary wire format; the compiled
# codec emits byte-identical frames from flat precompiled plans (the
# differential suites in tests/property machine-check the equivalence).
_CODEC = CompiledCodec()

# -- variables (§4.1) -----------------------------------------------------------

VAR_SAMPLE_SCHEMA = StructType(
    "VarSample",
    [("name", STRING), ("timestamp", FLOAT64), ("value", BYTES)],
)

VAR_INITIAL_REQUEST_SCHEMA = StructType(
    "VarInitialRequest",
    [("name", STRING), ("subscriber", STRING)],
)

VAR_INITIAL_RESPONSE_SCHEMA = StructType(
    "VarInitialResponse",
    [("name", STRING), ("timestamp", FLOAT64), ("has_value", BOOL), ("value", BYTES)],
)

# -- events (§4.2) ---------------------------------------------------------------

EVENT_MESSAGE_SCHEMA = StructType(
    "EventMessage",
    [("name", STRING), ("timestamp", FLOAT64), ("value", BYTES)],
)

EVENT_SUBSCRIBE_SCHEMA = StructType(
    "EventSubscribe",
    [("name", STRING), ("subscriber", STRING), ("subscribe", BOOL)],
)

# -- remote invocation (§4.3) -------------------------------------------------------

RPC_REQUEST_SCHEMA = StructType(
    "RpcRequest",
    [("call_id", STRING), ("function", STRING), ("args", BYTES)],
)

RPC_RESPONSE_SCHEMA = StructType(
    "RpcResponse",
    [("call_id", STRING), ("ok", BOOL), ("error", STRING), ("result", BYTES)],
)

# -- file transmission (§4.4) --------------------------------------------------------

FILE_ANNOUNCE_SCHEMA = StructType(
    "FileAnnounce",
    [
        ("name", STRING),
        ("revision", UINT32),
        ("size", UINT64),
        ("chunk_size", UINT32),
        ("total_chunks", UINT32),
    ],
)

FILE_SUBSCRIBE_SCHEMA = StructType(
    "FileSubscribe",
    [("name", STRING), ("subscriber", STRING), ("revision", UINT32)],
)

FILE_CHUNK_SCHEMA = StructType(
    "FileChunk",
    [
        ("name", STRING),
        ("revision", UINT32),
        ("index", UINT32),
        ("total", UINT32),
        ("data", BYTES),
    ],
)

FILE_STATUS_REQUEST_SCHEMA = StructType(
    "FileStatusRequest",
    [("name", STRING), ("revision", UINT32)],
)

FILE_ACK_SCHEMA = StructType(
    "FileAck",
    [("name", STRING), ("subscriber", STRING), ("revision", UINT32)],
)

#: Missing chunks are reported as inclusive [start, end] ranges — the
#: "compressed list of the chunks it lacks" from §4.4.
CHUNK_RANGE_SCHEMA = StructType("ChunkRange", [("start", UINT32), ("end", UINT32)])

FILE_NACK_SCHEMA = StructType(
    "FileNack",
    [
        ("name", STRING),
        ("subscriber", STRING),
        ("revision", UINT32),
        ("missing", VectorType(CHUNK_RANGE_SCHEMA)),
    ],
)


# -- trace-context tail ---------------------------------------------------------

#: Rides after the payload struct when a frame carries tracing context.
TRACE_CONTEXT_SCHEMA = StructType(
    "TraceContext",
    [("trace_id", STRING), ("span_id", STRING)],
)

#: Tag byte introducing the trace tail (ASCII 'T'). A payload struct decode
#: consumes exact lengths, so the byte after it is unambiguous.
TRACE_TAIL_TAG = 0x54


_TAIL_TAG_BYTES = bytes((TRACE_TAIL_TAG,))
_encode_tail = _CODEC.encoder(TRACE_CONTEXT_SCHEMA)
_decode_tail = _CODEC.decoder(TRACE_CONTEXT_SCHEMA)


def _with_tail(payload: bytes, trace: TraceContext) -> bytes:
    return payload + _TAIL_TAG_BYTES + _encode_tail(trace.to_doc())


def _read_tail(schema: StructType, payload: bytes, consumed: int) -> TraceContext:
    """The trace context behind the ``consumed`` bytes of the payload struct."""
    if payload[consumed] != TRACE_TAIL_TAG:
        raise EncodingError(
            f"{len(payload) - consumed} trailing bytes after decoding "
            f"{schema.describe()} (not a trace tail)"
        )
    return TraceContext.from_doc(_decode_tail(payload[consumed + 1 :]))


def encode(schema: StructType, doc: dict, trace: Optional[TraceContext] = None) -> bytes:
    """Encode ``doc``; with ``trace`` set, append the trace-context tail.

    ``trace=None`` produces exactly the historical untraced bytes."""
    payload = _CODEC.encode(schema, doc)
    return payload if trace is None else _with_tail(payload, trace)


def decode_traced(
    schema: StructType, payload: bytes
) -> Tuple[dict, Optional[TraceContext]]:
    """Decode a payload that may carry a trace tail; (doc, context-or-None)."""
    doc, consumed = _CODEC.decode_prefix(schema, payload)
    if consumed == len(payload):
        return doc, None
    return doc, _read_tail(schema, payload, consumed)


def decode(schema: StructType, payload: bytes) -> dict:
    """Decode a payload, tolerating (and dropping) a trace tail."""
    return decode_traced(schema, payload)[0]


def _encoder(schema: StructType) -> Callable[..., bytes]:
    """:func:`encode` with ``schema`` bound once: ``(doc, trace=None) -> bytes``."""
    encode_doc = _CODEC.encoder(schema)

    def encode_bound(doc: dict, trace: Optional[TraceContext] = None) -> bytes:
        payload = encode_doc(doc)
        return payload if trace is None else _with_tail(payload, trace)

    return encode_bound


def _traced_decoder(
    schema: StructType,
) -> Callable[[bytes], Tuple[dict, Optional[TraceContext]]]:
    """:func:`decode_traced` with ``schema`` bound once: ``payload -> (doc,
    context-or-None)``."""
    decode_doc = _CODEC.prefix_decoder(schema)

    def decode_bound(payload: bytes) -> Tuple[dict, Optional[TraceContext]]:
        doc, consumed = decode_doc(payload)
        if consumed == len(payload):
            return doc, None
        return doc, _read_tail(schema, payload, consumed)

    return decode_bound


# The per-message payloads, bound once for every container in the process:
# what the variable, event and invocation managers call per sample, event
# and call. Everything rarer goes through encode / decode / decode_traced.
encode_var_sample = _encoder(VAR_SAMPLE_SCHEMA)
decode_var_sample = _traced_decoder(VAR_SAMPLE_SCHEMA)
encode_event_message = _encoder(EVENT_MESSAGE_SCHEMA)
decode_event_message = _traced_decoder(EVENT_MESSAGE_SCHEMA)
encode_rpc_request = _encoder(RPC_REQUEST_SCHEMA)
decode_rpc_request = _traced_decoder(RPC_REQUEST_SCHEMA)
encode_rpc_response = _encoder(RPC_RESPONSE_SCHEMA)
decode_rpc_response = _traced_decoder(RPC_RESPONSE_SCHEMA)


def ranges_from_indices(indices) -> list:
    """Run-length-compress a set of chunk indices into [start, end] ranges."""
    out = []
    for index in sorted(indices):
        if out and index == out[-1]["end"] + 1:
            out[-1]["end"] = index
        else:
            out.append({"start": index, "end": index})
    return out


def indices_from_ranges(ranges) -> list:
    """Expand [start, end] ranges back into a sorted index list."""
    out = []
    for r in ranges:
        if r["end"] < r["start"]:
            raise ValueError(f"bad chunk range {r}")
        out.extend(range(r["start"], r["end"] + 1))
    return out


__all__ = [
    "VAR_SAMPLE_SCHEMA",
    "VAR_INITIAL_REQUEST_SCHEMA",
    "VAR_INITIAL_RESPONSE_SCHEMA",
    "EVENT_MESSAGE_SCHEMA",
    "EVENT_SUBSCRIBE_SCHEMA",
    "RPC_REQUEST_SCHEMA",
    "RPC_RESPONSE_SCHEMA",
    "FILE_ANNOUNCE_SCHEMA",
    "FILE_SUBSCRIBE_SCHEMA",
    "FILE_CHUNK_SCHEMA",
    "FILE_STATUS_REQUEST_SCHEMA",
    "FILE_ACK_SCHEMA",
    "FILE_NACK_SCHEMA",
    "CHUNK_RANGE_SCHEMA",
    "TRACE_CONTEXT_SCHEMA",
    "TRACE_TAIL_TAG",
    "encode",
    "decode",
    "decode_traced",
    "encode_var_sample",
    "decode_var_sample",
    "encode_event_message",
    "decode_event_message",
    "encode_rpc_request",
    "decode_rpc_request",
    "encode_rpc_response",
    "decode_rpc_response",
    "ranges_from_indices",
    "indices_from_ranges",
]
