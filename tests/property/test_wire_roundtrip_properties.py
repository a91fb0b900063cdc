"""Property-based round-trips of every primitive wire schema.

Three compatibility contracts are on the line:

1. **Untraced frames are byte-identical to the pre-tracing format** — a
   container with tracing disabled emits exactly what the seed emitted.
2. **Traced frames decode everywhere** — the tagged trace tail is parsed
   when asked for (``decode_traced``), silently dropped by the legacy
   ``decode``, and untraced payloads read back with a ``None`` context.
3. **The compiled codec changes nothing** — ``wire`` now encodes through
   schema-compiled plans, so every assertion against the interpreted
   :class:`BinaryCodec` here is a differential test of the compiler.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.binary import BinaryCodec
from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import PrimitiveType, StructType, VectorType
from repro.observability.trace import TraceContext
from repro.primitives import wire
from repro.util.errors import EncodingError

#: The interpreted reference; ``wire`` itself runs the compiled codec.
CODEC = BinaryCodec()
COMPILED = CompiledCodec()

#: Every payload schema a primitive puts on the wire.
ALL_SCHEMAS = [
    wire.VAR_SAMPLE_SCHEMA,
    wire.VAR_INITIAL_REQUEST_SCHEMA,
    wire.VAR_INITIAL_RESPONSE_SCHEMA,
    wire.EVENT_MESSAGE_SCHEMA,
    wire.EVENT_SUBSCRIBE_SCHEMA,
    wire.RPC_REQUEST_SCHEMA,
    wire.RPC_RESPONSE_SCHEMA,
    wire.FILE_ANNOUNCE_SCHEMA,
    wire.FILE_SUBSCRIBE_SCHEMA,
    wire.FILE_CHUNK_SCHEMA,
    wire.FILE_STATUS_REQUEST_SCHEMA,
    wire.FILE_ACK_SCHEMA,
    wire.FILE_NACK_SCHEMA,
    wire.TRACE_CONTEXT_SCHEMA,
]


def _value_for(datatype):
    """A strategy producing conforming values for any wire-schema type."""
    kind = datatype.kind
    if kind == "bool":
        return st.booleans()
    if kind in ("float32", "float64"):
        return st.floats(allow_nan=False, width=64 if kind == "float64" else 32)
    if kind == "string":
        return st.text(max_size=30)
    if kind == "bytes":
        return st.binary(max_size=64)
    if kind in PrimitiveType._INT_RANGES:
        lo, hi = PrimitiveType._INT_RANGES[kind]
        return st.integers(lo, hi)
    if isinstance(datatype, VectorType):
        inner = _value_for(datatype.element)
        if datatype.length is None:
            return st.lists(inner, max_size=4)
        return st.lists(inner, min_size=datatype.length, max_size=datatype.length)
    if isinstance(datatype, StructType):
        return st.fixed_dictionaries(
            {name: _value_for(t) for name, t in datatype.fields}
        )
    raise AssertionError(f"no strategy for {datatype!r}")


traces = st.builds(
    TraceContext,
    trace_id=st.text(min_size=1, max_size=24),
    span_id=st.text(min_size=1, max_size=24),
)


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_untraced_encode_matches_raw_codec_bytes(schema, data):
    """Contracts 1 and 3: trace=None produces the historical byte stream,
    and the compiled codec behind ``wire`` reproduces the interpreter's
    bytes exactly."""
    doc = data.draw(_value_for(schema))
    payload = wire.encode(schema, doc)
    assert payload == CODEC.encode(schema, doc)
    assert wire.decode(schema, payload) == doc
    assert CODEC.decode(schema, payload) == doc


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_old_frame_reads_back_with_none_context(schema, data):
    doc = data.draw(_value_for(schema))
    decoded, context = wire.decode_traced(schema, wire.encode(schema, doc))
    assert decoded == doc
    assert context is None


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_traced_frame_round_trips_doc_and_context(schema, data):
    doc = data.draw(_value_for(schema))
    trace = data.draw(traces)
    payload = wire.encode(schema, doc, trace=trace)
    decoded, context = wire.decode_traced(schema, payload)
    assert decoded == doc
    assert context == trace
    # A reader that never asks for the context still gets the doc (a new
    # frame arriving at an untraced decode path).
    assert wire.decode(schema, payload) == doc


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_non_tail_trailing_bytes_still_rejected(schema, data):
    """The tail carved out a *tagged* exception, not a hole: arbitrary
    trailing bytes remain an encoding error."""
    doc = data.draw(_value_for(schema))
    garbage = data.draw(st.binary(min_size=1, max_size=8))
    if garbage[0] == wire.TRACE_TAIL_TAG:
        garbage = bytes([wire.TRACE_TAIL_TAG + 1]) + garbage[1:]
    with pytest.raises(EncodingError):
        wire.decode(schema, wire.encode(schema, doc) + garbage)


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_prefix_reports_exact_consumption(schema, data):
    """decode_prefix is what makes the tail possible: it must consume
    exactly the struct's bytes and ignore whatever follows."""
    doc = data.draw(_value_for(schema))
    suffix = data.draw(st.binary(max_size=16))
    encoded = CODEC.encode(schema, doc)
    value, consumed = CODEC.decode_prefix(schema, encoded + suffix)
    assert value == doc
    assert consumed == len(encoded)
    # Contract 3: the compiled prefix decode agrees byte for byte.
    assert COMPILED.decode_prefix(schema, encoded + suffix) == (value, consumed)


@settings(max_examples=60, deadline=None)
@given(trace=traces, data=st.data())
def test_trace_context_doc_round_trip(trace, data):
    assert TraceContext.from_doc(trace.to_doc()) == trace
    # And through the wire tail itself, on a representative schema.
    doc = data.draw(_value_for(wire.EVENT_MESSAGE_SCHEMA))
    payload = wire.encode(wire.EVENT_MESSAGE_SCHEMA, doc, trace=trace)
    assert wire.decode_traced(wire.EVENT_MESSAGE_SCHEMA, payload)[1] == trace
