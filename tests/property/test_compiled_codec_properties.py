"""Differential properties: the compiled codec is an *optimization*, never a
format change.

For any hypothesis-generated schema (including unions, nested vectors, and
fixed-length vectors) and any conforming value, :class:`CompiledCodec` must

1. produce byte-identical encodings to the interpreted :class:`BinaryCodec`,
2. decode those bytes to equal values,
3. agree on the trace-tail path (``decode_prefix`` consumption), and
4. agree on *rejection*: truncated and trailing-garbage payloads raise
   :class:`EncodingError` from both codecs, never a different exception and
   never a silent wrong value.

The generated-source fast paths (run coalescing, vector batching, the
single-bool branch) all ride under these properties, so a divergence in any
of them shrinks to a minimal counterexample here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.binary import BinaryCodec
from repro.encoding.compiled import CompiledCodec, compile_plan
from repro.encoding.types import (
    BOOL,
    FLOAT64,
    INT32,
    STRING,
    UINT8,
    UINT16,
    StructType,
    UnionType,
    VectorType,
)
from repro.primitives import wire
from repro.util.errors import EncodingError

from tests.property.test_codec_properties import schemas, typed_values
from tests.property.test_wire_roundtrip_properties import ALL_SCHEMAS, _value_for

INTERPRETED = BinaryCodec()
COMPILED = CompiledCodec()


@settings(max_examples=200, deadline=None)
@given(typed_values)
def test_compiled_bytes_identical_to_interpreted(case):
    datatype, value = case
    reference = INTERPRETED.encode(datatype, value)
    assert COMPILED.encode(datatype, value) == reference


@settings(max_examples=200, deadline=None)
@given(typed_values)
def test_compiled_decode_matches_interpreted(case):
    datatype, value = case
    encoded = INTERPRETED.encode(datatype, value)
    assert COMPILED.decode(datatype, encoded) == INTERPRETED.decode(
        datatype, encoded
    )


@settings(max_examples=150, deadline=None)
@given(typed_values)
def test_compiled_round_trip(case):
    datatype, value = case
    assert COMPILED.decode(datatype, COMPILED.encode(datatype, value)) == value


@settings(max_examples=100, deadline=None)
@given(typed_values, st.binary(max_size=16))
def test_decode_prefix_agrees_on_consumption(case, suffix):
    """The trace tail rides on decode_prefix: both codecs must report the
    same (value, consumed) with arbitrary bytes appended."""
    datatype, value = case
    encoded = INTERPRETED.encode(datatype, value)
    got = COMPILED.decode_prefix(datatype, encoded + suffix)
    assert got == INTERPRETED.decode_prefix(datatype, encoded + suffix)
    assert got == (value, len(encoded))


def _decode_outcome(codec, datatype, data):
    """('ok', value) or ('err',) — rejection parity compares these."""
    try:
        return ("ok", codec.decode(datatype, data))
    except EncodingError:
        return ("err",)


@settings(max_examples=100, deadline=None)
@given(typed_values, st.data())
def test_truncation_rejection_parity(case, data):
    """Cutting the payload anywhere gives the same accept/reject decision —
    and an equal value in the rare accept case (e.g. empty struct prefix)."""
    datatype, value = case
    encoded = INTERPRETED.encode(datatype, value)
    cut = data.draw(st.integers(0, max(0, len(encoded) - 1)))
    truncated = encoded[:cut]
    assert _decode_outcome(COMPILED, datatype, truncated) == _decode_outcome(
        INTERPRETED, datatype, truncated
    )


@settings(max_examples=100, deadline=None)
@given(typed_values, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_rejection_parity(case, garbage):
    datatype, value = case
    payload = INTERPRETED.encode(datatype, value) + garbage
    assert _decode_outcome(COMPILED, datatype, payload) == _decode_outcome(
        INTERPRETED, datatype, payload
    )


@settings(max_examples=50, deadline=None)
@given(typed_values)
def test_compiled_decodes_memoryview_input(case):
    """Zero-copy path: a memoryview over the frame decodes like bytes."""
    datatype, value = case
    encoded = INTERPRETED.encode(datatype, value)
    assert COMPILED.decode(datatype, memoryview(encoded)) == value


@settings(max_examples=50, deadline=None)
@given(schemas)
def test_plan_cache_returns_identical_plan(datatype):
    """compile_plan is cached per schema — recompiling an equal schema must
    hand back the same encoder/decoder functions, not a fresh compile."""
    enc1, dec1 = compile_plan(datatype)
    enc2, dec2 = compile_plan(datatype)
    assert enc1 is enc2
    assert dec1 is dec2


@pytest.mark.parametrize("schema", ALL_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_wire_schemas_traced_frames_differential(schema, data):
    """The trace tail rides after the payload; the compiled codec behind
    ``wire`` must consume exactly the payload bytes so the tagged tail
    parses — differential against re-encoding through the interpreter."""
    from repro.observability.trace import TraceContext

    doc = data.draw(_value_for(schema))
    trace = TraceContext(trace_id="t-1", span_id="s-1")
    payload = wire.encode(schema, doc, trace=trace)
    assert payload[: len(INTERPRETED.encode(schema, doc))] == INTERPRETED.encode(
        schema, doc
    )
    decoded, context = wire.decode_traced(schema, payload)
    assert decoded == doc
    assert context == trace


# -- inputs the source generator owns since the closure compiler was deleted ----
#
# Every case below also passes at the parent commit, where a second
# (closure) compiler served unions and caught the SyntaxError that CPython
# raises for generated source nested past 20 blocks / 100 indentation levels.
# They fail only if that fallback goes without the generator learning inline
# unions and the per-function depth split — which is what they pin.


def _nested_vector(depth):
    """``int32[]…[]`` ``depth`` deep and a value for it; the empty sibling at
    every level exercises the zero-count path too."""
    datatype, value = INT32, [1, -2, 3]
    for _ in range(depth):
        datatype = VectorType(datatype)
    for _ in range(depth - 1):
        value = [value, []]
    return datatype, value


def _mixed_chain(levels):
    """union -> struct -> vector -> union -> … ``levels`` deep around an int32."""
    datatype, value = INT32, 7
    for level in range(levels):
        if level % 3 == 0:
            datatype, value = VectorType(datatype), [value]
        elif level % 3 == 1:
            datatype = StructType(
                f"S{level}", [("id", UINT16), ("next", datatype), ("label", STRING)]
            )
            value = {"id": level, "next": value, "label": f"L{level}"}
        else:
            datatype = UnionType(f"U{level}", [("none", BOOL), ("some", datatype)])
            value = ("some", value)
    return datatype, value


_INNER = UnionType(
    "Inner",
    [
        ("num", INT32),
        ("text", STRING),
        ("rec", StructType("Rec", [("x", FLOAT64), ("tags", VectorType(STRING))])),
    ],
)
_UNION_IN_VECTOR_IN_UNION_IN_STRUCT = StructType(
    "Envelope",
    [
        ("id", UINT16),
        ("body", UnionType("Outer", [("none", BOOL), ("many", VectorType(_INNER))])),
        ("crc", UINT16),
    ],
)
_WIDE_UNION = UnionType(
    "Wide", [(f"t{i}", UINT8 if i % 2 else STRING) for i in range(256)]
)

GENERATOR_OWNED = {
    "vector-21-deep": _nested_vector(21),
    "vector-25-deep": _nested_vector(25),
    "vector-120-deep": _nested_vector(120),
    "mixed-chain-40-deep": _mixed_chain(40),
    "union-in-vector-in-union-in-struct": (
        _UNION_IN_VECTOR_IN_UNION_IN_STRUCT,
        {
            "id": 9,
            "body": (
                "many",
                [("num", -5), ("text", "héllo"), ("rec", {"x": 0.5, "tags": ["a", ""]})],
            ),
            "crc": 65535,
        },
    ),
    "union-256-first-tag": (_WIDE_UNION, ("t0", "first")),
    "union-256-last-tag": (_WIDE_UNION, ("t255", 255)),
}


@pytest.mark.parametrize("name", GENERATOR_OWNED)
@settings(max_examples=25, deadline=None)
@given(suffix=st.binary(max_size=8), data=st.data())
def test_generator_owned_schemas_differential(name, suffix, data):
    """Deep nesting and unions through the public codec: same bytes, same
    values, same ``decode_prefix`` consumption, ``memoryview`` input, and the
    same accept/reject decision when cut anywhere or followed by garbage."""
    datatype, value = GENERATOR_OWNED[name]
    encoded = INTERPRETED.encode(datatype, value)
    assert COMPILED.encode(datatype, value) == encoded
    assert COMPILED.decode(datatype, encoded) == value
    assert COMPILED.decode(datatype, memoryview(encoded)) == value
    assert (
        COMPILED.decode_prefix(datatype, memoryview(encoded + suffix))
        == INTERPRETED.decode_prefix(datatype, encoded + suffix)
        == (value, len(encoded))
    )
    cut = data.draw(st.integers(0, len(encoded) - 1))
    for payload in (encoded[:cut], encoded + suffix):
        assert _decode_outcome(COMPILED, datatype, payload) == _decode_outcome(
            INTERPRETED, datatype, payload
        )


def test_plan_cache_identity_survives_the_depth_split():
    """A sub-schema that became its own generated function is compiled once
    with its parent: an equal schema still gets the very same plan."""
    first = compile_plan(_nested_vector(25)[0])
    second = compile_plan(_nested_vector(25)[0])
    assert first[0] is second[0]
    assert first[1] is second[1]
