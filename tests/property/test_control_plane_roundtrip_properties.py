"""Codec-parity round-trips of the control-plane and fleet-scale schemas.

``primitives/wire.py`` schemas got a differential round-trip suite in the
seed; the control-plane records (ANNOUNCE / HEARTBEAT / BYE) and the
fleet-scale ZONE_SUMMARY are just as much wire surface — every peer on the
segment decodes them — so they get the same contract: the compiled codec
and the interpreted :class:`BinaryCodec` must agree byte-for-byte on encode
and document-for-document on decode.
The nested offer schemas (``VAR_OFFER_SCHEMA`` …) and
``SUMMARY_MEMBER_SCHEMA`` are covered by composition through their parents.

These schemas are also pinned by the wire-schema lockfile
(``tests/unit/test_schema_lock.py``); this suite is the behavioral half
of that contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.gossip import ZONE_SUMMARY_SCHEMA
from repro.container.records import ANNOUNCE_SCHEMA, BYE_SCHEMA, HEARTBEAT_SCHEMA
from repro.encoding.binary import BinaryCodec
from repro.encoding.compiled import CompiledCodec
from repro.encoding.types import PrimitiveType, StructType, VectorType

CODEC = BinaryCodec()
COMPILED = CompiledCodec()

CONTROL_PLANE_SCHEMAS = [
    ANNOUNCE_SCHEMA,
    HEARTBEAT_SCHEMA,
    BYE_SCHEMA,
    ZONE_SUMMARY_SCHEMA,
]


def _value_for(datatype):
    """A strategy producing conforming values for any control-plane type."""
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
            return st.lists(inner, max_size=3)
        return st.lists(inner, min_size=datatype.length, max_size=datatype.length)
    if isinstance(datatype, StructType):
        return st.fixed_dictionaries(
            {name: _value_for(t) for name, t in datatype.fields}
        )
    raise AssertionError(f"no strategy for {datatype!r}")


@pytest.mark.parametrize("schema", CONTROL_PLANE_SCHEMAS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_control_plane_codecs_agree_and_round_trip(schema, data):
    doc = data.draw(_value_for(schema))
    payload = COMPILED.encode(schema, doc)
    assert payload == CODEC.encode(schema, doc)
    assert COMPILED.decode(schema, payload) == doc
    assert CODEC.decode(schema, payload) == doc
