"""Round-trip tests for every primitive wire schema."""

import pytest

from repro.primitives import wire


CASES = [
    (wire.VAR_SAMPLE_SCHEMA,
     {"name": "gps.position", "timestamp": 12.5, "value": b"\x01\x02"}),
    (wire.VAR_INITIAL_REQUEST_SCHEMA,
     {"name": "gps.position", "subscriber": "ground"}),
    (wire.VAR_INITIAL_RESPONSE_SCHEMA,
     {"name": "gps.position", "timestamp": 1.0, "has_value": True, "value": b"x"}),
    (wire.EVENT_MESSAGE_SCHEMA,
     {"name": "mission.photo_request", "timestamp": 3.25, "value": b""}),
    (wire.EVENT_SUBSCRIBE_SCHEMA,
     {"name": "mission.photo_request", "subscriber": "payload", "subscribe": False}),
    (wire.RPC_REQUEST_SCHEMA,
     {"call_id": "call-7", "function": "camera.configure", "args": b"\x00" * 16}),
    (wire.RPC_RESPONSE_SCHEMA,
     {"call_id": "call-7", "ok": False, "error": "lens busy", "result": b""}),
    (wire.FILE_ANNOUNCE_SCHEMA,
     {"name": "photo.1", "revision": 3, "size": 1 << 20, "chunk_size": 1024,
      "total_chunks": 1024}),
    (wire.FILE_SUBSCRIBE_SCHEMA,
     {"name": "photo.1", "subscriber": "storage-node", "revision": 3}),
    (wire.FILE_CHUNK_SCHEMA,
     {"name": "photo.1", "revision": 3, "index": 17, "total": 1024,
      "data": bytes(range(256))}),
    (wire.FILE_STATUS_REQUEST_SCHEMA, {"name": "photo.1", "revision": 3}),
    (wire.FILE_ACK_SCHEMA,
     {"name": "photo.1", "subscriber": "storage-node", "revision": 3}),
    (wire.FILE_NACK_SCHEMA,
     {"name": "photo.1", "subscriber": "storage-node", "revision": 3,
      "missing": [{"start": 0, "end": 4}, {"start": 9, "end": 9}]}),
]


@pytest.mark.parametrize(
    "schema,doc", CASES, ids=[schema.name for schema, _ in CASES]
)
def test_round_trip(schema, doc):
    assert wire.decode(schema, wire.encode(schema, doc)) == doc


def test_schemas_reject_missing_fields():
    from repro.util.errors import EncodingError

    with pytest.raises(EncodingError):
        wire.encode(wire.VAR_SAMPLE_SCHEMA, {"name": "x"})


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        wire.indices_from_ranges([{"start": 5, "end": 3}])
