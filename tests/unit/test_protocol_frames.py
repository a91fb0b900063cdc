"""Frame encode/decode tests."""

import pytest

from repro.protocol import Frame, MessageKind
from repro.protocol.frames import MAGIC, FrameFlags
from repro.util.errors import ProtocolError


class TestRoundTrip:
    def test_basic_round_trip(self):
        frame = Frame(
            kind=MessageKind.EVENT,
            source="node-a",
            payload=b"payload",
            channel=7,
            seq=42,
            flags=int(FrameFlags.RELIABLE),
        )
        decoded = Frame.decode(frame.encode())
        assert decoded.kind == MessageKind.EVENT
        assert decoded.source == "node-a"
        assert decoded.payload == b"payload"
        assert decoded.channel == 7
        assert decoded.seq == 42
        assert decoded.flags == int(FrameFlags.RELIABLE)

    def test_empty_payload(self):
        frame = Frame(kind=MessageKind.HEARTBEAT, source="c1")
        decoded = Frame.decode(frame.encode())
        assert decoded.payload == b""

    def test_all_kinds_round_trip(self):
        for kind in MessageKind:
            decoded = Frame.decode(Frame(kind=kind, source="x").encode())
            assert decoded.kind == kind

    def test_unicode_source(self):
        frame = Frame(kind=MessageKind.ANNOUNCE, source="nodé-1")
        assert Frame.decode(frame.encode()).source == "nodé-1"

    def test_header_size_matches_encoding(self):
        frame = Frame(kind=MessageKind.EVENT, source="abc", payload=b"12345")
        assert len(frame.encode()) == frame.header_size + 5


class TestErrors:
    def test_bad_magic(self):
        good = Frame(kind=MessageKind.EVENT, source="a").encode()
        with pytest.raises(ProtocolError, match="magic"):
            Frame.decode(b"XX" + good[2:])

    def test_bad_version(self):
        good = bytearray(Frame(kind=MessageKind.EVENT, source="a").encode())
        good[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            Frame.decode(bytes(good))

    def test_unknown_kind(self):
        good = bytearray(Frame(kind=MessageKind.EVENT, source="a").encode())
        good[3] = 250
        with pytest.raises(ProtocolError, match="kind"):
            Frame.decode(bytes(good))

    def test_too_short(self):
        with pytest.raises(ProtocolError, match="short"):
            Frame.decode(b"UA\x01")

    def test_truncated_source(self):
        frame = Frame(kind=MessageKind.EVENT, source="abcdef")
        encoded = frame.encode()
        with pytest.raises(ProtocolError, match="truncated"):
            Frame.decode(encoded[: frame.header_size - 3])

    def test_source_not_utf8(self):
        good = Frame(kind=MessageKind.EVENT, source="zz", payload=b"p").encode()
        with pytest.raises(ProtocolError, match="source id is not UTF-8"):
            Frame.decode(good.replace(b"zz", b"\xff\xfe"))

    def test_source_too_long(self):
        with pytest.raises(ProtocolError, match="too long"):
            Frame(kind=MessageKind.EVENT, source="x" * 300).encode()

    def test_magic_constant(self):
        assert Frame(kind=MessageKind.EVENT, source="a").encode()[:2] == MAGIC
