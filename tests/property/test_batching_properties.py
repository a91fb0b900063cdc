"""Property and fuzz suite for the BATCH codec and the frame batcher.

Pins the invariants the data-plane batching stage is built on:

- batch/unbatch roundtrip is identity for arbitrary frame sequences;
- the batcher preserves per-(destination, band) order;
- no assembled batch datagram ever exceeds the MTU budget;
- single-frame flushes are byte-identical to the unbatched wire format,
  and with batching disabled the egress stage does not touch frames at
  all — the seed parity guarantee;
- the decoder rejects every malformation with a clean ``EncodingError``
  (mirroring the rejection-parity style of
  ``test_compiled_codec_properties.py``), never another exception and
  never a silent partial result.
"""

import pytest
from hypothesis import given, strategies as st

from repro.protocol.batching import (
    FrameBatcher,
    decode_batch_payload,
    encode_batch_payload,
    make_batch_frame,
)
from repro.protocol.frames import Frame, MessageKind
from repro.sim import Simulator
from repro.util.errors import EncodingError

#: Kinds legal inside a batch (everything except BATCH/FRAGMENT).
_INNER_KINDS = [
    k for k in MessageKind if k not in (MessageKind.BATCH, MessageKind.FRAGMENT)
]

_SOURCES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=16
)

frames_st = st.builds(
    Frame,
    kind=st.sampled_from(_INNER_KINDS),
    source=_SOURCES,
    payload=st.binary(max_size=128),
    channel=st.integers(min_value=0, max_value=0xFFFF),
    seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flags=st.integers(min_value=0, max_value=3),
)


def collecting_batcher(source="batcher", mtu=1200, piggyback=None):
    sim = Simulator()
    emitted = []
    batcher = FrameBatcher(
        clock=sim,
        timers=sim,
        source=source,
        emit=lambda dest, frame, band, _slot: emitted.append((dest, frame, band)),
        mtu=mtu,
        flush_interval=0.002,
        piggyback=piggyback,
    )
    return sim, batcher, emitted


def expand(emitted):
    """Flatten emitted frames, opening BATCH wrappers."""
    flat = []
    for dest, frame, band in emitted:
        if frame.kind == MessageKind.BATCH:
            for inner in decode_batch_payload(frame.payload):
                flat.append((dest, inner, band))
        else:
            flat.append((dest, frame, band))
    return flat


class TestRoundtrip:
    @given(st.lists(frames_st, min_size=1, max_size=20))
    def test_encode_decode_is_identity(self, frames):
        payload = encode_batch_payload([f.encode() for f in frames])
        decoded = decode_batch_payload(payload)
        assert [f.encode() for f in decoded] == [f.encode() for f in frames]
        # Field-level identity too, not just byte-level.
        for got, want in zip(decoded, frames):
            assert (got.kind, got.source, got.payload, got.channel, got.seq) == (
                want.kind,
                want.source,
                want.payload,
                want.channel,
                want.seq,
            )

    @given(st.lists(frames_st, min_size=1, max_size=20))
    def test_batch_frame_roundtrip_through_frame_codec(self, frames):
        outer = make_batch_frame("pub", [f.encode() for f in frames])
        reparsed = Frame.decode(outer.encode())
        assert reparsed.kind == MessageKind.BATCH
        inner = decode_batch_payload(reparsed.payload)
        assert [f.encode() for f in inner] == [f.encode() for f in frames]


class TestBatcherProperties:
    @given(
        st.lists(
            st.tuples(
                frames_st,
                st.integers(min_value=0, max_value=2),  # destination index
                st.integers(min_value=0, max_value=2),  # band
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_preserves_per_destination_order_and_loses_nothing(self, items):
        sim, batcher, emitted = collecting_batcher()
        dests = ["dst-a", "dst-b", "dst-c"]
        for frame, dest_idx, band in items:
            batcher.add(dests[dest_idx], frame, band)
        batcher.flush()
        assert batcher.pending_frames == 0
        flat = expand(emitted)
        for dest_idx in range(3):
            for band in range(3):
                want = [
                    f.encode()
                    for f, d, b in items
                    if d == dest_idx and b == band
                ]
                got = [
                    f.encode()
                    for d, f, b in flat
                    if d == dests[dest_idx] and b == band
                ]
                assert got == want

    @given(
        st.lists(
            st.builds(
                Frame,
                kind=st.sampled_from(_INNER_KINDS),
                source=_SOURCES,
                payload=st.binary(max_size=400),  # some exceed the budget
                channel=st.integers(min_value=0, max_value=0xFFFF),
                seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=120, max_value=400),
    )
    def test_batches_never_exceed_mtu_budget(self, frames, mtu):
        sim, batcher, emitted = collecting_batcher(mtu=mtu)
        for frame in frames:
            batcher.add("dst", frame)
        batcher.flush()
        for _, frame, _ in emitted:
            if frame.kind == MessageKind.BATCH:
                assert len(frame.encode()) <= mtu
        # Oversize frames bypass batching raw; everything still arrives.
        assert len(expand(emitted)) == len(frames)

    @given(frames_st)
    def test_single_frame_flush_is_byte_identical_to_unbatched(self, frame):
        sim, batcher, emitted = collecting_batcher()
        batcher.add("dst", frame)
        batcher.flush()
        assert len(emitted) == 1
        _, out, _ = emitted[0]
        assert out.kind != MessageKind.BATCH
        assert out.encode() == frame.encode()
        assert batcher.single_flushes == 1
        assert batcher.batches_sent == 0

    @given(st.lists(frames_st, min_size=1, max_size=10))
    def test_flush_timer_drains_everything(self, frames):
        sim, batcher, emitted = collecting_batcher()
        for frame in frames:
            batcher.add("dst", frame)
        sim.run(until=1.0)
        assert batcher.pending_frames == 0
        assert [f.encode() for _, f, _ in expand(emitted)] == [
            f.encode() for f in frames
        ]


class TestDisabledParity:
    """Batching off → the egress stage passes the very same frame object
    through untouched, so the wire format is byte-for-byte the seed's."""

    @given(frames_st)
    def test_disabled_shaper_passes_frames_through_unmodified(self, frame):
        from repro.container.egress import EgressShaper

        sim = Simulator()
        sent = []
        shaper = EgressShaper(
            clock=sim,
            timers=sim,
            send=lambda dest, f: sent.append(f),
            rate_bps=None,
        )
        assert not shaper.batching_enabled
        before = frame.encode()
        shaper.send("dst", frame)
        assert len(sent) == 1
        assert sent[0] is frame
        assert sent[0].encode() == before


class TestDecoderRejections:
    """Fuzz-style negatives: every malformation is a clean EncodingError."""

    def test_zero_frame_batch(self):
        with pytest.raises(EncodingError):
            decode_batch_payload(b"\x00\x00")
        with pytest.raises(EncodingError):
            encode_batch_payload([])

    def test_truncated_count_header(self):
        for payload in (b"", b"\x01"):
            with pytest.raises(EncodingError):
                decode_batch_payload(payload)

    def test_truncated_length_prefix(self):
        # count=1 but only 2 of the 4 length bytes present.
        with pytest.raises(EncodingError):
            decode_batch_payload(b"\x01\x00" + b"\x05\x00")

    def test_inner_length_overrun(self):
        inner = Frame(kind=MessageKind.EVENT, source="s").encode()
        payload = encode_batch_payload([inner])
        # Inflate the declared inner length past the end of the payload.
        import struct

        bad = payload[:2] + struct.pack("<I", len(inner) + 50) + payload[6:]
        with pytest.raises(EncodingError):
            decode_batch_payload(bad)

    def test_trailing_garbage(self):
        inner = Frame(kind=MessageKind.EVENT, source="s").encode()
        payload = encode_batch_payload([inner])
        with pytest.raises(EncodingError):
            decode_batch_payload(payload + b"junk")

    def test_inner_frame_malformed(self):
        import struct

        garbage = b"\xde\xad\xbe\xef" * 4
        # Valid in every field but the source id, which is not UTF-8.
        bad_source = (
            Frame(kind=MessageKind.EVENT, source="zz").encode().replace(b"zz", b"\xff\xfe")
        )
        for inner in (garbage, bad_source):
            payload = b"\x01\x00" + struct.pack("<I", len(inner)) + inner
            with pytest.raises(EncodingError, match="inner frame 0 malformed"):
                decode_batch_payload(payload)

    def test_nested_batch_rejected(self):
        inner = Frame(kind=MessageKind.EVENT, source="s").encode()
        nested = make_batch_frame("s", [inner]).encode()
        with pytest.raises(EncodingError):
            decode_batch_payload(encode_batch_payload([nested]))

    def test_nested_fragment_rejected(self):
        frag = Frame(kind=MessageKind.FRAGMENT, source="s", payload=b"x").encode()
        with pytest.raises(EncodingError):
            decode_batch_payload(encode_batch_payload([frag]))

    @given(st.binary(max_size=600))
    def test_arbitrary_bytes_never_crash(self, payload):
        try:
            frames = decode_batch_payload(payload)
        except EncodingError:
            return
        # If it decoded, it must be a faithful non-empty parse.
        assert frames
        assert all(f.kind not in (MessageKind.BATCH, MessageKind.FRAGMENT) for f in frames)

    @given(
        st.lists(frames_st, min_size=1, max_size=8),
        st.data(),
    )
    def test_any_strict_truncation_is_rejected(self, frames, data):
        payload = encode_batch_payload([f.encode() for f in frames])
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(EncodingError):
            decode_batch_payload(payload[:cut])

    @given(
        st.lists(frames_st, min_size=1, max_size=8),
        st.binary(min_size=1, max_size=32),
    )
    def test_any_appended_garbage_is_rejected(self, frames, junk):
        payload = encode_batch_payload([f.encode() for f in frames])
        with pytest.raises(EncodingError):
            decode_batch_payload(payload + junk)
