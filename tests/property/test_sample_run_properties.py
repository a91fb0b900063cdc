"""A BATCH's samples decoded in place agree with the per-frame path.

The batch decoder hands a run of best-effort VAR_SAMPLE frames from one
publisher to the container as one ``SampleRun``; the variable manager reads
each sample with one prefix compare and one ``unpack_from`` when it matches
a bound (variable, provider), and takes the per-frame path otherwise. These
properties feed generated batches — two providers, two variables, fixed-
and variable-size types, traced samples, wrong value lengths, mutated or
non-UTF-8 names, truncations — to one subscriber container through its
transport and to a twin through ``_on_frames`` with every frame expanded,
and require the same deliveries, malformed reports, counters and flight
recorder entries. A second property pins the batch decoder: expanding its
runs gives what decoding frame by frame gives, and a malformed payload
raises the same error class.
"""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Service, SimRuntime
from repro.encoding import (
    BOOL,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    StructType,
    UnionType,
    VectorType,
)
from repro.encoding.codec import get_codec
from repro.observability.trace import TraceContext
from repro.primitives import wire
from repro.protocol.batching import (
    SampleRun,
    decode_batch,
    decode_batch_payload,
    encode_batch_payload,
    make_batch_frame,
)
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.transport.addressing import Address
from repro.util.errors import EncodingError, ProtocolError
from tests.property.test_codec_properties import schemas as any_schemas

_FIXED_LEAVES = [BOOL, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64,
                 FLOAT32, FLOAT64]
_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


def _fixed_composite(children):
    def unique(pairs):
        seen = set()
        return [(n, t) for n, t in pairs if not (n in seen or seen.add(n))]

    fields = st.lists(st.tuples(_names, children), min_size=1, max_size=4).map(unique)
    return st.one_of(
        st.builds(lambda f: StructType("F", f), fields),
        st.builds(VectorType, children, st.integers(0, 3)),
    )


fixed_schemas = st.recursive(st.sampled_from(_FIXED_LEAVES), _fixed_composite,
                             max_leaves=8)


def _values(datatype):
    name = getattr(datatype, "name", None)
    if datatype is BOOL:
        return st.booleans()
    if datatype is FLOAT64:
        return st.floats(allow_nan=False, allow_infinity=False)
    if datatype is FLOAT32:
        return st.floats(allow_nan=False, allow_infinity=False, width=32)
    if name == "string":
        return st.text(max_size=12)
    if name == "bytes":
        return st.binary(max_size=12)
    if isinstance(datatype, VectorType):
        inner = _values(datatype.element)
        if datatype.length is None:
            return st.lists(inner, max_size=3)
        return st.lists(inner, min_size=datatype.length, max_size=datatype.length)
    if isinstance(datatype, StructType):
        return st.fixed_dictionaries({n: _values(t) for n, t in datatype.fields})
    if isinstance(datatype, UnionType):
        return st.sampled_from(datatype.alternatives).flatmap(
            lambda alt: st.tuples(st.just(alt[0]), _values(alt[1]))
        )
    lo, hi = datatype._INT_RANGES[name]
    return st.integers(lo, hi)


_LEN = struct.Struct("<I")
MUTATIONS = ["none"] * 6 + [
    "short_value_padded",  # exact length, wrong value length
    "long_value",
    "name_byte",
    "non_utf8_name",
    "truncate",
    "garbage_tail",
    "retransmit_flag",  # a header that breaks the run
]


def _mutate(payload, name, mutation, data):
    name_end = _LEN.size + len(name.encode("utf-8"))
    if mutation == "name_byte" and name_end > _LEN.size:
        index = data.draw(st.integers(_LEN.size, name_end - 1))
        flip = data.draw(st.integers(1, 255))
        return payload[:index] + bytes([payload[index] ^ flip]) + payload[index + 1:]
    if mutation == "non_utf8_name" and name_end > _LEN.size:
        return payload[:_LEN.size] + b"\xff" + payload[_LEN.size + 1:]
    if mutation == "truncate":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if mutation == "garbage_tail":
        return payload + b"\x01\x02"
    return payload


def _sample_payload(codec, datatype, name, timestamp, value, traced, mutation, data):
    raw = codec.encode(datatype, value)
    tail = b""
    if mutation == "short_value_padded" and raw:
        raw, tail = raw[:-1], b"\x00"
    elif mutation == "long_value":
        raw += b"\x00"
    trace = TraceContext("t" * 3, "s" * 2) if traced else None
    payload = wire.encode_var_sample(
        {"name": name, "timestamp": timestamp, "value": raw}, trace
    ) + tail
    return _mutate(payload, name, mutation, data)


class _Twins:
    """Two providers, and two subscriber containers set up alike: ``run``
    takes datagrams through its transport, ``ref`` takes the same frames
    expanded through ``_on_frames``."""

    def __init__(self, codec, types):
        self.runtime = SimRuntime(seed=3)
        self.codec = get_codec(codec)
        self.types = types  # (provider, variable) -> datatype
        services = {}
        for name in ("p1", "p2", "ref", "run"):
            self.runtime.add_container(name, codec=codec).install_service(
                services.setdefault(name, Service(name))
            )
        self.runtime.start()
        self.runtime.settle()
        for (provider, variable), datatype in types.items():
            services[provider].ctx.provide_variable(variable, datatype)
        self.log = {"ref": [], "run": [], "malformed_ref": [], "malformed_run": []}
        for side in ("ref", "run"):
            ctx = services[side].ctx
            log = self.log[side]
            ctx.subscribe_variable("v.a", on_sample=lambda v, t, log=log: log.append(("a1", v, t)))
            holder = {}

            def once_twice(v, t, log=log, holder=holder):
                log.append(("a2", v, t))
                if sum(1 for e in log if e[0] == "a2") == 2:
                    holder["sub"].cancel()  # unsubscribes mid-run

            holder["sub"] = ctx.subscribe_variable("v.a", on_sample=once_twice)
            ctx.subscribe_variable("v.b", on_sample=lambda v, t, log=log: log.append(("b", v, t)))
            container = self.runtime.containers[side]
            malformed = self.log[f"malformed_{side}"]
            original = container.note_malformed

            def note(frame, exc, original=original, malformed=malformed):
                malformed.append((frame.source, frame.kind, frame.payload,
                                  type(exc), str(exc)))
                original(frame, exc)

            container.note_malformed = note
        self.runtime.settle()

    def counters(self, side):
        return {key: metric.value
                for key, metric in self.runtime.containers[side].metrics.items()
                if key[0] == "counter"}

    def feed(self, batch_payload, source="p1"):
        datagram = Frame(MessageKind.BATCH, source, batch_payload).encode()
        address = Address(source, 1)
        ref, run = self.runtime.containers["ref"], self.runtime.containers["run"]
        ref._on_frames(decode_batch_payload(batch_payload), address)
        run._transport._on_datagram(datagram, address)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    codec=st.sampled_from(["compiled", "compiled", "binary", "json"]),
    fixed=fixed_schemas,
    other=st.one_of(fixed_schemas, any_schemas),
    data=st.data(),
)
def test_run_path_matches_the_per_frame_path(codec, fixed, other, data):
    types = {("p1", "v.a"): fixed, ("p1", "v.b"): other,
             ("p2", "v.a"): other, ("p2", "v.b"): fixed}
    twins = _Twins(codec, types)
    specs = data.draw(st.lists(
        st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(["v.a", "v.b"]),
                  st.booleans(), st.sampled_from(MUTATIONS),
                  st.sampled_from([1.0, 2.0, 3.0])),
        min_size=1, max_size=20,
    ))
    encoded = []
    for provider, variable, traced, mutation, timestamp in specs:
        datatype = types[(provider, variable)]
        value = data.draw(_values(datatype))
        payload = _sample_payload(twins.codec, datatype, variable, timestamp,
                                  value, traced and data.draw(st.booleans()),
                                  mutation, data)
        flags = int(FrameFlags.RETRANSMIT) if mutation == "retransmit_flag" else 0
        encoded.append(Frame(MessageKind.VAR_SAMPLE, provider, payload, flags=flags).encode())
    batch = encode_batch_payload(encoded)
    recorded = {side: twins.runtime.containers[side].recorder.recorded
                for side in ("ref", "run")}
    counters = {side: twins.counters(side) for side in ("ref", "run")}
    for _ in range(2):  # the second pass meets warm bindings
        twins.feed(batch)

    assert twins.log["run"] == twins.log["ref"]
    assert twins.log["malformed_run"] == twins.log["malformed_ref"]
    for side in ("ref", "run"):
        after = twins.counters(side)
        counters[side] = {key: value - counters[side].get(key, 0)
                          for key, value in after.items()
                          if value != counters[side].get(key, 0)}
    assert counters["run"] == counters["ref"]
    entries = {}
    for side in ("ref", "run"):
        recorder = twins.runtime.containers[side].recorder
        fresh = recorder.recorded - recorded[side]
        assert fresh <= recorder.capacity
        entries[side] = recorder.dump()[len(recorder) - fresh:]
    assert entries["run"] == entries["ref"]


def _frames_one_by_one(payload):
    """The reference: count, then each length-prefixed inner frame through
    ``Frame.decode``, as the batch decoder did before it formed runs."""
    if len(payload) < 2:
        raise EncodingError("short")
    (count,) = struct.unpack_from("<H", payload)
    if count == 0:
        raise EncodingError("zero-frame batch")
    frames, offset = [], 2
    for _ in range(count):
        if len(payload) < offset + 4:
            raise EncodingError("short length")
        (length,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if len(payload) < offset + length:
            raise EncodingError("overrun")
        try:
            frame = Frame.decode(payload[offset:offset + length])
        except ProtocolError as exc:
            raise EncodingError(str(exc)) from exc
        if frame.kind in (MessageKind.BATCH, MessageKind.FRAGMENT):
            raise EncodingError("illegal inner kind")
        frames.append(frame)
        offset += length
    if offset != len(payload):
        raise EncodingError("trailing")
    return frames


def _outcome(fn, payload):
    try:
        return fn(payload)
    except Exception as exc:  # noqa: BLE001 — the class is the outcome
        return type(exc)


_inner = st.builds(
    lambda kind, source, payload, channel, seq, flags: Frame(
        kind, source, payload, channel, seq, flags
    ).encode(),
    kind=st.sampled_from([MessageKind.VAR_SAMPLE] * 4 + [
        MessageKind.EVENT, MessageKind.ACK, MessageKind.BATCH, MessageKind.FRAGMENT]),
    source=st.sampled_from(["p1", "p2", "pé"]),
    payload=st.binary(max_size=24),
    channel=st.sampled_from([0, 0, 0, 1]),
    seq=st.sampled_from([0, 0, 7]),
    flags=st.sampled_from([0, 0, 1, 2]),
)


@settings(max_examples=300, deadline=None)
@given(
    inner=st.lists(_inner, min_size=1, max_size=12),
    cut=st.one_of(st.none(), st.integers(0, 400)),
    flip=st.one_of(st.none(), st.tuples(st.integers(0, 400), st.integers(1, 255))),
    tail=st.binary(max_size=3),
)
def test_expanded_runs_equal_frame_by_frame_decoding(inner, cut, flip, tail):
    payload = encode_batch_payload(inner)
    if flip is not None and flip[0] < len(payload):
        payload = (payload[:flip[0]] + bytes([payload[flip[0]] ^ flip[1]])
                   + payload[flip[0] + 1:])
    if cut is not None:
        payload = payload[:cut]
    payload += tail
    expected = _outcome(_frames_one_by_one, payload)
    assert _outcome(decode_batch_payload, payload) == expected
    items = _outcome(lambda p: decode_batch(p), payload)
    if isinstance(expected, list):
        runs = [item for item in items[0] if isinstance(item, SampleRun)]
        assert items[1] == len(expected)
        assert all(run.kind is MessageKind.VAR_SAMPLE and run.channel == 0
                   for run in runs)
    else:
        assert items is expected


def test_a_publishers_samples_form_one_run():
    samples = [Frame(MessageKind.VAR_SAMPLE, "p1", b"s%d" % i).encode() for i in range(5)]
    event = Frame(MessageKind.EVENT, "p1", b"e", channel=1, seq=4).encode()
    datagram = make_batch_frame("p1", samples[:3] + [event] + samples[3:]).encode()
    items, count = decode_batch(Frame.decode(datagram).payload)
    assert count == 6
    assert [type(item) for item in items] == [SampleRun, Frame, SampleRun]
    assert [len(items[0]), len(items[2])] == [3, 2]
    assert [f.payload for f in items[0].frames() + items[2].frames()] == [
        b"s0", b"s1", b"s2", b"s3", b"s4"]


def test_an_entry_shorter_than_the_run_header_never_joins_the_run():
    """The bytes after a short entry (here the next entry's length prefix)
    can complete the run's header; the entry is still decoded on its own
    and rejected, as frame by frame."""
    source = "\x14\x00\x00\x00"  # its UTF-8 bytes read as the u32 20
    head = Frame(MessageKind.VAR_SAMPLE, source).encode()
    follower = Frame(MessageKind.EVENT, "ab", b"evt123").encode()
    assert len(head) == 16 and len(follower) == 20
    payload = encode_batch_payload([head + b"s0", head[:12], follower])
    assert payload[2 + 4 + 18 + 4:][:16] == head  # short entry + next prefix
    assert _outcome(_frames_one_by_one, payload) is EncodingError
    assert _outcome(decode_batch_payload, payload) is EncodingError
