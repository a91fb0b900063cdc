"""The receive path, counted.

Everything a delivered frame needs is resolved once — at container
construction, at first sight of a ``MessageKind``, at subscription — so the
path from ``FrameTransport._on_datagram`` to a service's ``on_sample`` does
only per-frame work. Python-level calls per delivered sample is the count
that regresses when a lookup, a keyword dict or a wrapper creeps back in;
it is exact and repeatable on ``SimRuntime``, unlike a wall-clock rate.

Same file: what binding early must not change — the flight recorder's dump,
policies armed on a running container, the frame round trip — and that the
bound codec forms agree with the unbound ones.
"""

import json
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import SimRuntime, Service
from repro.encoding.codec import get_codec
from repro.encoding.types import FLOAT64, INT32, INT64, StructType
from repro.protocol import frames as frames_module
from repro.protocol.admission import AdmissionPolicy
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.wire_registry import schema_for
from repro.util.errors import EncodingError, ProtocolError
from tests.helpers import ProbeService
from tests.property.test_wire_roundtrip_properties import _value_for

#: The benchmark's ``telemetry_fanout`` sample (benchmarks/suite/workloads.py).
BENCH_TELEMETRY = StructType(
    "BenchTelemetry",
    [("seq", INT64), ("due", FLOAT64), ("lat", FLOAT64),
     ("lon", FLOAT64), ("alt", FLOAT64), ("mode", INT64)],
)

SUBSCRIBERS = 4
BURST = 1000
#: Python-level calls from publish to last delivery, per delivered sample.
#: 49.1 before the receive path was bound early, 32.7 after.
MAX_CALLS_PER_SAMPLE = 38


def _sample(seq):
    return {"seq": seq, "due": 0.0, "lat": 41.3, "lon": 2.1, "alt": 120.0, "mode": 3}


def _fanout():
    """1 publisher -> 4 subscriber containers, compiled codec, batching on,
    discovery settled and the path warm."""
    runtime = SimRuntime(seed=1)
    services = {}
    for name in ["pub"] + [f"sub{i}" for i in range(SUBSCRIBERS)]:
        container = runtime.add_container(name, codec="compiled", batching_enabled=True)
        services[name] = Service(name)
        container.install_service(services[name])
    runtime.start()
    runtime.settle()
    publication = services["pub"].ctx.provide_variable("bench.telemetry", BENCH_TELEMETRY)
    delivered = []
    for i in range(SUBSCRIBERS):
        services[f"sub{i}"].ctx.subscribe_variable(
            "bench.telemetry", on_sample=lambda value, _t: delivered.append(value["seq"])
        )
    runtime.settle()
    for seq in range(10):
        publication.publish(_sample(seq))
    runtime.run_for(0.5)
    assert len(delivered) == 10 * SUBSCRIBERS
    del delivered[:]
    return runtime, publication, delivered


class TestCallsPerDeliveredSample:
    def test_burst_of_1000_to_4_subscribers(self):
        runtime, publication, delivered = _fanout()
        calls = Counter()

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                calls[(code.co_filename, code.co_name)] += 1

        sys.setprofile(profile)
        try:
            for seq in range(10, 10 + BURST):
                publication.publish(_sample(seq))
            runtime.run_until(
                lambda: len(delivered) >= BURST * SUBSCRIBERS, timeout=5.0, poll=0.01
            )
        finally:
            sys.setprofile(None)
        assert len(delivered) == BURST * SUBSCRIBERS
        per_sample = sum(calls.values()) / len(delivered)
        assert per_sample <= MAX_CALLS_PER_SAMPLE, (
            f"{per_sample:.1f} Python calls per delivered sample; the busiest:\n"
            + "\n".join(
                f"  {n / len(delivered):6.2f}  {name}  ({filename})"
                for (filename, name), n in calls.most_common(12)
            )
        )

        def called(suffix, name):
            return sum(
                n for (filename, fn), n in calls.items()
                if filename.endswith(suffix) and fn == name
            )

        # No instrument is looked up by name and no keyword dict is built
        # for the flight recorder while frames flow: both are per-kind work.
        assert called("observability/metrics.py", "_instrument") == 0
        assert called("observability/recorder.py", "record") == 0
        # ... and the frames were recorded all the same.
        assert called("observability/recorder.py", "record_rx") >= BURST * SUBSCRIBERS
        assert called("observability/recorder.py", "record_tx") >= BURST


#: ``dump_json()`` of container b's recorder after :func:`_recorded_scenario`,
#: as produced before ``record_rx``/``record_tx`` existed (every entry went
#: through ``record(category, **fields)``).
GOLDEN_DUMP = {
    "capacity": 256,
    "recorded": 9,
    "entries": [
        {"t": 0.001, "category": "tx", "kind": "ANNOUNCE", "seq": 0, "bytes": 40},
        {"t": 0.001, "category": "lifecycle", "service": "sub", "state": "starting"},
        {"t": 0.001, "category": "lifecycle", "service": "sub", "state": "running"},
        {"t": 0.001, "category": "tx", "kind": "ANNOUNCE", "seq": 0, "bytes": 47},
        {"t": 0.25044334390414447, "category": "rx", "kind": "HEARTBEAT",
         "source": "a", "seq": 0, "bytes": 24},
        {"t": 0.251, "category": "tx", "kind": "HEARTBEAT", "seq": 0, "bytes": 24},
        {"t": 0.30049819838835107, "category": "rx", "kind": "VAR_SAMPLE",
         "source": "a", "seq": 0, "bytes": 21},
        {"t": 0.3005566894264148, "category": "rx", "kind": "VAR_SAMPLE",
         "source": "a", "seq": 0, "bytes": 21},
        {"t": 0.35, "category": "lifecycle", "service": "sub", "state": "stopping"},
    ],
}


def _recorded_scenario():
    schema = StructType("S", [("n", INT32)])
    runtime = SimRuntime(seed=3)
    a = runtime.add_container("a")
    b = runtime.add_container("b")
    pub = ProbeService(
        "pub", lambda s: setattr(s, "var", s.ctx.provide_variable("v", schema))
    )
    a.install_service(pub)
    b.install_service(ProbeService("sub", lambda s: s.watch_variable("v")))
    runtime.start()
    runtime.run_for(0.3)
    pub.var.publish({"n": 1})
    pub.var.publish({"n": 2})
    runtime.run_for(0.05)
    b.stop_service("sub")
    return b.recorder


class TestFlightRecorderDumpUnchanged:
    def test_dump_is_the_golden_including_key_order(self):
        recorder = _recorded_scenario()
        assert recorder.recorded == GOLDEN_DUMP["recorded"]
        dump = recorder.dump()
        assert dump == GOLDEN_DUMP["entries"]
        assert [list(entry) for entry in dump] == [
            list(entry) for entry in GOLDEN_DUMP["entries"]
        ]

    def test_dump_json_is_the_golden_text(self):
        assert _recorded_scenario().dump_json() == json.dumps(GOLDEN_DUMP, indent=2)


class TestPoliciesArmedOnARunningContainer:
    """``enable_admission`` / ``enable_tracing`` flip state after
    ``start()``: the receive path reads it per frame, it caches nothing."""

    def _running_pair(self):
        schema = StructType("S", [("n", INT32)])
        runtime = SimRuntime(seed=5)
        a = runtime.add_container("a")
        b = runtime.add_container("b")
        pub = ProbeService(
            "pub", lambda s: setattr(s, "var", s.ctx.provide_variable("v", schema))
        )
        sub = ProbeService("sub", lambda s: s.watch_variable("v"))
        a.install_service(pub)
        b.install_service(sub)
        runtime.start()
        runtime.settle()
        pub.var.publish({"n": 0})
        runtime.run_for(0.1)
        assert sub.values_of("v") == [{"n": 0}]
        return runtime, b, pub, sub

    def test_admission_binds_on_the_next_frame_and_unbinds_again(self):
        runtime, b, pub, sub = self._running_pair()
        assert b.admission.dropped == 0
        runtime.enable_admission()
        # Five malformed frames quarantine their source ...
        for _ in range(5):
            b.admission.note_malformed("a")
        assert b.admission.is_quarantined("a")
        # ... and the very next frame from it is dropped and counted.
        pub.var.publish({"n": 1})
        runtime.run_for(0.1)
        assert sub.values_of("v") == [{"n": 0}]
        assert b.admission.dropped == 1
        assert b.metrics.counter_value(
            "admission_drops", source="a", band="2", reason="quarantine"
        ) == 1
        # Disarming restores pass-through: the quarantine is still on the
        # books, but nothing consults it.
        b.admission.configure(AdmissionPolicy(enabled=False))
        pub.var.publish({"n": 2})
        runtime.run_for(0.1)
        assert sub.values_of("v") == [{"n": 0}, {"n": 2}]
        assert b.admission.dropped == 1

    def test_tracing_binds_on_the_next_sample(self):
        runtime, b, pub, sub = self._running_pair()
        assert b.tracer.spans == []
        runtime.enable_tracing()
        pub.var.publish({"n": 1})
        runtime.run_for(0.1)
        assert sub.values_of("v") == [{"n": 0}, {"n": 1}]
        [span] = [s for s in b.tracer.spans if s.kind == "var.deliver"]
        [publish] = [s for s in runtime.trace_spans() if s.kind == "var.publish"]
        assert (span.trace_id, span.parent_id) == (publish.trace_id, publish.span_id)


class TestSourceIdMemo:
    def setup_method(self):
        frames_module._SRC_DECODED.clear()

    def test_bounded_under_forged_ids(self):
        for i in range(5000):
            frame = Frame.decode(Frame(MessageKind.BYE, f"forged-{i}").encode())
            assert frame.source == f"forged-{i}"
            assert len(frames_module._SRC_DECODED) <= 1024

    def test_non_utf8_id_is_rejected_and_not_remembered(self):
        good = Frame(MessageKind.EVENT, "zz", payload=b"p").encode()
        bad = good.replace(b"zz", b"\xff\xfe")
        for _ in range(2):
            with pytest.raises(ProtocolError, match="source id is not UTF-8"):
                Frame.decode(bad)
        assert frames_module._SRC_DECODED == {}
        assert Frame.decode(good).source == "zz"
        assert frames_module._SRC_DECODED == {b"zz": "zz"}

    def test_truncated_id_never_matches_a_remembered_shorter_one(self):
        Frame.decode(Frame(MessageKind.EVENT, "ab").encode())
        longer = Frame(MessageKind.EVENT, "abcd").encode()
        with pytest.raises(ProtocolError, match="truncated"):
            Frame.decode(longer[:-2])

    # The strategy of tests/property/test_protocol_properties.py.
    @settings(max_examples=100, deadline=None)
    @given(
        payload=st.binary(max_size=200),
        kind=st.sampled_from(list(MessageKind)),
        channel=st.integers(0, 0xFFFF),
        seq=st.integers(0, 0xFFFFFFFF),
        source=st.from_regex(r"[a-z][a-z0-9\-]{0,20}", fullmatch=True),
    )
    def test_round_trip_is_identity(self, payload, kind, channel, seq, source):
        frame = Frame(kind=kind, source=source, payload=payload, channel=channel, seq=seq)
        assert Frame.decode(frame.encode()) == frame
        assert Frame.decode(frame.encode()) == frame  # and again, from the memo


def _locked_schemas():
    """Every typed payload schema in ``schemas.lock.json``, by schema name,
    plus the benchmark's sample."""
    from tests.unit.test_schema_lock import SRC_ROOT

    lock = json.loads((SRC_ROOT.parent / "schemas.lock.json").read_text())
    found = {"BenchTelemetry": BENCH_TELEMETRY}
    for kind, row in lock["kinds"].items():
        if "schema" in row:
            schema = schema_for(kind)
            found[schema.name] = schema
    return [found[name] for name in sorted(found)]


def _outcome(fn, data):
    try:
        return "ok", fn(data)
    except EncodingError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("codec_name", ["compiled", "binary", "json"])
@pytest.mark.parametrize("schema", _locked_schemas(), ids=lambda s: s.name)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_bound_codec_forms_agree_with_the_unbound(schema, codec_name, data):
    codec = get_codec(codec_name)
    value = data.draw(_value_for(schema))
    try:
        encoded = codec.encode(schema, value)
    except EncodingError:
        assume(False)  # JSON cannot carry a non-finite float
    assert codec.encoder(schema)(value) == encoded
    forms = [(codec.decoder(schema), lambda b: codec.decode(schema, b))]
    if hasattr(codec, "decode_prefix"):
        forms.append(
            (codec.prefix_decoder(schema), lambda b: codec.decode_prefix(schema, b))
        )
    for bound, unbound in forms:
        assert bound(encoded) == unbound(encoded)
        for cut in range(len(encoded)):
            assert _outcome(bound, encoded[:cut]) == _outcome(unbound, encoded[:cut])
        assert _outcome(bound, encoded + b"\x00") == _outcome(unbound, encoded + b"\x00")
    assert _outcome(codec.decoder(schema), encoded + b"\x00")[0] == "error"
