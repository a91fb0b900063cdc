"""Runtime sanitizers over the full stack.

The payload-aliasing sanitizer must catch a deliberately injected
post-publish mutation end to end (the local fast path hands subscribers
the very object the publisher passed in).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro.analysis.sanitizers.payload import PayloadMutationError
from repro.encoding.types import FLOAT64, INT32, StructType

SCHEMA = StructType("Sample", [("x", FLOAT64), ("n", INT32)])


class TestPayloadSanitizerEndToEnd:
    def test_checksum_catches_injected_post_publish_mutation(self):
        runtime, a, b = two_containers()
        runtime.enable_payload_sanitizer("checksum")
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("gps.fix", SCHEMA)
        ))
        sub = ProbeService("sub", lambda s: s.watch_variable("gps.fix"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)

        sample = {"x": 1.0, "n": 1}
        pub.handle.publish(sample)
        runtime.run_for(0.5)
        # The injected bug: the publisher recycles its sample dict. Local
        # observers (last_value, same-container subscribers) share this
        # object; the wire already carried the old bytes.
        sample["n"] = 999
        pub.handle.publish({"x": 2.0, "n": 2})
        runtime.run_for(0.5)

        violations = runtime.sanitizer_violations()
        assert "a" in violations
        assert violations["a"][0]["kind"] == "var"
        assert violations["a"][0]["name"] == "gps.fix"
        # Detection is also visible in the container's unified telemetry.
        assert any(
            "sanitizer_payload_mutations" in key
            for key in runtime.metrics_snapshot()
        )
        assert any(
            entry.get("check") == "payload-aliasing"
            for entry in runtime.flight_dumps()["a"]
        )

    def test_clean_run_reports_no_violations(self):
        runtime, a, b = two_containers()
        runtime.enable_payload_sanitizer("checksum")
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("gps.fix", SCHEMA)
        ))
        sub = ProbeService("sub", lambda s: s.watch_variable("gps.fix"))
        a.install_service(pub)
        b.install_service(sub)
        settle(runtime)
        for i in range(10):
            pub.handle.publish({"x": float(i), "n": i})
            runtime.run_for(0.1)
        runtime.stop()  # stop-time verification checkpoint
        assert runtime.sanitizer_violations() == {}
        assert [v["n"] for v in sub.values_of("gps.fix")] == list(range(10))

    def test_stop_time_checkpoint_catches_late_mutation(self):
        runtime, a, _ = two_containers()
        runtime.enable_payload_sanitizer("checksum")
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_variable("gps.fix", SCHEMA)
        ))
        a.install_service(pub)
        settle(runtime)
        sample = {"x": 1.0, "n": 1}
        pub.handle.publish(sample)
        runtime.run_for(0.2)
        sample["x"] = -1.0  # mutated, and never published again
        runtime.stop()
        assert "a" in runtime.sanitizer_violations()

    def test_freeze_mode_raises_at_the_mutation_site(self):
        runtime, a, _ = two_containers()
        runtime.enable_payload_sanitizer("freeze")

        def setup(s):
            s.handle = s.ctx.provide_variable("gps.fix", SCHEMA)
            s.watch_variable("gps.fix")

        svc = ProbeService("both", setup)
        a.install_service(svc)
        settle(runtime)
        svc.handle.publish({"x": 1.0, "n": 7})
        runtime.run_for(0.2)
        # The local subscriber received the frozen alias: the value reads
        # like a plain dict but mutators raise with a stack trace that
        # points at the offender — not at some later checkpoint.
        [(_, received, _)] = svc.samples
        assert received == {"x": 1.0, "n": 7}
        with pytest.raises(PayloadMutationError):
            received["n"] = 8

    def test_sanitizer_off_by_default(self, monkeypatch):
        # CI's coverage job arms the sanitizer fleet-wide through this
        # variable; the default under test is the one without it.
        monkeypatch.delenv("REPRO_PAYLOAD_SANITIZER", raising=False)
        runtime, a, _ = two_containers()
        assert not a.payload_sanitizer.enabled
