"""Runtime sanitizers over the full stack.

The payload-aliasing sanitizer must catch a deliberately injected
post-publish mutation end to end (the local fast path hands subscribers
the very object the publisher passed in), and the lock-order sanitizer
must come up clean through a supervised crash/restart cycle on the
wall-clock runtime.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService, settle, two_containers

from repro import AsyncRuntime, RestartPolicy
from repro.analysis.context import Project, SourceFile
from repro.analysis.rules.rep007_lockorder import static_lock_graph
from repro.analysis.sanitizers.payload import PayloadMutationError
from repro.container import ServiceState
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


class TestLockOrderSanitizerEndToEnd:
    FAST = dict(
        announce_interval=0.2,
        heartbeat_interval=0.05,
        liveness_timeout=0.5,
        housekeeping_interval=0.1,
    )
    POLICY = RestartPolicy(
        mode="on-failure", backoff_initial=0.1, backoff_factor=1.0,
        jitter=0.0, max_restarts=3, restart_window=30.0,
    )

    @pytest.mark.chaos
    def test_zero_inversions_through_supervised_restart(self):
        runtime = AsyncRuntime(lock_sanitizer=True)
        try:
            a = runtime.add_container("a", restart_policy=self.POLICY, **self.FAST)
            b = runtime.add_container("b", **self.FAST)
            pub = ProbeService("pub", lambda s: setattr(
                s, "handle", s.ctx.provide_variable("test.var", SCHEMA)
            ))
            sub = ProbeService("sub", lambda s: s.watch_variable("test.var"))
            a.install_service(pub)
            b.install_service(sub)
            runtime.start()
            assert runtime.run_until(
                lambda: bool(b.directory.providers_of_variable("test.var")),
                timeout=5.0,
            )
            runtime.on_reactor(lambda: pub.handle.publish({"x": 1.0, "n": 1}))
            assert runtime.run_until(lambda: len(sub.samples) >= 1, timeout=5.0)

            # Crash the provider and ride the supervisor through a full
            # restart: the registry lock is taken again as the service's
            # group memberships leave and re-join.
            runtime.on_reactor(lambda: a.service_failed("pub", "injected"))
            assert runtime.run_until(
                lambda: a.service_state("pub") == ServiceState.RUNNING,
                timeout=5.0,
            )
            assert runtime.run_until(
                lambda: bool(b.directory.providers_of_variable("test.var")),
                timeout=5.0,
            )
            assert runtime.lock_recorder.acquisitions > 0
            assert runtime.lock_recorder.edges() == {}  # one tracked lock
            assert runtime.lock_inversions() == []
        finally:
            runtime.stop()
        # Post-stop report: no inversions means no sanitizer entries in
        # the runtime flight recorder and no counter in metrics.
        assert runtime.lock_inversions() == []
        assert "lock_order_inversions" not in str(runtime.metrics.snapshot())


class TestStaticRuntimeCrossCheck:
    """Replay LockOrderRecorder edges into the static REP007 graph.

    Every acquisition-order edge a live wall-clock session records must
    already be present in the graph REP007 computed from source alone. A
    miss means the static analysis lost track of a lock — that is a bug
    in the rule's resolution, not grounds for a waiver.
    """

    FAST = TestLockOrderSanitizerEndToEnd.FAST

    @staticmethod
    def _static_graph():
        src = Path(__file__).resolve().parent.parent.parent / "src"
        files = [
            SourceFile.load(path, src)
            for path in sorted((src / "repro").rglob("*.py"))
            if "__pycache__" not in path.parts
        ]
        return static_lock_graph(Project(root=src, files=files))

    def test_every_runtime_edge_is_statically_known(self):
        runtime = AsyncRuntime(lock_sanitizer=True)
        try:
            a = runtime.add_container("a", **self.FAST)
            b = runtime.add_container("b", **self.FAST)
            pub = ProbeService("pub", lambda s: setattr(
                s, "handle", s.ctx.provide_variable("test.var", SCHEMA)
            ))
            sub = ProbeService("sub", lambda s: s.watch_variable("test.var"))
            a.install_service(pub)
            b.install_service(sub)
            runtime.start()
            assert runtime.run_until(
                lambda: bool(b.directory.providers_of_variable("test.var")),
                timeout=5.0,
            )
            runtime.on_reactor(lambda: pub.handle.publish({"x": 1.0, "n": 1}))
            assert runtime.run_until(lambda: len(sub.samples) >= 1, timeout=5.0)
        finally:
            runtime.stop()

        # AsyncRuntime wraps exactly one lock, so a live session records
        # acquisitions but no ordering. Asserted exactly: the day a second
        # tracked lock appears this fails, and the edge-by-edge
        # ``graph.covers(held, acquired)`` replay comes back with it.
        assert runtime.lock_recorder.acquisitions > 0
        assert runtime.lock_recorder.edges() == {}
        graph = self._static_graph()
        # The static side must know that lock by its runtime wrap name...
        assert graph._identities_matching("udpnetwork.registry") == [
            "repro/transport/udp.py:UdpNetwork._lock"
        ]
        # ...and agree with the recorder: nothing is acquired under it.
        assert graph.edges.get("repro/transport/udp.py:UdpNetwork._lock", set()) == set()
