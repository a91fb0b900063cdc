"""Property and fuzz suite for ingress admission control.

Pins the robustness contracts the admission layer (and the hardened
reliability paths behind it) are built on:

- **Ingress never crashes.** Arbitrary hostile bytes thrown at the
  datagram entry point, and arbitrary well-formed frames carrying garbage
  payloads thrown at frame dispatch, are *counted and dropped* — never an
  unhandled exception, never a wedged container.
- **Disabled means inert.** With ``enabled=False`` the admission policy
  and the reliability hardening may carry any knob values whatsoever and
  the wire traffic of a seeded run stays packet-for-packet identical to a
  default-config run — the seed-parity guarantee (same bar the batching
  and sanitizer stages meet).
- **Token buckets and quarantine behave as specified** for arbitrary
  schedules: conservation bounds, no negative tokens, decay forgiveness.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.observability.metrics import MetricsRegistry
from repro.protocol.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.protocol.frames import Frame, MessageKind
from repro.protocol.reliability import ReliabilityHardening
from repro.runtime.simruntime import SimRuntime
from repro.simnet.addressing import Address
from repro.util import ManualClock

_SOURCES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)

#: Well-formed frames with arbitrary (mostly garbage) payloads — the frame
#: header parses; whatever is inside generally does not.
hostile_frames_st = st.builds(
    Frame,
    kind=st.sampled_from(list(MessageKind)),
    source=_SOURCES,
    payload=st.binary(max_size=96),
    channel=st.integers(min_value=0, max_value=0xFFFF),
    seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flags=st.integers(min_value=0, max_value=7),
)

ATTACKER = Address("hostile-node", 45000)


def one_container_runtime(seed=3, **overrides):
    runtime = SimRuntime(seed=seed)
    container = runtime.add_container("victim", **overrides)
    runtime.start()
    runtime.run_for(0.1)
    return runtime, container


class TestIngressNeverCrashes:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=30))
    def test_hostile_datagrams_are_counted_never_raised(self, datagrams):
        runtime, container = one_container_runtime()
        runtime.enable_admission()
        before = container.metrics.counter_value("malformed_datagrams")
        decoded = 0
        for payload in datagrams:
            try:
                Frame.decode(payload)
                decoded += 1
            except Exception:
                pass
            container._transport._on_datagram(payload, ATTACKER)
        runtime.run_for(0.5)
        runtime.stop()
        # Every undecodable datagram landed in the malformed tally; the
        # container survived all of them.
        malformed = container.metrics.counter_value("malformed_datagrams") - before
        assert malformed == len(datagrams) - decoded

    @settings(max_examples=30, deadline=None)
    @given(st.lists(hostile_frames_st, min_size=1, max_size=30))
    def test_adversarial_frames_only_count_and_drop(self, frames):
        runtime, container = one_container_runtime()
        runtime.enable_admission()
        admitted_before = container.admission.admitted
        dropped_before = container.admission.dropped
        offered = 0
        for frame in frames:
            if frame.source == container.id:
                continue  # loopback path: skipped before admission
            offered += 1
            container._on_frame(frame, ATTACKER)
        runtime.run_for(0.5)
        runtime.stop()
        # Accounting is exhaustive: every offered frame was either admitted
        # or counted as dropped, and the container is still standing.
        admitted = container.admission.admitted - admitted_before
        dropped = container.admission.dropped - dropped_before
        assert admitted + dropped == offered

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=20))
    def test_undefended_ingress_survives_too(self, datagrams):
        # The decode-guard crash-safety holds even with admission disabled:
        # garbage is dropped at the transport seam regardless.
        runtime, container = one_container_runtime()
        for payload in datagrams:
            container._transport._on_datagram(payload, ATTACKER)
        runtime.run_for(0.2)
        runtime.stop()


def packet_trace(admission=None, hardening=None, seed=17):
    """Run a fixed seeded pub/sub workload; return the full packet trace."""
    import tests.helpers as helpers
    from repro.encoding.types import STRING

    overrides = {}
    if admission is not None:
        overrides["admission"] = admission
    if hardening is not None:
        overrides["reliability_hardening"] = hardening
    runtime = SimRuntime(seed=seed)
    trace = runtime.network.enable_trace()
    pub = runtime.add_container("pub", **overrides)
    sub = runtime.add_container("sub", **overrides)
    publisher = helpers.ProbeService(
        "publisher",
        lambda s: setattr(s, "handle", s.ctx.provide_event("parity.evt", STRING)),
    )
    subscriber = helpers.ProbeService(
        "subscriber", lambda s: s.watch_event("parity.evt")
    )
    pub.install_service(publisher)
    sub.install_service(subscriber)
    helpers.settle(runtime)
    for i in range(20):
        publisher.handle.raise_event(f"evt-{i}")
        runtime.run_for(0.05)
    runtime.run_for(1.0)
    runtime.stop()
    assert subscriber.events_of("parity.evt") == [f"evt-{i}" for i in range(20)]
    return [
        (str(p.source), str(p.destination), p.sent_at, p.payload) for p in trace
    ]


class TestDisabledParity:
    """enabled=False must be wire-inert no matter what the other knobs say."""

    def test_disabled_admission_any_knobs_is_byte_identical(self):
        baseline = packet_trace()
        weird = AdmissionPolicy(
            enabled=False,
            source_rate=1.0,
            source_burst=1.0,
            band_rates={1: 1.0},
            band_burst=1.0,
            quarantine_threshold=1.0,
            quarantine_duration=30.0,
            ingress_scheduling=False,
            ingress_queue_limit=1,
        )
        assert packet_trace(admission=weird) == baseline

    def test_disabled_hardening_any_knobs_is_byte_identical(self):
        baseline = packet_trace()
        weird = ReliabilityHardening(
            enabled=False,
            ack_rate=1.0,
            ack_burst=1.0,
            nack_rate=1.0,
            nack_burst=1.0,
            replay_window=1,
            dup_ack_rate=1.0,
            dup_ack_burst=1.0,
        )
        assert packet_trace(hardening=weird) == baseline

    def test_disabled_controller_is_a_pure_no_op(self):
        ctl = AdmissionController(
            clock=ManualClock(),
            classify=lambda kind: 1,
            policy=AdmissionPolicy(enabled=False, source_rate=1.0),
        )
        frame = Frame(kind=MessageKind.EVENT, source="s", payload=b"", channel=0)
        assert all(ctl.admit(frame) for _ in range(1000))
        assert ctl.dropped == 0
        assert not ctl.peers.peers()  # no per-source state accrued


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=0.1, max_value=1000.0),
        burst=st.floats(min_value=1.0, max_value=256.0),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=200
        ),
    )
    def test_conservation_and_bounds(self, rate, burst, steps):
        bucket = TokenBucket(rate=rate, burst=burst, now=0.0)
        now = 0.0
        taken = 0
        for dt in steps:
            now += dt
            if bucket.try_take(now):
                taken += 1
            assert 0.0 <= bucket.tokens <= burst
        # Conservation: admissions never exceed initial burst + refill.
        assert taken <= burst + rate * now + 1e-6

    @given(
        rate=st.floats(min_value=1.0, max_value=100.0),
        burst=st.floats(min_value=1.0, max_value=64.0),
    )
    def test_full_drain_then_full_recovery(self, rate, burst):
        bucket = TokenBucket(rate=rate, burst=burst, now=0.0)
        while bucket.try_take(0.0):
            pass
        # After a burst-sized wait (plus a float-rounding margin) the full
        # burst is available again.
        recovery = (burst / rate) * 1.01
        taken = 0
        while bucket.try_take(recovery):
            taken += 1
        assert taken == int(burst)


class TestQuarantineProperties:
    @given(
        st.lists(
            st.tuples(
                _SOURCES, st.floats(min_value=0.0, max_value=3.0)
            ),
            min_size=1,
            max_size=150,
        )
    )
    def test_arbitrary_malformed_schedules_never_crash_and_stay_consistent(
        self, schedule
    ):
        clock = ManualClock()
        metrics = MetricsRegistry()
        ctl = AdmissionController(
            clock=clock,
            classify=lambda kind: 1,
            policy=AdmissionPolicy(
                enabled=True,
                source_rate=None,
                band_rates={},
                quarantine_threshold=3.0,
            ),
            metrics=metrics,
        )
        for source, dt in schedule:
            clock.advance(dt)
            ctl.note_malformed(source)
        # Every quarantined source has a quarantine counter and is dropped.
        for source in ctl.quarantined_sources():
            assert metrics.counter_value("quarantines", source=source) >= 1
            frame = Frame(
                kind=MessageKind.EVENT, source=source, payload=b"", channel=0
            )
            assert not ctl.admit(frame)
        # Scores decay to forgiveness: far in the future nobody is held.
        clock.advance(10_000.0)
        assert ctl.quarantined_sources() == []


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
