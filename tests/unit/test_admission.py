"""Unit tests for ingress admission control (protocol/admission.py).

The budgets are module constants; a test that needs a smaller one patches
it for its own duration."""

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.protocol import admission
from repro.protocol.admission import (
    BAND_RATES,
    HARDENED_ADMISSION,
    INGRESS_WEIGHTS,
    AdmissionController,
    IngressScheduler,
    TokenBucket,
)
from repro.protocol.frames import Frame, MessageKind
from repro.util import ManualClock

BANDS = {
    MessageKind.HEARTBEAT: 0,
    MessageKind.ACK: 0,
    MessageKind.EVENT: 1,
    MessageKind.VAR_SAMPLE: 2,
    MessageKind.RPC_REQUEST: 3,
    MessageKind.FILE_CHUNK: 4,
}


def frame(kind=MessageKind.EVENT, source="peer", seq=0):
    return Frame(kind=kind, source=source, payload=b"x", channel=0, seq=seq)


def controller(policy=False, clock=None, metrics=None):
    return AdmissionController(
        clock=clock or ManualClock(),
        classify=lambda kind: BANDS.get(kind, 4),
        policy=policy,
        metrics=metrics,
    )


def armed(clock=None, metrics=None):
    return controller(HARDENED_ADMISSION, clock=clock, metrics=metrics)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]

    def test_lazy_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        for _ in range(3):
            bucket.try_take(0.0)
        # 0.1 s -> one token back; 100 s -> only burst tokens back.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)
        bucket.try_take(100.0)
        assert bucket.tokens <= bucket.burst


class TestPolicyValidation:
    def test_hardened_default_is_fully_armed(self):
        assert armed().enabled
        ctl = controller()
        assert not ctl.enabled
        ctl.configure(HARDENED_ADMISSION)
        assert ctl.enabled


class TestDisabledIsInert:
    def test_everything_admitted_no_state(self):
        ctl = controller()  # enabled=False default
        for _ in range(10_000):
            assert ctl.admit(frame())
        assert ctl.dropped == 0
        assert ctl.quarantined_sources() == []

    def test_malformed_counted_but_never_quarantines(self):
        metrics = MetricsRegistry()
        ctl = controller(metrics=metrics)
        for _ in range(100):
            ctl.note_malformed("peer")
        assert metrics.counter_value("malformed_frames", source="peer") == 100
        assert not ctl.is_quarantined("peer")


class TestRateLimiting:
    @pytest.fixture(autouse=True)
    def small_source_budget(self, monkeypatch):
        monkeypatch.setattr(admission, "SOURCE_RATE", 10.0)
        monkeypatch.setattr(admission, "SOURCE_BURST", 4.0)

    def test_source_burst_then_drop(self):
        metrics = MetricsRegistry()
        ctl = armed(metrics=metrics)
        verdicts = [ctl.admit(frame()) for _ in range(6)]
        assert verdicts == [True] * 4 + [False] * 2
        assert ctl.admitted == 4 and ctl.dropped == 2
        assert (
            metrics.counter_value(
                "admission_drops", source="peer", band="1", reason="source-rate"
            )
            == 2
        )

    def test_sources_have_independent_budgets(self):
        ctl = armed()
        assert [ctl.admit(frame(source="a")) for _ in range(5)] == [True] * 4 + [False]
        # b's bucket is untouched by a's exhaustion.
        assert ctl.admit(frame(source="b"))

    def test_budget_refills_with_time(self):
        clock = ManualClock()
        ctl = armed(clock=clock)
        assert [ctl.admit(frame()) for _ in range(5)] == [True] * 4 + [False]
        clock.advance(1.0)  # 10 tokens earned, capped at burst=4
        assert [ctl.admit(frame()) for _ in range(5)] == [True] * 4 + [False]

    def test_band_bucket_isolated_per_band(self, monkeypatch):
        monkeypatch.setattr(admission, "SOURCE_BURST", 100.0)
        monkeypatch.setattr(admission, "BAND_BURST", 2.0)
        metrics = MetricsRegistry()
        ctl = armed(metrics=metrics)
        for _ in range(2):
            assert ctl.admit(frame(MessageKind.EVENT))
        assert not ctl.admit(frame(MessageKind.EVENT))
        # The variables band has its own bucket; still open.
        assert ctl.admit(frame(MessageKind.VAR_SAMPLE))
        assert (
            metrics.counter_value(
                "admission_drops", source="peer", band="1", reason="band-rate"
            )
            == 1
        )

    def test_control_band_has_no_band_bucket_by_default(self, monkeypatch):
        # Band 0 is absent from BAND_RATES: failure detection is never
        # starved by its own defenses, only by the per-source aggregate.
        assert 0 not in BAND_RATES
        monkeypatch.setattr(admission, "SOURCE_BURST", 5000.0)
        monkeypatch.setattr(admission, "BAND_BURST", 1.0)
        ctl = armed()
        assert all(ctl.admit(frame(MessageKind.HEARTBEAT)) for _ in range(5000))
        assert not ctl.admit(frame(MessageKind.HEARTBEAT))


class TestQuarantine:
    @pytest.fixture(autouse=True)
    def short_quarantine(self, monkeypatch):
        monkeypatch.setattr(admission, "QUARANTINE_THRESHOLD", 3.0)
        monkeypatch.setattr(admission, "QUARANTINE_MAX_DURATION", 5.0)

    def test_threshold_triggers_window_then_expires(self):
        clock = ManualClock()
        metrics = MetricsRegistry()
        ctl = armed(clock=clock, metrics=metrics)
        for _ in range(3):
            ctl.note_malformed("peer")
        assert ctl.is_quarantined("peer")
        assert ctl.quarantined_sources() == ["peer"]
        assert not ctl.admit(frame())
        assert metrics.counter_value("quarantines", source="peer") == 1
        assert (
            metrics.counter_value(
                "admission_drops", source="peer", band="1", reason="quarantine"
            )
            == 1
        )
        clock.advance(2.1)
        assert not ctl.is_quarantined("peer")
        assert ctl.admit(frame())

    def test_score_decays_between_offenses(self):
        clock = ManualClock()
        ctl = armed(clock=clock)
        # One malformed frame every 2 s decays fully between offenses.
        for _ in range(6):
            ctl.note_malformed("peer")
            clock.advance(2.0)
        assert not ctl.is_quarantined("peer")

    def test_repeat_offense_backoff_caps(self):
        clock = ManualClock()
        ctl = armed(clock=clock)

        def trip():
            for _ in range(3):
                ctl.note_malformed("peer")
            state = ctl.peers.find("peer").admission
            return state.quarantined_until - clock.now()

        assert trip() == pytest.approx(2.0)  # first offense
        clock.advance(3.0)
        assert trip() == pytest.approx(4.0)  # doubled
        clock.advance(5.0)
        assert trip() == pytest.approx(5.0)  # capped at max_duration

    def test_no_stacking_while_serving(self):
        clock = ManualClock()
        metrics = MetricsRegistry()
        ctl = armed(clock=clock, metrics=metrics)
        for _ in range(3):
            ctl.note_malformed("peer")
        until = ctl.peers.find("peer").admission.quarantined_until
        # A garbage firehose during the window must not extend or re-count.
        for _ in range(50):
            ctl.note_malformed("peer")
        assert ctl.peers.find("peer").admission.quarantined_until == until
        assert metrics.counter_value("quarantines", source="peer") == 1

    def test_address_keyed_quarantine_blocks_frames_from_address(self):
        ctl = armed()
        for _ in range(3):
            ctl.note_malformed_address("10.0.0.9:47666")
        assert ctl.is_quarantined("@10.0.0.9:47666")
        # A well-formed frame from the same address is dropped even though
        # its claimed source id is clean.
        assert not ctl.admit(frame(source="innocent"), address="10.0.0.9:47666")
        assert ctl.admit(frame(source="innocent"))

    def test_configure_keeps_offender_state(self):
        ctl = armed()
        for _ in range(3):
            ctl.note_malformed("peer")
        ctl.configure(HARDENED_ADMISSION)
        assert ctl.is_quarantined("peer")


class FakeTimers:
    """Captures zero-delay drain timers; fire() runs one round."""

    def __init__(self):
        self.queue = []

    def schedule(self, delay, fn):
        self.queue.append(fn)
        return object()

    def fire(self):
        pending, self.queue = self.queue, []
        for fn in pending:
            fn()


class TestIngressScheduler:
    def test_weighted_priority_order(self):
        timers = FakeTimers()
        out = []
        sched = IngressScheduler(timers, out.append)
        events, chunks = INGRESS_WEIGHTS[1], INGRESS_WEIGHTS[4]
        for seq in range(3 * chunks):
            sched.offer(frame(MessageKind.FILE_CHUNK, seq=seq), band=4)
        for seq in range(events + 1):
            sched.offer(frame(MessageKind.EVENT, seq=seq), band=1)
        timers.fire()
        # Round 1: a weight of events, then a weight of chunks — events
        # jump the earlier bulk.
        assert [(f.kind, f.seq) for f in out] == [
            (MessageKind.EVENT, seq) for seq in range(events)
        ] + [(MessageKind.FILE_CHUNK, seq) for seq in range(chunks)]
        timers.fire()  # round 2: last event + a weight of chunks
        assert out[events + chunks] == frame(MessageKind.EVENT, seq=events)
        timers.fire()  # round 3: final chunks
        assert len(out) == events + 1 + 3 * chunks
        assert sched.pending == 0
        assert sched.delivered == len(out)

    def test_fifo_within_band(self):
        timers = FakeTimers()
        out = []
        sched = IngressScheduler(timers, out.append)
        for seq in range(5):
            sched.offer(frame(seq=seq), band=1)
        timers.fire()
        assert [f.seq for f in out] == [0, 1, 2, 3, 4]

    def test_overflow_sheds_oldest_and_counts(self, monkeypatch):
        monkeypatch.setattr(admission, "INGRESS_QUEUE_LIMIT", 3)
        timers = FakeTimers()
        metrics = MetricsRegistry()
        out = []
        sched = IngressScheduler(timers, out.append, metrics=metrics)
        for seq in range(5):
            sched.offer(frame(seq=seq), band=1)
        assert sched.shed == 2
        assert metrics.counter_value("ingress_overflow", band="1") == 2
        timers.fire()
        # The two oldest were shed; the newest three survive in order.
        assert [f.seq for f in out] == [2, 3, 4]
