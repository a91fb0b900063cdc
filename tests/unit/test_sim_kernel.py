"""Unit tests for the discrete-event kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.util.rng import SeededRng


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda lbl=label: order.append(lbl))
        sim.run()
        assert order == list("abcde")

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now()))
        sim.schedule(2.5, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [0.5, 2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append(sim.now())
            sim.schedule(1.0, lambda: hits.append(sim.now()))

        sim.schedule(1.0, first)
        sim.run()
        assert hits == [1.0, 2.0]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_soon(lambda: seen.append(sim.now()))

        sim.schedule(4.0, outer)
        sim.run()
        assert seen == [4.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, lambda: hits.append(1))
        handle.cancel()
        sim.run()
        assert hits == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.when == 1.0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_keeps_accounting(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        # Cancelling a fired timer is a no-op for pending but still flips
        # the handle (retransmit loops cancel unconditionally on success).
        handle.cancel()
        assert handle.cancelled
        assert sim.pending == 0

    def test_mass_cancellation_compacts_queue(self):
        sim = Simulator()
        hits = []
        keepers = [
            sim.schedule(float(i) + 0.5, lambda i=i: hits.append(i))
            for i in range(10)
        ]
        victims = [sim.schedule(float(i), lambda: hits.append(-1)) for i in range(500)]
        for handle in victims:
            handle.cancel()
        # Cancelled entries outnumber live ones — the heap must have shed them.
        assert sim.pending == 10
        assert len(sim._queue) < 100
        sim.run()
        assert hits == list(range(10))
        assert all(h.cancelled for h in victims)
        assert not any(k.cancelled for k in keepers)

    def test_pending_is_consistent_through_run(self):
        sim = Simulator()
        for i in range(50):
            sim.schedule(float(i), lambda: None)
        cancelled = [sim.schedule(float(i) + 0.25, lambda: None) for i in range(50)]
        for handle in cancelled:
            handle.cancel()
        assert sim.pending == 50
        sim.run()
        assert sim.pending == 0
        assert sim.events_executed == 50

    def test_cancel_during_run_keeps_order_and_counts(self):
        sim = Simulator()
        order = []
        later = sim.schedule(5.0, lambda: order.append("late"))

        def first():
            order.append("first")
            later.cancel()

        sim.schedule(1.0, first)
        sim.schedule(2.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]
        assert sim.pending == 0


class TestRunBounds:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(5.0, lambda: hits.append(5))
        sim.run(until=2.0)
        assert hits == [1]
        assert sim.now() == 2.0
        sim.run()
        assert hits == [1, 5]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now() == 7.0

    def test_run_for_is_relative(self):
        sim = Simulator(start=10.0)
        sim.run_for(2.5)
        assert sim.now() == 12.5

    def test_max_events_bound(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: hits.append(i))
        sim.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_not_reentrant(self):
        sim = Simulator()
        error = {}

        def nested():
            try:
                sim.run()
            except RuntimeError as exc:
                error["raised"] = str(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert "reentrant" in error["raised"]

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestHotPathAtScale:
    """Fleet-scale guarantees of the kernel hot path."""

    def test_schedule_fire_orders_like_schedule_at(self):
        # The fire-and-forget fast path must interleave with handle-bearing
        # timers exactly by (time, insertion order).
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_fire(1.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("c"))
        sim.schedule_fire(0.5, lambda: order.append("d"))
        sim.run()
        assert order == ["d", "a", "b", "c"]

    def test_schedule_fire_rejects_past(self):
        sim = Simulator(start=3.0)
        with pytest.raises(ValueError):
            sim.schedule_fire(2.0, lambda: None)

    def test_compaction_with_interleaved_cancels_at_scale(self):
        # A retransmit-heavy mission cancels timers by the thousands,
        # interleaved with live events. The heap must shed them, keep the
        # survivors in exact order, and keep `pending` truthful throughout.
        sim = Simulator()
        rng = SeededRng(42)
        hits = []
        live = {}
        handles = {}
        for i in range(5000):
            when = rng.uniform(0.0, 100.0)
            handles[i] = sim.schedule(when, lambda i=i: hits.append(i))
            live[i] = when
        order = list(range(5000))
        rng.shuffle(order)
        for i in order[:4500]:
            handles[i].cancel()
            del live[i]
        assert sim.pending == len(live) == 500
        # Compaction must have bounded the physical queue.
        assert len(sim._queue) < 2 * 500 + 64
        sim.run()
        expected = [i for i, _ in sorted(live.items(), key=lambda kv: (kv[1], kv[0]))]
        assert hits == expected
        assert sim.pending == 0

    def test_batch_tie_break_is_deterministic(self):
        # Two identical schedules of a same-instant batch (mixed fast-path
        # and handle-path inserts) must fire in the same total order.
        def run_once():
            sim = Simulator()
            order = []
            for i in range(200):
                if i % 3 == 0:
                    sim.schedule_fire(1.0, lambda i=i: order.append(i))
                else:
                    sim.schedule_at(1.0, lambda i=i: order.append(i))
            sim.run()
            return order

        first, second = run_once(), run_once()
        assert first == second == list(range(200))

    def test_schedule_n_events_costs_n_log_n_comparisons(self):
        # Counter-based guard: pushing and popping N randomly-timed events
        # must stay within a small constant of N log2 N element
        # comparisons — the heap is not allowed to degenerate. Heap entries
        # are tuples ordered by (time, seq) in C, so the comparisons are
        # counted on the event times themselves.
        n = 4096
        _CountingTime.comparisons = 0
        sim = Simulator()
        rng = SeededRng(7)
        for _ in range(n):
            sim.schedule_fire(_CountingTime(rng.uniform(0.0, 1000.0)), lambda: None)
        sim.run()
        assert sim.events_executed == n
        comparisons = _CountingTime.comparisons
        bound = 4 * n * math.log2(n)
        assert n < comparisons <= bound, (
            f"{comparisons} comparisons for {n} events, outside "
            f"({n}, O(N log N) bound {bound:.0f}]"
        )


class _CountingTime(float):
    """An event time that counts the ordering comparisons made on it."""

    comparisons = 0

    def __lt__(self, other):
        _CountingTime.comparisons += 1
        return float.__lt__(self, other)


# -- the kernel against a sorted (time, seq) reference model -----------------

#: Few distinct offsets, so same-instant ties are common.
_OFFSETS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _OFFSETS),
    st.tuples(st.just("schedule_fire"), _OFFSETS, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    # Schedule a burst of timers and cancel them all: past 64 entries
    # with cancelled ones the majority, the heap compacts.
    st.tuples(st.just("mass_cancel"), st.integers(1, 120), _OFFSETS),
    st.tuples(st.just("run"), st.none() | _OFFSETS, st.none() | st.integers(0, 6)),
    st.tuples(st.just("step"),),
)


class _ReferenceKernel:
    """What the kernel must execute: live entries ``[time, seq, label]``,
    the next one the least ``(time, seq)``; a cancelled entry is gone."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []
        self.executed = 0
        self.log = []

    def add(self, when, label):
        entry = [when, self.seq, label]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self.entries:
            self.entries.remove(entry)

    def run(self, until=None, max_events=None):
        ran = 0
        while self.entries:
            entry = min(self.entries, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            if max_events is not None and ran >= max_events:
                break
            self.entries.remove(entry)
            self.now = entry[0]
            self.executed += 1
            ran += 1
            self.log.append(entry[2])
        if until is not None and self.now < until:
            self.now = until
        return ran


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_kernel_executes_what_a_sorted_reference_does(ops):
    sim, ref = Simulator(), _ReferenceKernel()
    log = []
    timers = []  # (TimerHandle, reference entry)
    labels = iter(range(1_000_000))

    def timer(offset):
        label = next(labels)
        handle = sim.schedule(offset, lambda: log.append(label))
        timers.append((handle, ref.add(ref.now + offset, label)))

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            timer(op[1])
        elif kind == "schedule_fire":
            label = next(labels)
            when = sim.now() + op[1]
            if op[2]:
                sim.schedule_fire(when, log.append, ("arg", label))
                ref.add(when, ("arg", label))
            else:
                sim.schedule_fire(when, lambda label=label: log.append(label))
                ref.add(when, label)
        elif kind == "cancel" and timers:
            handle, entry = timers[op[1] % len(timers)]
            handle.cancel()
            ref.cancel(entry)
            assert handle.cancelled
        elif kind == "mass_cancel":
            burst = len(timers)
            for _ in range(op[1]):
                timer(op[2])
            for handle, entry in timers[burst:]:
                handle.cancel()
                ref.cancel(entry)
        elif kind == "run":
            until = None if op[1] is None else sim.now() + op[1]
            assert sim.run(until=until, max_events=op[2]) == sim.now()
            ref.run(until=until, max_events=op[2])
        elif kind == "step":
            assert sim.step() == (ref.run(max_events=1) == 1)
        assert log == ref.log
        assert sim.now() == ref.now
        assert sim.pending == len(ref.entries)
        assert sim.events_executed == ref.executed
    sim.run()
    ref.run()
    assert log == ref.log
    assert sim.pending == 0
    assert sim.events_executed == ref.executed
