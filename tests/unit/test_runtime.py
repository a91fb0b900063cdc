"""Unit tests for the runtimes and the event-loop serialization domain."""

import gc
import threading
import time
import warnings

import pytest

from repro import AsyncRuntime, SimRuntime
from repro.simnet.models import LinkModel
from repro.util.errors import ConfigurationError, MiddlewareError


class TestSimRuntime:
    def test_duplicate_container_rejected(self):
        runtime = SimRuntime()
        runtime.add_container("a")
        with pytest.raises(ConfigurationError):
            runtime.add_container("a")

    def test_container_lookup(self):
        runtime = SimRuntime()
        a = runtime.add_container("a")
        assert runtime.container("a") is a

    def test_late_container_starts_immediately(self):
        runtime = SimRuntime()
        runtime.add_container("a")
        runtime.start()
        runtime.run_for(0.5)
        b = runtime.add_container("b")
        runtime.run_for(0.1)
        assert b.running

    def test_settle_uses_announce_interval(self):
        runtime = SimRuntime()
        runtime.add_container("a", announce_interval=0.4)
        runtime.add_container("b", announce_interval=0.4)
        runtime.settle()
        assert runtime.sim.now() == pytest.approx(1.0, abs=0.1)  # 2.5 x 0.4

    def test_run_until_true_and_false(self):
        runtime = SimRuntime()
        runtime.add_container("a")
        runtime.start()
        hits = []
        runtime.sim.schedule(1.0, lambda: hits.append(1))
        assert runtime.run_until(lambda: bool(hits), timeout=5.0)
        assert not runtime.run_until(lambda: len(hits) > 5, timeout=1.0)

    def test_custom_link_and_seed(self):
        link = LinkModel(latency=0.1, jitter=0.0, bandwidth_bps=0.0)
        runtime = SimRuntime(seed=99, default_link=link)
        assert runtime.network.link_for("x", "y").latency == 0.1

    def test_stop_stops_all(self):
        runtime = SimRuntime()
        a = runtime.add_container("a")
        b = runtime.add_container("b")
        runtime.start()
        runtime.run_for(0.5)
        runtime.stop()
        assert not a.running and not b.running


@pytest.fixture
def runtime():
    rt = AsyncRuntime()
    yield rt
    rt.stop()


class TestLoopDomain:
    """``AsyncRuntime.reactor``: the Clock + timer-service + thread-bridge
    protocol containers are built against, on a live event loop."""

    def test_post_and_call_blocking(self, runtime):
        domain = runtime.reactor
        seen = []
        domain.post(lambda: seen.append(threading.current_thread().name))
        assert domain.call_blocking(lambda: 21 * 2) == 42  # also a fence
        assert seen == ["async-runtime"]

    def test_call_blocking_propagates_exceptions(self, runtime):
        with pytest.raises(ZeroDivisionError):
            runtime.reactor.call_blocking(lambda: 1 / 0)

    def test_call_blocking_on_loop_thread_is_direct(self, runtime):
        domain = runtime.reactor
        assert domain.call_blocking(lambda: domain.call_blocking(lambda: 7)) == 7

    def test_timers_fire_in_order(self, runtime):
        order = []
        runtime.reactor.schedule(0.05, lambda: order.append("late"))
        runtime.reactor.schedule(0.01, lambda: order.append("early"))
        assert runtime.run_until(lambda: len(order) == 2, timeout=2.0)
        assert order == ["early", "late"]

    def test_cancelled_timer_does_not_fire(self, runtime):
        domain = runtime.reactor
        hits = []
        handle = domain.schedule(0.05, lambda: hits.append(1))
        domain.call_blocking(lambda: None)  # fence: the call_later is armed
        assert handle.inner is not None
        handle.cancel()
        time.sleep(0.15)
        assert hits == []

    def test_cancelled_timer_armed_on_the_loop_does_not_fire(self, runtime):
        domain = runtime.reactor
        hits = []
        handle = domain.call_blocking(
            lambda: domain.schedule(0.05, lambda: hits.append(1))
        )
        handle.cancel()
        time.sleep(0.15)
        assert hits == []

    def test_cross_thread_cancel_before_the_arm_lands(self, runtime):
        domain = runtime.reactor
        hits = []
        gate = threading.Event()
        domain.post(lambda: gate.wait(2.0))  # hold the loop: arm stays queued
        handle = domain.schedule(0.0, lambda: hits.append(1))
        handle.cancel()
        gate.set()
        domain.call_blocking(lambda: None)  # fence: arm ran and saw the cancel
        time.sleep(0.05)
        assert hits == []
        assert handle.inner is None  # no call_later was ever armed

    def test_schedule_after_stop_is_cancelled(self, runtime):
        runtime.stop()
        hits = []
        handle = runtime.reactor.schedule(0.0, lambda: hits.append(1))
        assert handle.cancelled
        handle.cancel()  # still a valid handle
        assert hits == []

    def test_post_after_stop_is_dropped(self, runtime):
        runtime.stop()
        hits = []
        runtime.reactor.post(lambda: hits.append(1))
        time.sleep(0.05)
        assert hits == []

    def test_call_blocking_after_stop_fails_immediately(self, runtime):
        runtime.stop()
        start = time.monotonic()
        with pytest.raises(MiddlewareError, match="runtime stopped"):
            runtime.reactor.call_blocking(lambda: None, timeout=5.0)
        assert time.monotonic() - start < 1.0

    def test_errors_collected(self, runtime):
        domain = runtime.reactor
        domain.post(lambda: 1 / 0)
        domain.call_blocking(lambda: None)  # fence
        assert any(isinstance(e, ZeroDivisionError) for e in domain.errors)

    def test_now_is_monotonic(self, runtime):
        a = runtime.reactor.now()
        b = runtime.reactor.now()
        assert b >= a


class TestAsyncRunUntil:
    def test_already_true_returns_immediately(self, runtime):
        start = time.monotonic()
        assert runtime.run_until(lambda: True, timeout=5.0) is True
        assert time.monotonic() - start < 1.0

    def test_timeout_returns_final_predicate_value(self, runtime):
        assert runtime.run_until(lambda: False, timeout=0.1) is False

    def test_predicate_exception_propagates(self, runtime):
        with pytest.raises(ZeroDivisionError):
            runtime.run_until(lambda: 1 / 0, timeout=1.0)

    def test_predicate_runs_on_loop_thread(self, runtime):
        seen = []

        def predicate():
            seen.append(threading.current_thread().name)
            return len(seen) >= 3

        assert runtime.run_until(predicate, timeout=2.0, poll=0.01)
        assert set(seen) == {"async-runtime"}

    def test_many_waiters_all_wake(self, runtime):
        box = {"n": 0}
        results = []

        def wait(threshold):
            results.append(runtime.run_until(lambda: box["n"] >= threshold, 5.0))

        waiters = [threading.Thread(target=wait, args=(t,)) for t in (1, 2, 3)]
        for w in waiters:
            w.start()
        time.sleep(0.05)
        for _ in range(3):
            runtime.reactor.post(lambda: box.__setitem__("n", box["n"] + 1))
        for w in waiters:
            w.join(timeout=5.0)
        assert not any(w.is_alive() for w in waiters)
        assert results == [True, True, True]

    def test_on_reactor_after_stop_fails_immediately(self, runtime):
        runtime.stop()
        with pytest.raises(MiddlewareError, match="runtime stopped"):
            runtime.on_reactor(lambda: None)

    def test_run_until_after_stop_fails_without_unawaited_coroutine(self, runtime):
        runtime.stop()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MiddlewareError, match="runtime stopped"):
                runtime.run_until(lambda: True, timeout=5.0)
            gc.collect()
        assert [w for w in caught if "never awaited" in str(w.message)] == []
