"""Scheduler tests: policies, CPU model queueing, error isolation."""

import pytest

from repro.sched import (
    CpuModel,
    DeadlinePolicy,
    FifoPolicy,
    FixedPriorityPolicy,
    SimScheduler,
    make_policy,
)
from repro.sim import Simulator
from repro.util.errors import ConfigurationError


def make_sched(policy=None, cpu=None, record=True, on_error=None):
    sim = Simulator()
    sched = SimScheduler(
        timers=sim,
        clock=sim,
        policy=policy or FixedPriorityPolicy(),
        cpu=cpu,
        record=record,
        on_error=on_error,
    )
    return sim, sched


class TestPolicies:
    def test_make_policy(self):
        assert make_policy("fifo").name == "fifo"
        assert make_policy("fixed_priority").name == "fixed_priority"
        assert make_policy("deadline").name == "deadline"
        with pytest.raises(ConfigurationError):
            make_policy("lottery")


class TestZeroCostExecution:
    def test_tasks_run(self):
        sim, sched = make_sched()
        done = []
        sched.submit("event", lambda: done.append(1))
        sim.run()
        assert done == [1]
        assert sched.executed == 1

    def test_zero_cost_runs_at_submit_time(self):
        sim, sched = make_sched()
        times = []
        sim.schedule(2.0, lambda: sched.submit("event", lambda: times.append(sim.now())))
        sim.run()
        assert times == [2.0]


class TestPriorityOrdering:
    def submit_mixed(self, sim, sched, order):
        # One running task holds the CPU; queue one of each label behind it.
        def hold():
            pass

        sched.submit("background", hold)  # occupies CPU first (cost applies)
        for label in ["file", "invocation", "variable", "event"]:
            sched.submit(label, lambda lbl=label: order.append(lbl))

    def test_fixed_priority_runs_events_first(self):
        sim, sched = make_sched(
            policy=FixedPriorityPolicy(), cpu=CpuModel(default_cost=0.01)
        )
        order = []
        self.submit_mixed(sim, sched, order)
        sim.run()
        assert order == ["event", "variable", "invocation", "file"]

    def test_fifo_runs_in_arrival_order(self):
        sim, sched = make_sched(policy=FifoPolicy(), cpu=CpuModel(default_cost=0.01))
        order = []
        self.submit_mixed(sim, sched, order)
        sim.run()
        assert order == ["file", "invocation", "variable", "event"]

    def test_deadline_policy_prefers_tight_budgets(self):
        sim, sched = make_sched(policy=DeadlinePolicy(), cpu=CpuModel(default_cost=0.01))
        order = []
        self.submit_mixed(sim, sched, order)
        sim.run()
        assert order[0] == "event"


class TestCpuModel:
    def test_cost_delays_completion(self):
        sim, sched = make_sched(cpu=CpuModel(costs={"invocation": 0.5}))
        times = []
        sched.submit("invocation", lambda: times.append(sim.now()))
        sim.run()
        assert times == [0.5]

    def test_queueing_delay_recorded(self):
        sim, sched = make_sched(cpu=CpuModel(default_cost=0.1))
        sched.submit("event", lambda: None)
        sched.submit("event", lambda: None)
        sim.run()
        delays = sched.queue_delays("event")
        assert delays[0] == pytest.approx(0.0)
        assert delays[1] == pytest.approx(0.1)

    def test_load_reflects_queue(self):
        sim, sched = make_sched(cpu=CpuModel(default_cost=1.0))
        for _ in range(3):
            sched.submit("file", lambda: None)
        assert sched.load == 3  # one running + two queued
        sim.run()
        assert sched.load == 0


class TestErrorIsolation:
    def test_error_routed_to_handler(self):
        errors = []
        sim, sched = make_sched(on_error=lambda label, exc: errors.append((label, str(exc))))
        done = []
        sched.submit("event", lambda: 1 / 0)
        sched.submit("event", lambda: done.append(1))
        sim.run()
        assert len(errors) == 1
        assert errors[0][0] == "event"
        assert done == [1]  # the scheduler survived
        assert sched.errors == 1

    def test_error_without_handler_propagates(self):
        sim, sched = make_sched(on_error=None)
        # Zero-cost tasks execute synchronously at submit time.
        with pytest.raises(ZeroDivisionError):
            sched.submit("event", lambda: 1 / 0)

    def test_error_without_handler_propagates_through_run(self):
        sim, sched = make_sched(on_error=None, cpu=CpuModel(default_cost=0.1))
        sched.submit("event", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
