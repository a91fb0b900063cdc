"""The container's scheduler — the only one, on both runtimes.

Models one CPU per node: each submitted task occupies the processor for its
modelled cost (:class:`CpuModel`), so queueing delay — the quantity
experiment E6 measures — emerges naturally. Handler side effects happen at
task *completion* time. Under ``SimRuntime`` the timers are the simulator's;
under ``AsyncRuntime`` they are the event loop's, and with the default
zero-cost model every task runs inline at ``submit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sched.policies import DEFAULT_PRIORITIES, DeadlinePolicy, SchedulingPolicy
from repro.util.clock import Clock


@dataclass
class CpuModel:
    """Modelled execution cost per primitive label (seconds of CPU).

    The default of zero everywhere makes the scheduler transparent —
    protocol tests don't see queueing unless an experiment asks for it.
    """

    costs: Dict[str, float] = field(default_factory=dict)
    default_cost: float = 0.0

    def cost_for(self, label: str) -> float:
        return self.costs.get(label, self.default_cost)


@dataclass
class Task:
    """One unit of work submitted to a scheduler."""

    label: str
    fn: Callable[[], None]
    priority: int
    enqueued_at: float
    cost: float
    deadline: float = float("inf")
    started_at: Optional[float] = None


@dataclass
class TaskRecord:
    """Completed-task telemetry consumed by the scheduler benchmarks."""

    label: str
    enqueued_at: float
    started_at: float
    finished_at: float

    @property
    def queue_delay(self) -> float:
        return self.started_at - self.enqueued_at

    @property
    def response_time(self) -> float:
        return self.finished_at - self.enqueued_at


class SimScheduler:
    """Single-CPU, policy-pluggable scheduler driven by the runtime's timers.

    Parameters
    ----------
    timers:
        Anything with ``schedule(delay, fn) -> handle`` — the simulator, or
        the event loop's ``LoopDomain``.
    clock:
        Time source (normally the same object).
    policy:
        The :class:`SchedulingPolicy` plug-in.
    cpu:
        The cost model, kept as :attr:`cpu` and read live: assigning a new
        model to a running scheduler prices the next task with it.
    on_error:
        Invoked with ``(label, exception)`` when a task raises; the
        container uses this to mark services as failed instead of letting
        one bad handler kill the node.
    record:
        Keep per-task telemetry (costs memory; benchmarks enable it).
    """

    def __init__(
        self,
        timers,
        clock: Clock,
        policy: SchedulingPolicy,
        cpu: Optional[CpuModel] = None,
        priorities: Optional[Dict[str, int]] = None,
        on_error: Optional[Callable[[str, Exception], None]] = None,
        record: bool = False,
    ):
        self._timers = timers
        self._clock = clock
        self._policy = policy
        self.cpu = cpu or CpuModel()
        self._priorities = dict(DEFAULT_PRIORITIES if priorities is None else priorities)
        self._on_error = on_error
        self._has_deadlines = isinstance(policy, DeadlinePolicy)
        self._ready: List[Task] = []
        self._busy = False
        self._record = record
        self.records: List[TaskRecord] = []
        self.executed = 0
        self.errors = 0

    # -- API ---------------------------------------------------------------
    def submit(self, label: str, fn: Callable[[], None]) -> None:
        """Enqueue work classified under primitive ``label``."""
        # Fast path for the transparent configuration (idle CPU, zero
        # modelled cost, no deadlines, no telemetry): run the handler now.
        # Identical semantics — a zero-cost task on an idle scheduler
        # completes at submit time anyway — without a Task allocation or a
        # policy round per delivery. The cost is ``CpuModel.cost_for``'s
        # lookup, read live but without the call.
        cpu = self.cpu
        if (
            not self._busy
            and not self._ready
            and not self._record
            and not self._has_deadlines
            and cpu.costs.get(label, cpu.default_cost) <= 0.0
        ):
            self._busy = True
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 — isolate faulty handlers
                self.errors += 1
                if self._on_error is not None:
                    self._on_error(label, exc)
                else:
                    raise
            finally:
                self.executed += 1
                self._busy = False
                if self._ready:
                    # The handler submitted follow-up work: yield to the
                    # event loop between tasks, as the slow path does.
                    self._timers.schedule(0.0, self._dispatch)
            return
        now = self._clock.now()
        priority = self._priorities.get(label, max(self._priorities.values()) + 1)
        deadline = float("inf")
        if isinstance(self._policy, DeadlinePolicy):
            deadline = now + self._policy.budget_for(label)
        task = Task(
            label=label,
            fn=fn,
            priority=priority,
            enqueued_at=now,
            cost=self.cpu.cost_for(label),
            deadline=deadline,
        )
        self._ready.append(task)
        if not self._busy:
            self._dispatch()

    @property
    def pending(self) -> int:
        return len(self._ready)

    @property
    def load(self) -> int:
        """Queue depth, reported in heartbeats for least-loaded RPC routing."""
        return len(self._ready) + (1 if self._busy else 0)

    def queue_delays(self, label: Optional[str] = None) -> List[float]:
        return [
            r.queue_delay
            for r in self.records
            if label is None or r.label == label
        ]

    # -- internals -----------------------------------------------------------
    def _dispatch(self) -> None:
        if self._busy or not self._ready:
            return
        index = self._policy.select(self._ready)
        task = self._ready.pop(index)
        task.started_at = self._clock.now()
        self._busy = True
        if task.cost <= 0.0:
            self._complete(task)
        else:
            self._timers.schedule(task.cost, lambda: self._complete(task))

    def _complete(self, task: Task) -> None:
        try:
            task.fn()
        except Exception as exc:  # noqa: BLE001 — isolate faulty handlers
            self.errors += 1
            if self._on_error is not None:
                self._on_error(task.label, exc)
            else:
                raise
        finally:
            self.executed += 1
            if self._record:
                self.records.append(
                    TaskRecord(
                        label=task.label,
                        enqueued_at=task.enqueued_at,
                        started_at=task.started_at,
                        finished_at=self._clock.now(),
                    )
                )
            self._busy = False
            if self._ready:
                # Yield to the event loop between tasks so zero-cost chains
                # cannot starve the simulator.
                self._timers.schedule(0.0, self._dispatch)


__all__ = ["SimScheduler", "CpuModel", "Task", "TaskRecord"]
