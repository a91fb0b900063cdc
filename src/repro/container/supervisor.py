"""Service supervision: restart policies, backoff, escalation.

The paper's container "watch[es] for their correct operation and notif[ies]
the rest of containers about changes in the services status" (§3). The
seed only *recorded* failure; the supervisor closes the loop:

- a failed service is rescheduled for restart under an exponential-backoff
  schedule with seeded jitter (so a fleet of identical nodes never restarts
  in lockstep);
- restarts draw on a budget — at most ``max_restarts`` attempts inside a
  sliding ``restart_window`` — and when the budget is exhausted the failure
  **escalates**: the service is marked permanently failed, its withdrawal
  is broadcast (peers fail over to redundant providers, §4.3), and the
  container's emergency procedure fires;
- every action is counted in a :class:`~repro.util.stats.Tally` so tests
  and benchmarks can assert on restarts attempted, backoff delays drawn,
  escalations and time-to-recovery.

The supervisor is deliberately sans-io: it only talks to the container's
timer source and clock, so it behaves identically under the simulated and
wall-clock runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.container.lifecycle import ServiceRecord, ServiceState
from repro.util.errors import ConfigurationError
from repro.util.rng import SeededRng
from repro.util.stats import Tally

#: Legal restart modes.
#: - ``never``      — failures are recorded, nothing restarts (seed behaviour);
#: - ``on-failure`` — restart after a FAILED transition;
#: - ``always``     — additionally restart after a plain stop_service()
#:   (the systemd meaning: the service should be up whenever its container
#:   is, however it went down).
RESTART_MODES = ("never", "on-failure", "always")


@dataclass(frozen=True)
class RestartPolicy:
    """Per-service restart tunables (container default in
    :class:`~repro.container.config.ContainerConfig.restart_policy`)."""

    mode: str = "on-failure"
    #: First backoff delay; doubles (``backoff_factor``) per recent attempt.
    backoff_initial: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    #: Symmetric jitter as a fraction of the delay (0 = deterministic).
    jitter: float = 0.25
    #: Budget: escalate after this many restarts inside ``restart_window``.
    max_restarts: int = 5
    restart_window: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in RESTART_MODES:
            raise ConfigurationError(
                f"restart mode must be one of {RESTART_MODES}, got {self.mode!r}"
            )
        if self.backoff_initial <= 0.0:
            raise ConfigurationError("backoff_initial must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.backoff_max < self.backoff_initial:
            raise ConfigurationError("backoff_max must be >= backoff_initial")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")
        if self.max_restarts < 1:
            raise ConfigurationError("max_restarts must be >= 1")
        if self.restart_window <= 0.0:
            raise ConfigurationError("restart_window must be positive")

    def delay_for(self, attempt: int, rng: Optional[SeededRng] = None) -> float:
        """Backoff before restart number ``attempt`` (0-based), jittered."""
        base = min(self.backoff_max, self.backoff_initial * self.backoff_factor ** attempt)
        if rng is None or self.jitter <= 0.0:
            return base
        return rng.jittered(base, base * self.jitter, floor=0.0)


@dataclass
class _Plan:
    """The supervisor's per-service state."""

    policy: RestartPolicy
    #: Times of recent restart attempts (pruned to the policy window).
    attempts: List[float] = field(default_factory=list)
    #: When the current outage began (None while the service is healthy).
    failed_at: Optional[float] = None
    timer: object = field(default=None, repr=False)

    def recent_attempts(self, now: float) -> List[float]:
        window = self.policy.restart_window
        self.attempts = [t for t in self.attempts if now - t <= window]
        return self.attempts

    def cancel_timer(self) -> None:
        if self.timer is not None and hasattr(self.timer, "cancel"):
            self.timer.cancel()
        self.timer = None


class ServiceSupervisor:
    """Watches a container's services and heals them per policy.

    Owned by :class:`~repro.container.container.ServiceContainer`; the
    container forwards failures (``on_failure``) and stops (``on_stopped``)
    and exposes the supervisor as ``container.supervisor``.
    """

    def __init__(self, container, rng: Optional[SeededRng] = None):
        self._container = container
        self._rng = rng if rng is not None else SeededRng(1).fork(
            f"supervisor:{container.id}"
        )
        # Supervision tallies live in the container's unified registry as
        # ``supervision.*`` (a private registry when the host has none —
        # test doubles).
        self.stats = Tally(
            registry=getattr(container, "metrics", None), prefix="supervision."
        )
        self._plans: Dict[str, _Plan] = {}

    # -- policy bookkeeping -------------------------------------------------
    def register(self, name: str, policy: Optional[RestartPolicy] = None) -> None:
        """Track a service; ``policy`` overrides the container default."""
        self._plans[name] = _Plan(policy=policy or self._container.config.restart_policy)

    def forget(self, name: str) -> None:
        plan = self._plans.pop(name, None)
        if plan is not None:
            plan.cancel_timer()

    def policy_for(self, name: str) -> RestartPolicy:
        plan = self._plans.get(name)
        if plan is None:
            return self._container.config.restart_policy
        return plan.policy

    def reset(self, name: str) -> None:
        """Forgive the service's history (an operator restarted it)."""
        plan = self._plans.get(name)
        if plan is not None:
            plan.cancel_timer()
            plan.attempts.clear()
            plan.failed_at = None

    def cancel(self, name: str) -> None:
        """Drop any pending restart (requested stop / uninstall)."""
        plan = self._plans.get(name)
        if plan is not None:
            plan.cancel_timer()
            plan.failed_at = None

    def cancel_all(self) -> None:
        for plan in self._plans.values():
            plan.cancel_timer()

    # -- container notifications ---------------------------------------------
    def on_failure(self, record: ServiceRecord) -> None:
        """A service transitioned to FAILED; heal it if its policy says so."""
        plan = self._plan(record.name)
        self.stats.incr("failures")
        if plan.policy.mode == "never" or record.escalated:
            return
        self._schedule(record, plan)

    def on_stopped(self, record: ServiceRecord) -> None:
        """A service was stopped while its container keeps running; an
        ``always`` policy brings it back."""
        plan = self._plan(record.name)
        if plan.policy.mode != "always" or record.escalated:
            return
        self._schedule(record, plan)

    # -- introspection --------------------------------------------------------
    @property
    def restarts_attempted(self) -> int:
        return self.stats.count("restarts_attempted")

    @property
    def escalations(self) -> int:
        return self.stats.count("escalations")

    # -- internals -----------------------------------------------------------
    def _plan(self, name: str) -> _Plan:
        plan = self._plans.get(name)
        if plan is None:
            plan = _Plan(policy=self._container.config.restart_policy)
            self._plans[name] = plan
        return plan

    def _schedule(self, record: ServiceRecord, plan: _Plan) -> None:
        if not self._container.running or plan.timer is not None:
            return
        now = self._container.clock.now()
        if plan.failed_at is None:
            plan.failed_at = now
        recent = plan.recent_attempts(now)
        if len(recent) >= plan.policy.max_restarts:
            self._escalate(record, plan)
            return
        delay = plan.policy.delay_for(len(recent), self._rng)
        self.stats.incr("restarts_scheduled")
        self.stats.observe("backoff_delay", delay)
        plan.timer = self._container.timers.schedule(
            delay, lambda: self._attempt(record.name)
        )

    def _attempt(self, name: str) -> None:
        plan = self._plans.get(name)
        if plan is None:
            return
        plan.timer = None
        record = self._container.service_record(name)
        if record is None or not self._container.running or record.escalated:
            return
        if record.state not in (ServiceState.FAILED, ServiceState.STOPPED):
            return  # an operator beat us to it
        plan.attempts.append(self._container.clock.now())
        self.stats.incr("restarts_attempted")
        # May fail again synchronously, re-entering on_failure with a
        # longer backoff (or escalation) — that is the crash-loop path.
        self._container._start_service(record)
        if record.is_running:
            self.stats.incr("restarts_succeeded")
            if plan.failed_at is not None:
                self.stats.observe(
                    "recovery_time", self._container.clock.now() - plan.failed_at
                )
                plan.failed_at = None

    def _escalate(self, record: ServiceRecord, plan: _Plan) -> None:
        record.escalated = True
        plan.cancel_timer()
        self.stats.incr("escalations")
        recorder = getattr(self._container, "recorder", None)
        if recorder is not None:
            recorder.record(
                "escalation", service=record.name, reason=record.failure_reason
            )
        if plan.failed_at is not None:
            self.stats.observe(
                "escalation_after", self._container.clock.now() - plan.failed_at
            )
        # Provisions were withdrawn when the service failed; the announce
        # broadcasts the (now permanent) status change so peers rebind to
        # redundant providers, and the emergency hook lets the application
        # run its programmed procedure (§4.3).
        self._container.announce_soon()
        self._container.emergency(
            f"service {record.name!r} escalated: restart budget exhausted "
            f"({plan.policy.max_restarts} restarts in "
            f"{plan.policy.restart_window}s); last failure: {record.failure_reason}"
        )


__all__ = ["RestartPolicy", "ServiceSupervisor", "RESTART_MODES"]
