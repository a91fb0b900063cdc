"""Monitor engine and container taps: specs armed over a live system.

The :class:`MonitorEngine` holds the compiled automata and routes each
observed :class:`~repro.observability.probes.MonitorEvent` by probe kind —
one dict lookup, then the compiled step functions registered for that
kind. Events of kinds no spec mentions cost exactly the failed lookup.

A :class:`ContainerTap` plugs one container into an engine:

* subscribes to the container's :class:`~repro.observability.probes.ProbeBus`
  (which arms the primitives' emit sites),
* synthesizes ``svc.transition`` events by chaining onto each service's
  lifecycle observer (the same hook :class:`~repro.faults.invariants.
  InvariantChecker` uses — both can chain, order-independent),
* synthesizes ``peer.alive`` / ``peer.dead`` events from the container's
  directory callbacks,
* optionally (``tracing=True``) mirrors the tracer's span stream as
  ``span.start`` / ``span.finish`` events via
  :meth:`~repro.observability.trace.Tracer.subscribe`.

:class:`FleetMonitor` is the fleet-wide front end: attach every container
of a runtime, run the mission, then :meth:`~FleetMonitor.finish` and read
:attr:`~FleetMonitor.violations`. Each violation is also pushed into the
offending container's FlightRecorder and MetricsRegistry
(``verify_violations`` counter labeled by spec), and — when the container
is inside a traced operation at detection time — stamped with the ambient
trace context, so a spec failure points at the span that caused it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.container.lifecycle import ServiceRecord, is_legal_transition
from repro.observability.probes import MonitorEvent
from repro.util.errors import ConfigurationError
from repro.verify.compiler import CompiledAutomaton, compile_spec
from repro.verify.spec import Spec, Violation


class MonitorEngine:
    """Compiled automata plus the kind-routing table. One engine can serve
    a whole fleet: events from every tapped container funnel through
    :meth:`observe` in arrival order (virtual-time order under SimRuntime).
    """

    def __init__(
        self,
        specs: Sequence[Spec],
        on_violation: Optional[Callable[[Violation], None]] = None,
    ):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate spec names in {names}")
        self.specs: Tuple[Spec, ...] = tuple(specs)
        self.violations: List[Violation] = []
        self.events_observed = 0
        self._on_violation = on_violation

        def sink(violation: Violation) -> None:
            self.violations.append(violation)
            if self._on_violation is not None:
                self._on_violation(violation)

        self.automata: List[CompiledAutomaton] = [
            compile_spec(spec, sink) for spec in specs
        ]
        route: Dict[str, List[Callable[[MonitorEvent], None]]] = {}
        for automaton in self.automata:
            for kind in automaton.spec.kinds():
                route.setdefault(kind, []).append(automaton.step)
        self._route: Dict[str, Tuple[Callable[[MonitorEvent], None], ...]] = {
            kind: tuple(steps) for kind, steps in route.items()
        }

    def observe(self, event: MonitorEvent) -> None:
        """The armed hot path: route by kind, step the automata there."""
        self.events_observed += 1
        steps = self._route.get(event.kind)
        if steps is not None:
            for step in steps:
                step(event)

    def finish(self, now: float) -> None:
        """Close observation at time ``now``: expire overdue response
        obligations; in-window obligations stay pending (truncation never
        manufactures violations)."""
        for automaton in self.automata:
            automaton.finish(now)

    def pending(self) -> Dict[str, List[Tuple[object, Optional[float]]]]:
        """Per spec, the armed-but-undischarged (key, deadline) obligations."""
        return {
            automaton.spec.name: obligations
            for automaton in self.automata
            if (obligations := automaton.pending_obligations())
        }


class ContainerTap:
    """Wiring between one container and an engine (see module docstring).

    Attach after the container's services are installed — lifecycle
    chaining walks the services present at attach time, exactly like
    ``InvariantChecker.attach``.
    """

    def __init__(self, container, engine: MonitorEngine, tracing: bool = False):
        self.container = container
        self._engine = engine
        container.probes.subscribe(engine.observe)
        if tracing:
            container.tracer.subscribe(self._on_span)
        for record in container.services():
            self._watch(record)
        container.directory.on_container_up(self._on_peer_up)
        container.directory.on_container_down(self._on_peer_down)

    # -- synthesized streams -------------------------------------------------
    def _on_span(self, span, phase: str) -> None:
        self._engine.observe(
            MonitorEvent(
                f"span.{phase}",
                span.name,
                span.container,
                span.start if phase == "start" else span.end,
                attrs={
                    "kind": span.kind,
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                },
            )
        )

    def _watch(self, record: ServiceRecord) -> None:
        previous = record.observer
        probes = self.container.probes

        def observe(rec, old, new, _previous=previous, _probes=probes):
            if _previous is not None:
                _previous(rec, old, new)
            if _probes.enabled:
                _probes.emit(
                    "svc.transition",
                    rec.name,
                    attrs={
                        "old": old.value,
                        "new": new.value,
                        "legal": is_legal_transition(old, new),
                        "escalated": rec.escalated,
                    },
                )

        record.observer = observe

    def _on_peer_up(self, record) -> None:
        probes = self.container.probes
        if probes.enabled:
            probes.emit(
                "peer.alive", record.container, attrs={"peer": record.container}
            )

    def _on_peer_down(self, record) -> None:
        probes = self.container.probes
        if probes.enabled:
            probes.emit(
                "peer.dead", record.container, attrs={"peer": record.container}
            )


class FleetMonitor:
    """Fleet-wide runtime verification: one engine, a tap per container,
    violations mirrored into each victim's recorder and metrics."""

    def __init__(
        self,
        specs: Optional[Sequence[Spec]] = None,
        tracing: bool = False,
    ):
        if specs is None:
            from repro.verify.library import standard_specs

            specs = standard_specs()
        self._tracing = tracing
        self._containers: Dict[str, object] = {}
        self._taps: List[ContainerTap] = []
        self.engine = MonitorEngine(specs, on_violation=self._record)
        self._finished = False

    # -- wiring --------------------------------------------------------------
    def attach(self, container) -> ContainerTap:
        tap = ContainerTap(container, self.engine, tracing=self._tracing)
        self._containers[container.id] = container
        self._taps.append(tap)
        return tap

    def attach_runtime(self, runtime) -> "FleetMonitor":
        """Tap every container of a runtime (SimRuntime or the real ones)."""
        for container_id in sorted(runtime.containers):
            self.attach(runtime.containers[container_id])
        return self

    # -- verdicts ------------------------------------------------------------
    @property
    def specs(self) -> Tuple[Spec, ...]:
        return self.engine.specs

    @property
    def violations(self) -> List[Violation]:
        return self.engine.violations

    def finish(self, now: Optional[float] = None) -> List[Violation]:
        """Expire overdue obligations and return all violations. ``now``
        defaults to the tapped containers' current clock reading."""
        if now is None:
            clocks = [tap.container.clock.now() for tap in self._taps]
            now = max(clocks) if clocks else 0.0
        self.engine.finish(now)
        self._finished = True
        return self.engine.violations

    def report(self) -> Dict[str, object]:
        """JSON-shaped summary for CLI output and experiment artifacts."""
        return {
            "specs": [
                {"name": spec.name, "owner": spec.owner, "severity": spec.severity}
                for spec in self.engine.specs
            ],
            "containers": sorted(self._containers),
            "events_observed": self.engine.events_observed,
            "violations": [v.to_dict() for v in self.engine.violations],
            "pending": {
                name: [
                    {"key": repr(key), "deadline": deadline}
                    for key, deadline in obligations
                ]
                for name, obligations in self.engine.pending().items()
            },
        }

    # -- violation fan-out ---------------------------------------------------
    def _record(self, violation: Violation) -> None:
        container = self._containers.get(violation.container)
        if container is None:
            return
        tracer = container.tracer
        if (
            tracer.enabled
            and tracer.current is not None
            and violation.reason != "response-timeout"
        ):
            # Synchronous detection: the probe fired inside whatever span the
            # container is executing, so the ambient context *is* the cause.
            # (Timeouts are detected later, at an unrelated event — no
            # ambient context would be honest there.)
            context = tracer.current
            enriched = replace(
                violation, trace_id=context.trace_id, span_id=context.span_id
            )
            # The sink appended before fanning out, so the raw violation is
            # the list tail; swap in the enriched copy.
            self.engine.violations[-1] = enriched
            violation = enriched
        container.recorder.record(
            "verify.violation",
            spec=violation.spec,
            key=violation.key,
            reason=violation.reason,
            message=violation.message,
            severity=violation.severity,
            violated_at=violation.time,
            trace_id=violation.trace_id,
            span_id=violation.span_id,
        )
        container.metrics.counter(
            "verify_violations", spec=violation.spec, severity=violation.severity
        ).inc()


__all__ = ["MonitorEngine", "ContainerTap", "FleetMonitor"]
