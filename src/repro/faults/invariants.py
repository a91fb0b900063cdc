"""Runtime invariants checked around a chaos campaign.

A checker attaches *before* the faults fire, records everything observable
(service lifecycle transitions chain through
:attr:`~repro.container.lifecycle.ServiceRecord.observer`), and is asked
afterwards — once every injected fault has healed and the domain had time
to settle — whether the middleware's contracts held:

1. **Lifecycle legality** — no service ever took a transition outside the
   ``_TRANSITIONS`` table, and no escalated service silently resurrected.
2. **Invocation termination** — every in-flight invocation terminated with
   a result or a defined error; no call handle leaks forever.
3. **Directory convergence** — after heal, every running container on an
   up node sees every other such container alive, and sees the providers
   it actually offers.
4. **Control-plane liveness under attack** — armed with
   :meth:`~InvariantChecker.watch_control_liveness`, the checker samples
   pairwise aliveness while the campaign (attacks included) runs: a
   running container on an up node seen *dead* by a peer is a starvation
   violation. :meth:`~InvariantChecker.check_rpc_p99` bounds RPC tail
   latency over the same window.

Each violation is also recorded *structured* in :attr:`records`, with the
dominant attacking source id and band (from the victim's admission and
reliability-abuse counters) attributed — so an attack test can assert not
just that something was dropped but *who* caused it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.container.lifecycle import (
    ServiceRecord,
    ServiceState,
    is_legal_transition,
)
from repro.runtime.simruntime import SimRuntime


class InvariantChecker:
    """Observes a :class:`SimRuntime` and validates §3 contracts.

    Usage::

        checker = InvariantChecker(runtime)   # after services installed
        campaign.run()
        violations = checker.check()
        assert violations == []
    """

    def __init__(self, runtime: SimRuntime, attach: bool = True):
        self._runtime = runtime
        #: Every observed lifecycle transition: (container, service, old, new).
        self.transitions: List[Tuple[str, str, ServiceState, ServiceState]] = []
        self.violations: List[str] = []
        #: Structured violation records: dicts with ``message``, the victim
        #: ``container``, and — when the victim's counters point at one —
        #: the dominant ``attacker`` source id and ``band``.
        self.records: List[dict] = []
        #: (container_a, container_b, time) liveness samples where a saw b
        #: falsely dead (filled by :meth:`watch_control_liveness`).
        self.false_dead_samples: List[Tuple[str, str, float]] = []
        self._liveness_watch = False
        #: Per-container flight-recorder dumps, captured by :meth:`check`
        #: when violations exist — the moments before the failure.
        self.flight_dumps: dict = {}
        #: Attached runtime-verification monitors (``repro.verify``) whose
        #: spec violations :meth:`check` folds into the verdict, with a
        #: per-monitor cursor so repeated checks never double-count.
        self._monitors: List[tuple] = []
        if attach:
            self.attach()

    # -- observation ----------------------------------------------------------
    def attach(self) -> None:
        """Chain onto the transition observer of every installed service."""
        for container_id, container in self._runtime.containers.items():
            for record in container.services():
                self._watch(container_id, record)

    def _watch(self, container_id: str, record: ServiceRecord) -> None:
        previous = record.observer

        def observe(rec: ServiceRecord, old: ServiceState, new: ServiceState) -> None:
            if previous is not None:
                previous(rec, old, new)
            self.transitions.append((container_id, rec.name, old, new))
            if not is_legal_transition(old, new):
                self._violate(
                    f"{container_id}/{rec.name}: illegal transition "
                    f"{old.value} -> {new.value}",
                    container=container_id,
                )
            if rec.escalated and new == ServiceState.RUNNING:
                self._violate(
                    f"{container_id}/{rec.name}: escalated service resurrected",
                    container=container_id,
                )

        record.observer = observe

    def attach_monitor(self, monitor) -> None:
        """Fold a runtime-verification monitor's spec violations into this
        checker's verdict: :meth:`check` finishes the monitor at current
        virtual time and converts every *error*-severity
        :class:`~repro.verify.spec.Violation` into a checker violation
        (attacker attribution included, same as the hand-written checks).
        Accepts a :class:`~repro.verify.FleetMonitor` or a bare
        :class:`~repro.verify.MonitorEngine`."""
        self._monitors.append([monitor, 0])

    def _consume_monitors(self) -> None:
        for entry in self._monitors:
            monitor, cursor = entry
            monitor.finish(self._runtime.sim.now())
            fresh = monitor.violations[cursor:]
            entry[1] = len(monitor.violations)
            for violation in fresh:
                if violation.severity != "error":
                    continue
                self._violate(
                    f"spec {violation.spec} [{violation.key!r}] "
                    f"{violation.reason} at t={violation.time:.6f} "
                    f"on {violation.container}: {violation.message}",
                    container=violation.container,
                )

    def watch_control_liveness(self, interval: float = 0.25) -> None:
        """Start sampling pairwise directory liveness on the virtual clock.

        Call before the campaign runs. Every ``interval`` seconds, each
        running container on an up node is checked against every peer's
        directory; a peer that sees it *dead* (control-plane starvation —
        its heartbeats lost to an attack or overload) is a violation,
        attributed to the dominant attacker in the observer's counters.
        """
        if self._liveness_watch:
            return
        self._liveness_watch = True

        def sample():
            now = self._runtime.sim.now()
            containers = self._runtime.containers
            healthy = {
                cid
                for cid, c in containers.items()
                if c.running and self._runtime.network.attach(c.config.node).up
            }
            for a_id in healthy:
                a = containers[a_id]
                for b_id in healthy:
                    if a_id == b_id:
                        continue
                    record = a.directory.record(b_id)
                    if record is not None and not record.alive:
                        self.false_dead_samples.append((a_id, b_id, now))
            self._runtime.sim.schedule(interval, sample)

        self._runtime.sim.schedule(interval, sample)

    # -- attribution ----------------------------------------------------------
    def _attacker_of(self, container_id: str) -> Tuple[Optional[str], Optional[str]]:
        """Dominant (attacker source id, band) seen by ``container_id``'s
        defenses, judged by drop/abuse/malformed counter volume."""
        container = self._runtime.containers.get(container_id)
        if container is None:
            return None, None
        per_source: dict = {}
        per_band: dict = {}
        for (kind, name, label_set), metric in container.metrics.items():
            if kind != "counter":
                continue
            labels = dict(label_set)
            source = labels.get("source") or labels.get("peer")
            if source is None:
                continue
            if name in ("admission_drops", "malformed_frames", "reliability_abuse"):
                per_source[source] = per_source.get(source, 0) + metric.value
                band = labels.get("band")
                if band is not None:
                    key = (source, band)
                    per_band[key] = per_band.get(key, 0) + metric.value
        if not per_source:
            return None, None
        attacker = max(sorted(per_source), key=lambda s: per_source[s])
        bands = {b: v for (s, b), v in per_band.items() if s == attacker}
        band = max(sorted(bands), key=lambda b: bands[b]) if bands else None
        return attacker, band

    def _violate(self, message: str, container: Optional[str] = None) -> None:
        self.violations.append(message)
        attacker, band = (
            self._attacker_of(container) if container is not None else (None, None)
        )
        self.records.append(
            {
                "message": message,
                "container": container,
                "attacker": attacker,
                "band": band,
            }
        )

    # -- verdicts ------------------------------------------------------------
    def check(self, expect_converged: bool = True) -> List[str]:
        """All post-campaign checks; returns accumulated violations.

        On any violation the flight recorders are dumped into
        :attr:`flight_dumps` (and :meth:`dump_json` renders them) so the
        failure is diagnosable after the fact."""
        self.check_invocations_terminated()
        if expect_converged:
            self.check_directory_converged()
        self.check_escalations_final()
        if self._liveness_watch:
            self.check_control_liveness()
        if self._monitors:
            self._consume_monitors()
        if self.violations:
            self.flight_dumps = {
                container_id: container.recorder.dump()
                for container_id, container in sorted(
                    self._runtime.containers.items()
                )
            }
        return self.violations

    def dump_json(self, indent: int = 2) -> str:
        """Violations plus the captured flight-recorder dumps as JSON."""
        import json

        return json.dumps(
            {"violations": self.violations, "flight_recorders": self.flight_dumps},
            indent=indent,
            default=str,
        )

    def check_invocations_terminated(self) -> List[str]:
        for container_id, container in self._runtime.containers.items():
            pending = container.invocations.pending_calls()
            for handle in pending:
                self._violate(
                    f"{container_id}: invocation {handle.function!r} "
                    f"({handle.call_id}) never terminated",
                    container=container_id,
                )
        return self.violations

    def check_control_liveness(self, tolerated_samples: int = 0) -> List[str]:
        """Judge the liveness samples collected by
        :meth:`watch_control_liveness`: any (observer, victim) pair seen
        falsely dead more than ``tolerated_samples`` times is a control-
        plane starvation violation, attributed to the dominant attacker in
        the *observer's* counters (it is the observer whose ingress lost
        the heartbeats)."""
        pair_counts: dict = {}
        for a_id, b_id, _ in self.false_dead_samples:
            pair_counts[(a_id, b_id)] = pair_counts.get((a_id, b_id), 0) + 1
        for (a_id, b_id), count in sorted(pair_counts.items()):
            if count > tolerated_samples:
                self._violate(
                    f"{a_id} saw {b_id} falsely dead in {count} liveness "
                    f"samples (control-plane starvation)",
                    container=a_id,
                )
        return self.violations

    def check_rpc_p99(self, bound: float) -> List[str]:
        """Fleet-wide RPC p99 latency must stay under ``bound`` seconds —
        the 'bounded tail under attack' contract. Uses each container's
        ``rpc_latency`` histogram; containers that made no calls pass."""
        for container_id, container in sorted(self._runtime.containers.items()):
            values = container.metrics.histogram_values("rpc_latency")
            if not values:
                continue
            ordered = sorted(values)
            p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            if p99 > bound:
                self._violate(
                    f"{container_id}: rpc p99 {p99:.4f}s exceeds bound "
                    f"{bound:.4f}s",
                    container=container_id,
                )
        return self.violations

    def check_directory_converged(self) -> List[str]:
        """Every running container on an up node must see every other one
        *in its control scope* alive, with its running services listed.

        In a federated fleet a container only holds full records for its
        own zone: cross-zone pairs are exempt from the record check, and
        instead every backbone member (relay/ground) must hold a summary of
        each foreign zone that has a live relay (UAV → relay → ground)."""
        reachable = {
            cid: c
            for cid, c in self._runtime.containers.items()
            if c.running and self._runtime.network.attach(c.config.node).up
        }
        for a_id, a in reachable.items():
            a_zone = a.config.fleet.zone
            for b_id, b in reachable.items():
                if a_id == b_id:
                    continue
                b_zone = b.config.fleet.zone
                if a_zone != b_zone:
                    # Different control groups (zoned vs flat, or different
                    # zones): no full record is ever expected.
                    continue
                record = a.directory.record(b_id)
                if record is None or not record.alive:
                    self._violate(
                        f"directory of {a_id} does not see {b_id} alive after heal",
                        container=a_id,
                    )
                    continue
                running = {r.name for r in b.services() if r.is_running}
                if running - set(record.services):
                    self._violate(
                        f"directory of {a_id} is missing services "
                        f"{sorted(running - set(record.services))} of {b_id}",
                        container=a_id,
                    )
        # Federation: backbone members must know every relayed foreign zone.
        relayed_zones = {
            c.config.fleet.zone
            for c in reachable.values()
            if c.config.fleet.backbone_member
        }
        for a_id, a in reachable.items():
            if not a.config.fleet.backbone_member:
                continue
            known = a.directory.known_zones()
            for zone in sorted(relayed_zones - {a.config.fleet.zone}):
                if zone not in known:
                    self._violate(
                        f"backbone member {a_id} holds no summary of zone "
                        f"{zone!r} after heal",
                        container=a_id,
                    )
        return self.violations

    def check_escalations_final(self) -> List[str]:
        for container_id, container in self._runtime.containers.items():
            for record in container.services():
                if record.escalated and record.state != ServiceState.FAILED:
                    self._violate(
                        f"{container_id}/{record.name}: escalated but in state "
                        f"{record.state.value}",
                        container=container_id,
                    )
        return self.violations


__all__ = ["InvariantChecker"]
