"""The deterministic simulation runtime.

One :class:`SimRuntime` is one experiment: a virtual-time kernel, a
simulated LAN and any number of service containers (one per node). Runs are
bit-reproducible for a given seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.container.config import ContainerConfig
from repro.container.container import ServiceContainer
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Span, build_span_tree
from repro.sim.kernel import Simulator
from repro.simnet.models import LinkModel
from repro.simnet.network import SimNetwork
from repro.transport.frame_transport import FrameTransport
from repro.transport.sim import SimTransport
from repro.util.errors import ConfigurationError
from repro.util.rng import SeededRng

#: Network-model zone shared by every backbone member (relays bridge it
#: with their own zone; see ``SimNetwork.add_node_to_zone``).
BACKBONE_ZONE = "backbone"


class SimRuntime:
    """Experiment harness: simulator + network + containers.

    Example
    -------
    >>> runtime = SimRuntime(seed=7)
    >>> c1 = runtime.add_container("fcs", node="node-a")
    >>> c2 = runtime.add_container("payload", node="node-b")
    >>> runtime.start()
    >>> runtime.run_for(5.0)  # five virtual seconds
    """

    def __init__(
        self,
        seed: int = 1,
        default_link: Optional[LinkModel] = None,
        supports_multicast: bool = True,
        optimized_network: bool = True,
        zone_isolation: bool = False,
    ):
        self.sim = Simulator()
        self.rng = SeededRng(seed)
        self.network = SimNetwork(
            self.sim,
            self.rng.fork("network"),
            default_link=default_link,
            supports_multicast=supports_multicast,
            optimized=optimized_network,
        )
        if zone_isolation:
            # Radio-range model: multicast only reaches a node's own zones.
            self.network.set_zone_isolation(True)
        self.containers: Dict[str, ServiceContainer] = {}
        #: Fleet-wide runtime-verification monitor, set by
        #: :meth:`enable_verification`.
        self.monitor = None
        self._started = False

    # -- topology ----------------------------------------------------------
    def add_container(
        self,
        container_id: str,
        node: Optional[str] = None,
        config: Optional[ContainerConfig] = None,
        **config_overrides,
    ) -> ServiceContainer:
        """Create a container on ``node`` (defaults to a same-named node)."""
        if container_id in self.containers:
            raise ConfigurationError(f"container {container_id!r} already exists")
        node = node or container_id
        if config is None:
            config = ContainerConfig(
                container_id=container_id, node=node, **config_overrides
            )
        raw = SimTransport(self.network, node)
        transport = FrameTransport(raw, clock=self.sim, source=container_id)
        container = ServiceContainer(
            config=config,
            clock=self.sim,
            timers=self.sim,
            transport=transport,
            # Supervision jitter draws from the experiment seed: runs stay
            # bit-reproducible and containers never back off in lockstep.
            rng=self.rng.fork(f"supervisor:{container_id}"),
        )
        fleet = config.fleet
        if fleet.zone is not None:
            self.network.add_node_to_zone(node, fleet.zone)
        if fleet.backbone_member:
            self.network.add_node_to_zone(node, BACKBONE_ZONE)
        self.containers[container_id] = container
        if self._started:
            container.start()
        return container

    def container(self, container_id: str) -> ServiceContainer:
        return self.containers[container_id]

    # -- execution ---------------------------------------------------------
    def start(self) -> None:
        """Start every container (staggered by a tick to avoid lockstep)."""
        self._started = True
        for i, container in enumerate(self.containers.values()):
            # A tiny stagger mirrors real boots and prevents synchronized
            # announce storms from aliasing in the statistics.
            self.sim.schedule(i * 0.001, container.start)

    def stop(self) -> None:
        for container in self.containers.values():
            if container.running:
                container.stop()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_for(self, duration: float) -> float:
        return self.sim.run_for(duration)

    def settle(self, duration: Optional[float] = None) -> float:
        """Run long enough for discovery to converge (a couple of announce
        intervals by default)."""
        if duration is None:
            duration = 2.5 * max(
                c.config.announce_interval for c in self.containers.values()
            )
        return self.run_for(duration)

    def run_until(self, predicate, timeout: float, poll: float = 0.05) -> bool:
        """Advance virtual time until ``predicate()`` is true or ``timeout``
        virtual seconds pass. Returns whether the predicate held."""
        deadline = self.sim.now() + timeout
        while self.sim.now() < deadline:
            if predicate():
                return True
            self.run_for(poll)
        return predicate()

    # -- observability ------------------------------------------------------
    def enable_tracing(self) -> None:
        """Turn on causal tracing in every (current) container."""
        for container in self.containers.values():
            container.tracer.enabled = True

    def enable_admission(self) -> None:
        """Arm ingress admission control in every (current) container: rate
        limits, quarantine and band-weighted ingress scheduling, at the
        budgets of :mod:`repro.protocol.admission`."""
        from repro.protocol.admission import HARDENED_ADMISSION

        for container in self.containers.values():
            container.admission.configure(HARDENED_ADMISSION)

    def harden_reliability(self) -> None:
        """Arm the reliability abuse defenses (ACK-flood rejection, replay
        windows) on every existing and future stream."""
        for container in self.containers.values():
            container.links.set_hardening(True, container.directory.peers())

    def enable_verification(self, specs=None, tracing: bool = False):
        """Arm runtime-verification monitors over every current container.

        ``specs`` defaults to :func:`~repro.verify.library.standard_specs`;
        ``tracing=True`` additionally mirrors the span stream into the
        monitors (enable tracing separately). Returns the
        :class:`~repro.verify.FleetMonitor`; read ``monitor.violations``
        after the run, or let an :class:`~repro.faults.invariants.
        InvariantChecker` fold them in via ``attach_monitor``.
        """
        from repro.verify.monitor import FleetMonitor

        self.monitor = FleetMonitor(specs, tracing=tracing)
        self.monitor.attach_runtime(self)
        return self.monitor

    def verification_report(self) -> Optional[Dict[str, object]]:
        """Finish the armed monitor at current virtual time and summarize;
        None when :meth:`enable_verification` was never called."""
        if self.monitor is None:
            return None
        self.monitor.finish(self.sim.now())
        return self.monitor.report()

    def admission_report(self) -> Dict[str, dict]:
        """Per-container admission/defense summary (only non-idle entries):
        admitted/dropped counts and the currently quarantined sources."""
        report: Dict[str, dict] = {}
        for container_id, container in sorted(self.containers.items()):
            admission = container.admission
            quarantined = admission.quarantined_sources()
            if not (admission.admitted or admission.dropped or quarantined):
                continue
            report[container_id] = {
                "admitted": admission.admitted,
                "dropped": admission.dropped,
                "quarantined": quarantined,
            }
        return report

    def metrics_snapshot(self) -> Dict[str, object]:
        """One fleet-wide metrics dict: every container's registry merged
        under a ``container=<id>`` label plus the network's ``net.*``
        counters. Deterministically ordered."""
        merged = MetricsRegistry()
        self.network.stats.export(merged)
        for container_id in sorted(self.containers):
            merged.absorb(
                self.containers[container_id].metrics, container=container_id
            )
        return merged.snapshot()

    def trace_spans(self) -> List[Span]:
        """Every span recorded by any container, in deterministic order
        (start time, then container, then span id)."""
        spans: List[Span] = []
        for container_id in sorted(self.containers):
            spans.extend(self.containers[container_id].tracer.spans)
        spans.sort(key=lambda s: (s.start, s.container, s.span_id))
        return spans

    def trace_tree(self) -> List[dict]:
        """The cross-container span forest (see
        :func:`~repro.observability.trace.build_span_tree`)."""
        return build_span_tree(self.trace_spans())

    def flight_dumps(self) -> Dict[str, List[dict]]:
        """Every container's flight-recorder contents, keyed by id."""
        return {
            container_id: container.recorder.dump()
            for container_id, container in sorted(self.containers.items())
        }


__all__ = ["SimRuntime"]
