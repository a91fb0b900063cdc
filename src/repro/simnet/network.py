"""The simulated network itself.

A :class:`SimNetwork` connects :class:`SimNic` objects (one per node) through
configurable :class:`LinkModel` behaviour. Multicast follows a broadcast-
medium model: the sender pays serialization once per emission, and every
group member receives a copy subject to its own propagation delay and loss
draw — exactly the property the paper's variable and file primitives exploit.

Fleet-scale missions (1,000+ nodes) hammer the emission path, so the
network keeps two per-emission caches — the resolved ``(LinkModel,
generator)`` pair per directed node pair, and the sorted receiver list per
``(sender, group)`` — and groups same-arrival multicast deliveries into one
kernel event. Both paths produce identical packet traces; constructing the
network with ``optimized=False`` selects the original per-send resolution
(the baseline `bench_fleet.py` measures against).

Zones model radio reach for hierarchical fleets: when zone isolation is
enabled, a multicast emission only walks receivers that share a zone with
the sender (unzoned nodes hear everything), so a 1,000-container broadcast
costs one zone's membership, not the fleet's. Unicast is never filtered.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim.kernel import Simulator
from repro.simnet.models import LinkModel
from repro.simnet.packet import Packet
from repro.simnet.stats import NetworkStats
from repro.transport.addressing import WIRE_OVERHEAD_BYTES, Address, GroupName
from repro.util.errors import TransportError
from repro.util.rng import Generator, SeededRng

Receiver = Callable[[Packet], None]


class SimNic:
    """A node's network interface.

    The PEPt Transport layer binds to one of these; services never touch it.
    """

    def __init__(self, network: "SimNetwork", node: str):
        self._network = network
        self.node = node
        self._receiver: Optional[Receiver] = None
        self.up = True

    def set_receiver(self, receiver: Receiver) -> None:
        """Install the callback invoked for every delivered packet."""
        self._receiver = receiver

    def send(self, packet: Packet) -> None:
        """Emit a packet onto the medium."""
        self._network._emit(self, packet)

    def join(self, group: GroupName) -> None:
        self._network._join(self.node, group)

    def leave(self, group: GroupName) -> None:
        self._network._leave(self.node, group)

    def _deliver(self, packet: Packet) -> None:
        if self._receiver is not None:
            self._receiver(packet)


class SimNetwork:
    """A LAN segment of simulated nodes.

    Parameters
    ----------
    sim:
        The discrete-event kernel that provides time and scheduling.
    rng:
        Experiment-level random stream; the network forks per-link streams
        from it so adding nodes does not perturb existing links' draws.
    default_link:
        Behaviour of any node pair without an explicit override.
    optimized:
        Select the cached emission path (default). ``False`` keeps the
        original per-send dict-chain resolution — packet-trace-identical,
        only slower; the fleet benchmark uses it as its baseline.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: SeededRng,
        default_link: Optional[LinkModel] = None,
        supports_multicast: bool = True,
        optimized: bool = True,
    ):
        self._sim = sim
        self._rng = rng
        self._default_link = default_link or LinkModel()
        #: §3: multicast is exploited "when the underlying network allows
        #: it". False models a network without it: every group send is
        #: charged one emission (and serialization) per member — the
        #: baseline of experiment E3.
        self.supports_multicast = supports_multicast
        self._optimized = optimized
        self._nics: Dict[str, SimNic] = {}
        self._links: Dict[Tuple[str, str], LinkModel] = {}
        self._link_rngs: Dict[Tuple[str, str], SeededRng] = {}
        self._groups: Dict[GroupName, Set[str]] = {}
        # Per-sender "uplink busy until" time implementing serialization delay.
        self._uplink_free_at: Dict[str, float] = {}
        #: Resolved (LinkModel, the link stream's generator) per directed
        #: pair. The streams are owned by ``_link_rngs`` — invalidating this
        #: cache must never re-fork a stream or draw order would reset.
        self._pair_cache: Dict[Tuple[str, str], Tuple[LinkModel, Generator]] = {}
        #: (sender, group) -> (sorted receivers excluding sender, sender in
        #: group). Cleared wholesale on any membership or zone change.
        self._reach_cache: Dict[Tuple[str, GroupName], Tuple[List[str], bool]] = {}
        #: Zone membership per node (a node may sit in several zones — a
        #: relay bridges its zone and the backbone). Empty = unzoned.
        self._node_zones: Dict[str, Set[str]] = {}
        self._zone_isolation = False
        self.stats = NetworkStats()
        self._trace: Optional[List[Packet]] = None

    # -- topology ----------------------------------------------------------
    def attach(self, node: str) -> SimNic:
        """Create (or return) the NIC for ``node``."""
        if node not in self._nics:
            self._nics[node] = SimNic(self, node)
        return self._nics[node]

    def set_link(self, src: str, dst: str, model: LinkModel, symmetric: bool = True) -> None:
        """Override the link model between two nodes."""
        self._links[(src, dst)] = model
        if symmetric:
            self._links[(dst, src)] = model
        self._pair_cache.clear()

    def link_for(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self._default_link)

    def set_node_up(self, node: str, up: bool) -> None:
        """Fault injection: a down node neither sends nor receives."""
        self.attach(node).up = up

    # -- zones -------------------------------------------------------------
    def add_node_to_zone(self, node: str, zone: str) -> None:
        """Place ``node`` in ``zone`` (additive — a relay sits in two)."""
        self._node_zones.setdefault(node, set()).add(zone)
        self._reach_cache.clear()

    def node_zones(self, node: str) -> Set[str]:
        return set(self._node_zones.get(node, set()))

    def set_zone_isolation(self, enabled: bool) -> None:
        """When enabled, multicast only reaches group members sharing a
        zone with the sender (unzoned nodes are reachable by everyone).
        Unicast traffic is never filtered."""
        self._zone_isolation = enabled
        self._reach_cache.clear()

    def _can_reach(self, src: str, dst: str) -> bool:
        src_zones = self._node_zones.get(src)
        if not src_zones:
            return True
        dst_zones = self._node_zones.get(dst)
        if not dst_zones:
            return True
        return not src_zones.isdisjoint(dst_zones)

    # -- tracing -----------------------------------------------------------
    def enable_trace(self) -> List[Packet]:
        """Start recording every delivered packet; returns the live list."""
        self._trace = []
        return self._trace

    # -- group membership ---------------------------------------------------
    def _join(self, node: str, group: GroupName) -> None:
        self._groups.setdefault(group, set()).add(node)
        self._reach_cache.clear()

    def _leave(self, node: str, group: GroupName) -> None:
        members = self._groups.get(group)
        if members is not None:
            members.discard(node)
            self._reach_cache.clear()

    def group_members(self, group: GroupName) -> Set[str]:
        """A *copy* of the group's membership — mutating the returned set
        must never touch live membership (or the reach cache would lie)."""
        return set(self._groups.get(group, ()))

    # -- transmission core ---------------------------------------------------
    def _link_rng(self, src: str, dst: str) -> SeededRng:
        key = (src, dst)
        if key not in self._link_rngs:
            self._link_rngs[key] = self._rng.fork(f"link:{src}->{dst}")
        return self._link_rngs[key]

    def _pair(self, src: str, dst: str) -> Tuple[LinkModel, Generator]:
        key = (src, dst)
        pair = self._pair_cache.get(key)
        if pair is None:
            pair = (self.link_for(src, dst), self._link_rng(src, dst).generator)
            self._pair_cache[key] = pair
        return pair

    def _receivers_for(self, src: str, group: GroupName) -> Tuple[List[str], bool]:
        key = (src, group)
        cached = self._reach_cache.get(key)
        if cached is None:
            members = self._groups.get(group, ())
            receivers = sorted(m for m in members if m != src)
            if self._zone_isolation:
                receivers = [m for m in receivers if self._can_reach(src, m)]
            cached = (receivers, src in members)
            self._reach_cache[key] = cached
        return cached

    def _emit(self, nic: SimNic, packet: Packet) -> None:
        if not nic.up:
            self.stats.drops_down.add(packet.size)
            return
        src = nic.node
        if packet.source.node != src:
            raise TransportError(
                f"packet source {packet.source} does not match NIC node {src}"
            )
        # MTU is enforced against the *source's* default view of the medium;
        # the Protocol layer fragments before this point.
        mtu = self._default_link.mtu
        if len(packet.payload) > mtu:
            raise TransportError(
                f"payload of {len(packet.payload)} bytes exceeds MTU {mtu}; "
                "fragment at the protocol layer"
            )
        packet.sent_at = self._sim.now()

        # Multicast shares the default medium; unicast serializes at the
        # specific link's rate (a radio hop to the ground is slower than
        # the on-board Ethernet).
        model = self._default_link
        destination = packet.destination
        if isinstance(destination, Address):
            if self._optimized:
                model, _ = self._pair(src, destination.node)
            else:
                model = self.link_for(src, destination.node)
        if isinstance(destination, GroupName):
            if self._optimized:
                receivers, src_member = self._receivers_for(src, destination)
                if src_member:
                    # Loopback: multicast senders that joined their own
                    # group hear their packets too (IP_MULTICAST_LOOP).
                    receivers = receivers + [src]
            else:
                members = self._groups.get(destination, set())
                receivers = sorted(m for m in members if m != src)
                if self._zone_isolation:
                    receivers = [m for m in receivers if self._can_reach(src, m)]
                if src in members:
                    receivers.append(src)
            if not receivers:
                self.stats.record_emission(src, packet.size)
                self.stats.drops_nomember.add(packet.size)
                return
            if self.supports_multicast:
                # Serialization charged once per emission — the bandwidth
                # win measured by experiment E3.
                self.stats.record_emission(src, packet.size)
                tx_done = self._occupy_uplink(src, model, packet.size)
                if self._optimized:
                    self._schedule_deliveries(src, receivers, packet, tx_done)
                else:
                    for dst in receivers:
                        self._schedule_delivery(src, dst, packet, tx_done)
            else:
                # No multicast in the underlying network: one emission (and
                # one serialization slot) per receiver.
                for dst in receivers:
                    self.stats.record_emission(src, packet.size)
                    tx_done = self._occupy_uplink(src, model, packet.size)
                    self._schedule_delivery(src, dst, packet, tx_done)
        else:
            self.stats.record_emission(src, packet.size)
            tx_done = self._occupy_uplink(src, model, packet.size)
            if self._optimized:
                self._schedule_deliveries(
                    src, (destination.node,), packet, tx_done
                )
            else:
                self._schedule_delivery(src, destination.node, packet, tx_done)

    def _occupy_uplink(self, src: str, model: LinkModel, size: int) -> float:
        """Reserve the sender's FIFO uplink; returns serialization-done time."""
        free_at = max(self._uplink_free_at.get(src, 0.0), self._sim.now())
        tx_done = free_at + model.serialization_delay(size)
        self._uplink_free_at[src] = tx_done
        return tx_done

    # -- delivery, optimized path --------------------------------------------
    def _schedule_deliveries(
        self, src: str, receivers, packet: Packet, tx_done: float
    ) -> None:
        """Draw per-receiver loss/latency (in receiver order, exactly like
        the per-receiver path) and schedule ONE kernel event per distinct
        arrival instant, delivering to that instant's receivers in order.
        Relative delivery order is unchanged: same-arrival deliveries kept
        their receiver order before (heap ties break by insertion seq).

        The draws are :meth:`LinkModel.drops` and
        :meth:`LinkModel.propagation_delay` inlined, consuming the link's
        stream exactly as they do: no loss draw when ``loss`` is 0 or 1,
        one jitter draw even when ``jitter`` is 0, and the float expression
        of ``random.uniform``."""
        nics = self._nics
        pairs = self._pair_cache
        by_arrival: Dict[float, List[str]] = {}
        for dst in receivers:
            if dst not in nics:
                # Unknown destination: silently dropped, like a LAN.
                self.stats.drops_down.add(packet.size)
                continue
            if src == dst:
                # Local loopback: no propagation delay or loss.
                arrival = tx_done
            else:
                pair = pairs.get((src, dst))
                model, gen = pair if pair is not None else self._pair(src, dst)
                loss = model.loss
                if loss > 0.0 and (loss >= 1.0 or gen.random() < loss):
                    self.stats.drops_loss.add(packet.size)
                    continue
                lo = -model.jitter
                delay = model.latency + (lo + (model.jitter - lo) * gen.random())
                arrival = tx_done + (delay if delay > 0.0 else 0.0)
            group = by_arrival.get(arrival)
            if group is None:
                by_arrival[arrival] = [dst]
            else:
                group.append(dst)
        schedule_fire = self._sim.schedule_fire
        deliver_group = self._deliver_group
        for arrival, group in by_arrival.items():
            schedule_fire(arrival, deliver_group, (group, packet, arrival))

    def _deliver_group(self, delivery: Tuple[List[str], Packet, float]) -> None:
        """Deliver one same-instant group of :meth:`_schedule_deliveries`:
        ``delivery`` is ``(receivers, packet, arrival)``, and ``arrival`` is
        the kernel's time when it runs. The delivery counters are updated in
        place and each NIC's receiver is called directly."""
        group, packet, arrival = delivery
        nics = self._nics
        stats = self.stats
        by_node = stats.deliveries_by_node
        total = stats.deliveries
        size = len(packet.payload) + WIRE_OVERHEAD_BYTES
        delivered: Optional[Packet] = None
        for dst in group:
            nic = nics.get(dst)
            if nic is None or not nic.up:
                stats.drops_down.add(size)
                continue
            if delivered is None:
                # One Packet object serves the whole same-instant group:
                # every field is identical and payload bytes are
                # immutable, so receivers cannot tell copies apart.
                delivered = Packet(
                    packet.source,
                    packet.destination,
                    packet.payload,
                    packet.sent_at,
                    arrival,
                )
            total.packets += 1
            total.bytes += size
            node = by_node[dst]
            node.packets += 1
            node.bytes += size
            if self._trace is not None:
                self._trace.append(delivered)
            receiver = nic._receiver
            if receiver is not None:
                receiver(delivered)

    # -- delivery, reference path ---------------------------------------------
    def _schedule_delivery(self, src: str, dst: str, packet: Packet, tx_done: float) -> None:
        if dst not in self._nics:
            # Unknown destination: silently dropped, like a LAN.
            self.stats.drops_down.add(packet.size)
            return
        if src == dst:
            # Local loopback: no propagation delay or loss.
            arrival = tx_done
        else:
            model = self.link_for(src, dst)
            rng = self._link_rng(src, dst)
            if model.drops(rng):
                self.stats.drops_loss.add(packet.size)
                return
            arrival = tx_done + model.propagation_delay(rng)

        def deliver() -> None:
            nic = self._nics.get(dst)
            if nic is None or not nic.up:
                self.stats.drops_down.add(packet.size)
                return
            delivered = Packet(
                source=packet.source,
                destination=packet.destination,
                payload=packet.payload,
                sent_at=packet.sent_at,
                delivered_at=self._sim.now(),
            )
            self.stats.record_delivery(dst, delivered.size)
            if self._trace is not None:
                self._trace.append(delivered)
            nic._deliver(delivered)

        self._sim.schedule_at(arrival, deliver)


__all__ = ["SimNetwork", "SimNic", "Receiver"]
