"""Name management: the container's directory of remote providers.

"The services are addressed by name, and the Service Container discovers the
real location in the network of the named service. … In case of service
malfunctioning, it is also the container responsibility to notify the other
containers in the domain and to choose another provider service if it is
available. In this way, the containers are able to clear and update their
caches." (§3)

The directory is fed by ANNOUNCE/HEARTBEAT/BYE frames and a periodic
liveness sweep; it raises callbacks when providers appear, disappear or
change incarnation, which the primitive managers use to rebind.

Fleet-scale additions (each inert unless used):

- An **L1 lookup cache**: ``live_containers`` and the ``providers_of_*``
  queries are answered from cached lists invalidated on every directory
  mutation, so the hot publish path stops re-sorting N records per send.
- **One Peer per container id** (:class:`~repro.protocol.peers.Peers`),
  made at first use: a record (live or dead) or a summary route makes it
  known, anyone else is a stranger. :meth:`route` resolves its address as
  :meth:`address_of` would, held until the revision moves.
- **Zone summaries**: compact digests of other federation zones, applied by
  the fleet coordinator and held in wire form — ``(origin, version, member
  bytes)`` per zone; :meth:`address_of` falls back to summary addresses for
  containers outside the local zone, decoding the held members into an
  address index on the first such lookup.
- ``strict_liveness_reads``: when set, reads never return a record whose
  heartbeat is older than the liveness timeout, even if the housekeeping
  sweep has not run yet. Off by default — the seed trusts the sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.container.gossip import decode_summary_members
from repro.container.records import ContainerRecord
from repro.protocol.peers import Peer, Peers
from repro.simnet.addressing import Address
from repro.util.clock import Clock

ContainerCallback = Callable[[ContainerRecord], None]


class Directory(Peers):
    """The proxy cache of remote containers and their offered names, and
    the owner of the one :class:`Peer` per container id."""

    def __init__(
        self,
        clock: Clock,
        local_container: str,
        liveness_timeout: float,
        strict_liveness_reads: bool = False,
    ):
        super().__init__()
        self._clock = clock
        self._local = local_container
        self._liveness_timeout = liveness_timeout
        self._strict_reads = strict_liveness_reads
        self._records: Dict[str, ContainerRecord] = {}
        #: L1 cache: sorted live records, or None when dirty.
        self._live_cache: Optional[List[ContainerRecord]] = None
        #: L1 cache: ("variables"|"events"|..., name) -> candidate records.
        self._providers_cache: Dict[Tuple[str, str], List[ContainerRecord]] = {}
        #: Federation: zone -> (origin, version, member section) of the latest
        #: applied ZONE_SUMMARY. The members stay encoded; the coordinator
        #: only hands over sections that passed the full decode.
        self._zone_summaries: Dict[str, Tuple[str, int, bytes]] = {}
        #: Container -> address over the live members of every held summary
        #: (containers without full records). None until a cross-zone lookup
        #: asks for it, and again after any zone's membership changes.
        self._summary_index: Optional[Dict[str, Address]] = None
        self._on_up: List[ContainerCallback] = []
        self._on_down: List[ContainerCallback] = []
        self._on_change: List[ContainerCallback] = []
        self._on_restart: List[ContainerCallback] = []
        #: Bumped on every topology/offer change (a record, an address, a
        #: summary route); readers (the primitive managers' datatype caches,
        #: each routed :class:`Peer`) compare it to know their derived state
        #: is still valid without re-walking records.
        self.revision = 0

    # -- callback registration ------------------------------------------------
    def on_container_up(self, callback: ContainerCallback) -> None:
        """Fires when a container is first seen or returns from the dead."""
        self._on_up.append(callback)

    def on_container_down(self, callback: ContainerCallback) -> None:
        """Fires on BYE or liveness timeout — the cache-clear trigger."""
        self._on_down.append(callback)

    def on_offers_changed(self, callback: ContainerCallback) -> None:
        """Fires when a live container's announce changes its offer set."""
        self._on_change.append(callback)

    def on_container_restart(self, callback: ContainerCallback) -> None:
        """Fires when a container re-announces with a new incarnation —
        reliable-stream state for it must be reset."""
        self._on_restart.append(callback)

    # -- control-plane input ----------------------------------------------------
    def handle_announce(self, doc: dict) -> Optional[ContainerRecord]:
        """Ingest an ANNOUNCE document. Returns the (new) record, or None if
        it was our own announce."""
        if doc["container"] == self._local:
            return None
        now = self._clock.now()
        fresh = ContainerRecord.from_announce(doc, now)
        old = self._records.get(fresh.container)
        self._records[fresh.container] = fresh
        # The record object is replaced wholesale even when nothing changed,
        # so cached lists would silently go stale: always invalidate.
        self._invalidate()
        self.promote(fresh.container)
        if old is None or not old.alive:
            self._notify(self._on_up, fresh)
        elif old.incarnation != fresh.incarnation:
            self._notify(self._on_restart, fresh)
            self._notify(self._on_change, fresh)
        elif self._offers_differ(old, fresh):
            self._notify(self._on_change, fresh)
        if old is not None and old.incarnation == fresh.incarnation:
            fresh.load = old.load
            fresh.restarts = old.restarts
        return fresh

    def handle_heartbeat(self, doc: dict) -> None:
        if doc["container"] == self._local:
            return
        record = self._records.get(doc["container"])
        now = self._clock.now()
        if (
            record is not None
            and record.said_bye
            and doc["incarnation"] == record.incarnation
        ):
            # A stale heartbeat that was in flight when the container said
            # BYE; only a fresh announce or a new incarnation revives it.
            return
        if record is None or not record.alive:
            # Heartbeat from an unknown/dead container: we missed or dropped
            # its announce. Record a minimal entry; the next periodic
            # announce will fill in the offers.
            record = ContainerRecord(
                container=doc["container"],
                address=Address(doc["node"], doc["port"]),
                incarnation=doc["incarnation"],
                last_seen=now,
            )
            self._records[doc["container"]] = record
            self.promote(record.container)
            self._invalidate()
            self._notify(self._on_up, record)
            record.load = doc["load"]
            record.restarts = doc.get("restarts", 0)
            return
        if doc["incarnation"] != record.incarnation:
            # Restarted before we saw the new announce.
            record.incarnation = doc["incarnation"]
            new_address = Address(doc["node"], doc["port"])
            if record.address != new_address:
                record.address = new_address
                self.revision += 1
            self._notify(self._on_restart, record)
        record.last_seen = now
        record.load = doc["load"]
        record.restarts = doc.get("restarts", record.restarts)

    def handle_bye(self, container: str) -> None:
        record = self._records.get(container)
        if record is not None and record.alive:
            record.alive = False
            record.said_bye = True
            self._invalidate()
            self._notify(self._on_down, record)

    def check_liveness(self) -> List[ContainerRecord]:
        """Mark containers dead that missed their heartbeats; returns them.

        Call periodically (the container's housekeeping timer does).
        """
        now = self._clock.now()
        newly_dead = []
        for record in self._records.values():
            if record.alive and now - record.last_seen > self._liveness_timeout:
                record.alive = False
                newly_dead.append(record)
        if newly_dead:
            self._invalidate()
        for record in newly_dead:
            self._notify(self._on_down, record)
        return newly_dead

    # -- zone summaries (federation) -------------------------------------------
    def apply_zone_summary(
        self, zone: str, origin: str, version: int, members: bytes
    ) -> bool:
        """Apply a ZONE_SUMMARY digest of a foreign zone, given as its peeked
        header fields and its encoded member section (which the caller has
        validated). Returns True when it superseded the current view of that
        zone.

        Versions are monotonic per publisher; between publishers of the same
        zone the (version, origin) pair orders deterministically.
        """
        held = self._zone_summaries.get(zone)
        if held is not None:
            held_origin, held_version, held_members = held
            if (version, origin) <= (held_version, held_origin):
                return False
        if held is None or held_members != members:
            self._summary_index = None
            self.revision += 1
        else:
            # Canonical encoding: equal bytes are equal membership, so this is
            # a periodic refresh. The newer version becomes visible; the
            # address index and the one copy of the bytes stay.
            members = held_members
        self._zone_summaries[zone] = (origin, version, members)
        return True

    def summary_members(self, zone: str) -> Optional[bytes]:
        """The encoded member section held for ``zone``, if any."""
        held = self._zone_summaries.get(zone)
        return None if held is None else held[2]

    @property
    def zone_summaries(self) -> Dict[str, dict]:
        """Latest applied summary per foreign zone, decoded on demand into
        fresh documents (an inspection read, not a hot path)."""
        return {
            zone: {
                "zone": zone,
                "origin": origin,
                "version": version,
                "members": decode_summary_members(members),
            }
            for zone, (origin, version, members) in self._zone_summaries.items()
        }

    def known_zones(self) -> List[str]:
        return sorted(self._zone_summaries)

    def summary_address_of(self, container: str) -> Optional[Address]:
        """Address learned from a zone summary (no full record held)."""
        index = self._summary_index
        if index is None:
            index = self._summary_index = {
                member["container"]: Address(member["node"], member["port"])
                for _origin, _version, members in self._zone_summaries.values()
                for member in decode_summary_members(members)
                if member["alive"] and member["container"] != self._local
            }
        return index.get(container)

    # -- queries -------------------------------------------------------------
    def record(self, container: str) -> Optional[ContainerRecord]:
        return self._records.get(container)

    def knows(self, container: str) -> bool:
        """Whether ``container`` has a record here, live or dead, or a route
        through a zone summary."""
        return (
            container in self._records
            or self.summary_address_of(container) is not None
        )

    def all_records(self) -> Iterable[ContainerRecord]:
        """Every held record, live or dead (summary publication walks this)."""
        return self._records.values()

    def address_of(self, container: str) -> Optional[Address]:
        return self._address(container)

    def route(self, peer: Peer) -> Optional[Address]:
        """Resolve ``peer.address`` as :meth:`address_of` would, stamped
        with the revision it holds for (under strict reads, none)."""
        peer.address = address = self._address(peer.id)
        peer.routed = -1 if self._strict_reads else self.revision
        return address

    def live_containers(self) -> List[ContainerRecord]:
        """All live records, sorted by container id.

        The order is deterministic by construction — peer sampling, provider
        binding and test assertions all rely on it.
        """
        cache = self._live_cache
        if cache is None:
            cache = self._live_cache = sorted(
                (r for r in self._records.values() if r.alive),
                key=lambda r: r.container,
            )
        if not self._strict_reads:
            return list(cache)
        return [r for r in cache if not self._is_stale(r)]

    def providers_of_variable(self, name: str) -> List[ContainerRecord]:
        return self._providers("variables", name)

    def providers_of_event(self, name: str) -> List[ContainerRecord]:
        return self._providers("events", name)

    def providers_of_function(self, name: str) -> List[ContainerRecord]:
        return self._providers("functions", name)

    def providers_of_file(self, name: str) -> List[ContainerRecord]:
        return self._providers("files", name)

    # -- internals -----------------------------------------------------------
    def _providers(self, offer_kind: str, name: str) -> List[ContainerRecord]:
        key = (offer_kind, name)
        cached = self._providers_cache.get(key)
        if cached is None:
            live = self._live_cache
            if live is None:
                live = self._live_cache = sorted(
                    (r for r in self._records.values() if r.alive),
                    key=lambda r: r.container,
                )
            cached = [r for r in live if name in getattr(r, offer_kind)]
            self._providers_cache[key] = cached
        if not self._strict_reads:
            return list(cached)
        return [r for r in cached if not self._is_stale(r)]

    def _address(self, container: str) -> Optional[Address]:
        record = self._records.get(container)
        if record is None:
            # Outside our zone? Summaries still give us a route (UAV → relay
            # → ground addressing without full records).
            return self.summary_address_of(container)
        if not record.alive:
            return None
        if self._strict_reads and self._is_stale(record):
            return None
        return record.address

    def _is_stale(self, record: ContainerRecord) -> bool:
        return self._clock.now() - record.last_seen > self._liveness_timeout

    def _invalidate(self) -> None:
        self._live_cache = None
        self._providers_cache.clear()
        self.revision += 1

    @staticmethod
    def _offers_differ(a: ContainerRecord, b: ContainerRecord) -> bool:
        return (
            a.variables != b.variables
            or a.events != b.events
            or a.functions != b.functions
            or a.files != b.files
            or a.services != b.services
            or a.failed_services != b.failed_services
            or a.address != b.address
        )

    def _notify(self, callbacks: List[ContainerCallback], record: ContainerRecord) -> None:
        for callback in list(callbacks):
            callback(record)


__all__ = ["Directory"]
