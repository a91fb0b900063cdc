"""Scale-regression tier (``pytest -m scale``).

Tier-1 proves the fleet mechanisms correct; this tier pins their *shape*:

- kernel work grows near-linearly with container count in a federated
  fleet (doubling the fleet must not super-linearly inflate the event
  count);
- per-container control traffic is bounded by zone size, not fleet size — the O(N²) flat control plane must not creep back in;
- what a container holds and decodes per *foreign zone* stays small: a few
  KB of heap (summaries are kept in wire form), one full summary decode on
  first sight and none for the periodic refreshes. Host time is not
  asserted — CI hosts are too noisy — so the cost curve is pinned as heap
  bytes and decode counts, both deterministic.

Deselected by default (pyproject addopts ``-m "not scale"``); the CI
``scale-smoke`` job runs it with ``REPRO_SCALE_ZONES`` reduced.
"""

import gc
import os
import tracemalloc

import pytest

from repro import SimRuntime
from repro.container import gossip
from repro.container.fleet import FleetConfig

pytestmark = pytest.mark.scale

#: Zone count of the *large* fleet; the small fleet halves it. CI smoke
#: sets REPRO_SCALE_ZONES=6 to bound job time; the default exercises a
#: 240-container fleet.
ZONES = int(os.environ.get("REPRO_SCALE_ZONES", "12"))
ZONE_SIZE = 20  # 1 relay + 19 UAVs

TIMING = dict(
    announce_interval=5.0,
    heartbeat_interval=1.0,
    liveness_timeout=4.0,
    housekeeping_interval=2.0,
)

#: Bootstrap transient excluded from scaling-shape measurements; must
#: cover the one-time first-sight forwarding of zone summaries (a few
#: summary intervals), not just the initial announce spread.
SETTLE = 3.0
MISSION = 10.0


def build_federated(zones, seed=9):
    runtime = SimRuntime(seed=seed, zone_isolation=True)
    for z in range(zones):
        zone = f"z{z}"
        runtime.add_container(
            f"relay-{zone}", fleet=FleetConfig(zone=zone, role="relay"), **TIMING
        )
        for i in range(ZONE_SIZE - 1):
            runtime.add_container(
                f"uav-{zone}-{i:02d}", fleet=FleetConfig(zone=zone), **TIMING
            )
    return runtime


def run_mission(runtime):
    """Returns (runtime, steady-state events executed during the mission)."""
    runtime.start()
    runtime.run_for(SETTLE)
    settled = runtime.sim.events_executed
    runtime.run_for(MISSION)
    return runtime, runtime.sim.events_executed - settled


def per_container_counts(runtime, metric, kind):
    """metric value per container id for one frame kind."""
    return {
        cid: container.metrics.counter_value(metric, kind=kind)
        for cid, container in runtime.containers.items()
    }


class TestNearLinearEventScaling:
    def test_federated_event_count_scales_linearly_with_containers(self):
        small, events_small = run_mission(build_federated(max(2, ZONES // 2)))
        large, events_large = run_mission(build_federated(ZONES))
        n_small = len(small.containers)
        n_large = len(large.containers)
        ratio = events_large / events_small
        population_ratio = n_large / n_small
        # Near-linear: doubling containers may at most double the kernel's
        # steady-state work plus 35% slack (backbone summary refreshes).
        assert ratio <= population_ratio * 1.35, (
            f"{n_small}->{n_large} containers inflated steady events "
            f"{events_small}->{events_large} (x{ratio:.2f}, "
            f"population x{population_ratio:.2f})"
        )
        # And the per-container event cost must be flat-ish, not shrinking
        # the fleet into starvation either.
        assert events_large / n_large >= 0.5 * (events_small / n_small)


class TestBoundedControlTraffic:
    def test_per_container_heartbeat_traffic_is_zone_bounded(self):
        small, _ = run_mission(build_federated(max(2, ZONES // 2)))
        large, _ = run_mission(build_federated(ZONES))
        # Emissions: one per interval per container, independent of N.
        # (Counters span the whole run, settle window included.)
        expected = (SETTLE + MISSION) / TIMING["heartbeat_interval"]
        for runtime in (small, large):
            sent = per_container_counts(runtime, "frames_sent", "HEARTBEAT")
            assert any(sent.values()), "no heartbeat traffic recorded"
            assert max(sent.values()) <= expected + 2
        # Receptions: bounded by zone size, so doubling the fleet must not
        # move the per-container ingest rate.
        rx_small = per_container_counts(small, "frames_received", "HEARTBEAT")
        rx_large = per_container_counts(large, "frames_received", "HEARTBEAT")
        avg_small = sum(rx_small.values()) / len(rx_small)
        avg_large = sum(rx_large.values()) / len(rx_large)
        assert avg_large <= avg_small * 1.25, (
            f"per-container heartbeat ingest grew with fleet size: "
            f"{avg_small:.1f} -> {avg_large:.1f}"
        )
        # Zone bound in absolute terms: a container hears at most its zone.
        assert max(rx_large.values()) <= expected * ZONE_SIZE


class TestForeignZoneCostIsFlat:
    def test_per_container_heap_grows_by_a_few_kb_per_foreign_zone(self):
        def heap_per_container(zones):
            gc.collect()
            tracemalloc.start()
            try:
                runtime, _ = run_mission(build_federated(zones))
                gc.collect()
                traced, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return traced / len(runtime.containers)

        small_zones = max(2, ZONES // 2)
        small = heap_per_container(small_zones)
        large = heap_per_container(ZONES)
        per_zone = (large - small) / (ZONES - small_zones)
        # Decoded member dicts plus an eager address table cost 10.3 KB per
        # foreign zone; the encoded member section and its bookkeeping 1.6.
        assert per_zone <= 3 * 1024, (
            f"per-container heap {small / 1024:.0f} -> {large / 1024:.0f} KB from "
            f"{small_zones} to {ZONES} zones: {per_zone / 1024:.1f} KB per foreign zone"
        )

    def test_summaries_are_decoded_once_per_foreign_zone_and_refreshes_never(
        self, monkeypatch
    ):
        decodes = []
        decode = gossip.decode_zone_summary
        monkeypatch.setattr(
            gossip,
            "decode_zone_summary",
            lambda payload: decodes.append(None) or decode(payload),
        )
        runtime = build_federated(ZONES)
        runtime.start()
        runtime.run_for(SETTLE)
        # One first sight per (container, foreign zone) — relays off the
        # backbone, everyone else off their relay's one forward.
        assert len(decodes) == len(runtime.containers) * (ZONES - 1)
        del decodes[:]
        runtime.run_for(MISSION)
        # No membership changes after the settle: every backbone refresh is
        # byte-equal to the copy held and is dropped or version-bumped
        # without decoding a member.
        assert len(decodes) == 0
        for container in runtime.containers.values():
            assert len(container.directory.known_zones()) == ZONES - 1
