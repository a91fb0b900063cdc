"""The paper's physical topology: fast on-board LAN + slow lossy radio to
the ground segment. Checks the middleware behaves sensibly across both."""

import sys
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import ProbeService

from repro import SimRuntime
from repro.encoding.types import STRING
from repro.simnet.models import RADIO_LINK, LinkModel


def make_topology(seed=15, **extra_config):
    """fcs + payload on the airframe LAN; ground behind a radio link."""
    lan = LinkModel(latency=0.0005, jitter=0.0001, loss=0.0,
                    bandwidth_bps=100_000_000.0)
    runtime = SimRuntime(seed=seed, default_link=lan)
    kw = dict(liveness_timeout=3.0, heartbeat_interval=0.5, **extra_config)
    fcs = runtime.add_container("fcs", **kw)
    payload = runtime.add_container("payload", **kw)
    ground = runtime.add_container("ground", **kw)
    for airborne in ("fcs", "payload"):
        runtime.network.set_link(airborne, "ground", RADIO_LINK)
    return runtime, fcs, payload, ground


class TestHeterogeneousTopology:
    def test_onboard_events_fast_ground_events_slower(self):
        runtime, fcs, payload, ground = make_topology()
        pub = ProbeService("pub", lambda s: setattr(
            s, "handle", s.ctx.provide_event("het.evt", STRING)
        ))
        onboard = []
        remote = []
        sub_payload = ProbeService("sub-p", lambda s: s.ctx.subscribe_event(
            "het.evt", lambda v, t: onboard.append(s.ctx.now() - t)
        ))
        sub_ground = ProbeService("sub-g", lambda s: s.ctx.subscribe_event(
            "het.evt", lambda v, t: remote.append(s.ctx.now() - t)
        ))
        fcs.install_service(pub)
        payload.install_service(sub_payload)
        ground.install_service(sub_ground)
        runtime.start()
        runtime.run_for(4.0)
        for i in range(30):
            pub.handle.raise_event(f"e{i}")
            runtime.run_for(0.1)
        runtime.run_for(10.0)
        # Guaranteed delivery on both paths, lossy radio included.
        assert len(onboard) == 30
        assert len(remote) == 30
        # The radio hop dominates the ground latency.
        onboard_mean = sum(onboard) / len(onboard)
        remote_mean = sum(remote) / len(remote)
        assert onboard_mean < 0.005
        assert remote_mean > onboard_mean * 5

    def test_radio_bandwidth_limits_unicast_throughput(self):
        # Unicast transfer mode, so each copy serializes at its own link's
        # rate (multicast would share the on-board medium).
        runtime, fcs, payload, ground = make_topology(file_multicast=False)
        runtime.start()
        runtime.run_for(2.0)
        # 50 KiB over the 1 Mbit/s radio as a file transfer takes ~0.4 s+;
        # the same transfer to the on-board peer is far faster.
        data = bytes(1024) * 50
        times = {}
        for target_name, container in (("payload", payload), ("ground", ground)):
            done = {}
            container.files.subscribe(
                f"het.file.{target_name}",
                on_complete=lambda d, r, t=target_name: done.setdefault("t", runtime.sim.now()),
                service="probe",
            )
            start = runtime.sim.now()
            fcs.files.publish(f"het.file.{target_name}", data, service="probe")
            assert runtime.run_until(lambda: "t" in done, timeout=120.0)
            times[target_name] = done["t"] - start
        assert times["payload"] < times["ground"]
        # ~400 kbit payload over a 1 Mbit/s link: at least 0.3 s.
        assert times["ground"] > 0.3

    def test_mission_works_with_ground_behind_radio(self):
        from repro.flight import GeoPoint, KinematicUav, survey_plan
        from repro.services.camera import CameraService
        from repro.services.gps import GpsService
        from repro.services.ground import GroundStationService
        from repro.services.mission import MissionControlService
        from repro.services.storage import StorageService
        from repro.services.videoproc import VideoProcessingService

        runtime, fcs, payload, ground = make_topology()
        plan = survey_plan(GeoPoint(41.275, 1.985), rows=1, row_length_m=500,
                           photos_per_row=1)
        mc = MissionControlService(plan)
        gs = GroundStationService()
        fcs.install_service(GpsService(KinematicUav(plan)))
        fcs.install_service(mc)
        payload.install_service(CameraService())
        payload.install_service(StorageService())
        payload.install_service(VideoProcessingService())
        ground.install_service(gs)
        runtime.start()
        assert runtime.run_until(lambda: mc.complete, timeout=300.0)
        runtime.run_for(5.0)
        # The GS still observed the mission despite the lossy radio:
        # variables best-effort (most arrive), events guaranteed.
        assert gs.positions_received > 30
        assert gs.mission_completed
