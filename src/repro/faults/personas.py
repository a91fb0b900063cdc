"""Attacker personas: adversarial traffic sources for chaos campaigns.

Where :class:`~repro.faults.inject.FaultInjector` breaks the *network*
(loss, partitions, crashes), a persona breaks the *protocol contract*: it
attaches its own NIC to the simulated LAN — it is not a container, runs no
services and obeys no middleware rules — and speaks just enough of the wire
format to abuse a victim:

- :class:`Flooder` joins the domain politely (forged ANNOUNCE/HEARTBEAT so
  the victim's directory knows its address), then firehoses well-formed
  reliable-channel frames. Every admitted frame costs the victim an ACK on
  the control band plus dispatch work — the amplification the ingress
  token buckets exist to deny.
- :class:`MaliciousNacker` forges NACKs that *claim to come from a
  legitimate peer*, asking the victim to retransmit its in-flight frames.
  No container sends a NACK, so the victim counts each one on receipt and
  ignores it: the request for work that would amplify has no handler.
- :class:`ReplayInjector` re-sends ancient sequence numbers under a
  legitimate peer's identity. An unhardened receiver re-ACKs every
  duplicate; the replay window drops them unacknowledged.
- :class:`GarbageFrameInjector` alternates undecodable byte blobs with
  well-formed frames carrying garbage payloads, exercising every decoder
  rejection path; the quarantine scorer is its counterpart.

Personas are deterministic: all randomness comes from a fork of the
experiment seed, all timing from the virtual clock, so an attack replays
bit-identically. They compose with :class:`~repro.faults.chaos.ChaosCampaign`
via its ``personas`` argument, which draws their attack windows from the
campaign seed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.container.records import encode_announce, encode_heartbeat
from repro.protocol.frames import Frame, FrameFlags, MessageKind
from repro.protocol.reliability import encode_ack
from repro.runtime.simruntime import SimRuntime
from repro.transport.addressing import Address
from repro.transport.sim import SimTransport
from repro.util.rng import SeededRng

#: Port the attacker NIC binds — any value distinct from CONTAINER_PORT.
ATTACKER_PORT = 47666


class AttackerPersona:
    """Base: one adversarial traffic source aimed at one victim container.

    Parameters
    ----------
    runtime:
        The experiment under attack.
    target:
        Victim container id; frames are unicast at its node/port.
    identity:
        Source id stamped into (non-spoofed) frames; also the node name the
        attacker NIC attaches under.
    start / duration:
        Attack window in virtual seconds (overridden by a campaign draw
        when scheduled through :class:`~repro.faults.chaos.ChaosCampaign`).
    rate:
        Frames per second, sent in bursts of ``burst`` per tick.
    rng:
        Deterministic stream; defaults to a fork of the experiment seed
        keyed by persona name and target.
    """

    name = "attacker"

    def __init__(
        self,
        runtime: SimRuntime,
        target: str,
        identity: Optional[str] = None,
        start: float = 1.0,
        duration: float = 5.0,
        rate: float = 2000.0,
        burst: int = 8,
        rng: Optional[SeededRng] = None,
    ):
        if burst < 1 or rate <= 0:
            raise ValueError("persona rate/burst must be positive")
        self.runtime = runtime
        self.target = target
        self.identity = identity or f"mal-{self.name}"
        self.start = start
        self.duration = duration
        self.rate = rate
        self.burst = burst
        self.rng = rng or runtime.rng.fork(f"persona:{self.name}:{target}")
        self.frames_sent = 0
        self.bytes_sent = 0
        self._interval = burst / rate
        self._end = 0.0
        self._launched = False
        self._transport = SimTransport(runtime.network, self.identity)
        # Attackers ignore everything sent back at them.
        self._transport.open(ATTACKER_PORT, lambda payload, source: None)

    # -- scheduling ------------------------------------------------------------
    def launch(self) -> None:
        """Arm the attack window on the virtual clock; idempotent."""
        if self._launched:
            return
        self._launched = True
        self._end = self.start + self.duration
        self.runtime.sim.schedule(
            max(0.0, self.start - self.runtime.sim.now()), self._tick
        )

    def _tick(self) -> None:
        if self.runtime.sim.now() >= self._end:
            return
        self.fire()
        self.runtime.sim.schedule(self._interval, self._tick)

    # -- plumbing --------------------------------------------------------------
    @property
    def victim_address(self) -> Address:
        victim = self.runtime.container(self.target)
        return Address(victim.config.node, victim.config.port)

    def emit(self, frame: Frame) -> None:
        payload = frame.encode()
        self._transport.send_bytes(self.victim_address, payload)
        self.frames_sent += 1
        self.bytes_sent += len(payload)

    def emit_raw(self, payload: bytes) -> None:
        self._transport.send_bytes(self.victim_address, payload)
        self.frames_sent += 1
        self.bytes_sent += len(payload)

    def fire(self) -> None:
        """One burst of adversarial traffic; subclasses implement."""
        raise NotImplementedError

    def describe(self) -> str:
        return (
            f"{self.name} -> {self.target} "
            f"[{self.start:.2f}s..{self._end or self.start + self.duration:.2f}s] "
            f"@ {self.rate:.0f}/s"
        )


class Flooder(AttackerPersona):
    """Volumetric flood of well-formed reliable-channel frames.

    Joins the directory first (forged ANNOUNCE, refreshed HEARTBEATs) so
    the victim can route ACKs back — which is precisely the amplification:
    undefended, every flood frame buys one band-0 ACK plus dispatch work.
    """

    name = "flooder"
    #: Directory beacons (announce/heartbeat) refresh this often so the
    #: victim keeps believing the attacker is alive.
    BEACON_INTERVAL = 0.25

    def __init__(self, *args, kind: MessageKind = MessageKind.EVENT, **kwargs):
        super().__init__(*args, **kwargs)
        self.kind = kind
        self._seq = 0
        self._last_beacon = -1.0

    def _beacon_frames(self) -> List[Frame]:
        doc = {
            "container": self.identity,
            "node": self.identity,
            "port": ATTACKER_PORT,
            "incarnation": 1,
            "services": [],
            "failed_services": [],
            "variables": [],
            "events": [],
            "functions": [],
            "files": [],
        }
        hb = {
            "container": self.identity,
            "node": self.identity,
            "port": ATTACKER_PORT,
            "incarnation": 1,
            "load": 0,
            "restarts": 0,
        }
        return [
            Frame(
                kind=MessageKind.ANNOUNCE,
                source=self.identity,
                payload=encode_announce(doc),
            ),
            Frame(
                kind=MessageKind.HEARTBEAT,
                source=self.identity,
                payload=encode_heartbeat(hb),
            ),
        ]

    def fire(self) -> None:
        now = self.runtime.sim.now()
        if now - self._last_beacon >= self.BEACON_INTERVAL:
            self._last_beacon = now
            for frame in self._beacon_frames():
                self.emit(frame)
        from repro.container.links import RELIABLE_CHANNEL

        for _ in range(self.burst):
            self._seq += 1
            self.emit(
                Frame(
                    kind=self.kind,
                    source=self.identity,
                    payload=self.rng.bytes(8),
                    channel=RELIABLE_CHANNEL,
                    seq=self._seq,
                    flags=int(FrameFlags.RELIABLE),
                )
            )


class MaliciousNacker(AttackerPersona):
    """Forged NACKs under a legitimate peer's identity.

    ``spoof`` is the peer whose reliable stream *from the victim* gets
    poked: each NACK asks the victim to retransmit a random slice of its
    in-flight window to that peer, in the selective-ack payload. The
    victim counts it and retransmits nothing.
    """

    name = "nacker"

    def __init__(self, *args, spoof: str, seq_span: int = 256, **kwargs):
        super().__init__(*args, **kwargs)
        self.spoof = spoof
        self.seq_span = seq_span

    def fire(self) -> None:
        from repro.container.links import RELIABLE_CHANNEL

        for _ in range(self.burst):
            base = self.rng.randint(1, self.seq_span)
            seqs = list(range(base, base + self.rng.randint(4, 16)))
            self.emit(
                Frame(
                    kind=MessageKind.NACK,
                    source=self.spoof,
                    payload=encode_ack(seqs),
                    channel=RELIABLE_CHANNEL,
                )
            )


class ReplayInjector(AttackerPersona):
    """Replays ancient sequence numbers under a legitimate peer's identity.

    Each replayed duplicate makes an unhardened receiver emit a fresh ACK —
    free control-band amplification off a captured frame. The replay window
    (drop without re-ACK) and the duplicate-ACK budget are the defenses.
    """

    name = "replayer"

    def __init__(
        self,
        *args,
        spoof: str,
        kind: MessageKind = MessageKind.EVENT,
        seq_span: int = 64,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.spoof = spoof
        self.kind = kind
        self.seq_span = seq_span

    def fire(self) -> None:
        from repro.container.links import RELIABLE_CHANNEL

        for _ in range(self.burst):
            self.emit(
                Frame(
                    kind=self.kind,
                    source=self.spoof,
                    payload=b"replayed",
                    channel=RELIABLE_CHANNEL,
                    seq=self.rng.randint(1, self.seq_span),
                    flags=int(FrameFlags.RELIABLE) | int(FrameFlags.RETRANSMIT),
                )
            )


class GarbageFrameInjector(AttackerPersona):
    """Hostile bytes: undecodable datagrams and garbage-payload frames.

    Exercises both decode-rejection tiers: datagrams that fail
    ``Frame.decode`` (attributed to the *network address* — the source id
    is unreadable) and well-formed frames whose payload fails the primitive
    decoders (attributed to the forged source id). Both feed quarantine
    scoring; neither may crash ingress.
    """

    name = "garbler"

    def fire(self) -> None:
        for _ in range(self.burst):
            if self.rng.random() < 0.5:
                self.emit_raw(self.rng.bytes(self.rng.randint(1, 64)))
            else:
                kind = self.rng.choice(
                    [
                        MessageKind.ANNOUNCE,
                        MessageKind.HEARTBEAT,
                        MessageKind.VAR_SAMPLE,
                        MessageKind.EVENT,
                        MessageKind.RPC_REQUEST,
                        MessageKind.ACK,
                    ]
                )
                self.emit(
                    Frame(
                        kind=kind,
                        source=self.identity,
                        payload=self.rng.bytes(self.rng.randint(1, 32)),
                    )
                )


PERSONAS = {
    "flooder": Flooder,
    "nacker": MaliciousNacker,
    "replayer": ReplayInjector,
    "garbler": GarbageFrameInjector,
}

__all__ = [
    "AttackerPersona",
    "Flooder",
    "MaliciousNacker",
    "ReplayInjector",
    "GarbageFrameInjector",
    "PERSONAS",
    "ATTACKER_PORT",
]
