"""Priority bands: the one kind → band table.

Egress shaping queues by band, admission budgets by band and ingress
scheduling drains by band; all three classify a frame here, so ingress and
egress agree on what a band is.
"""

from __future__ import annotations

from typing import Dict

from repro.protocol.frames import MessageKind

#: Frame kind → priority band (lower = more urgent). Mirrors the
#: scheduler's per-primitive priorities (§6).
BANDS: Dict[MessageKind, int] = {
    # Control plane: failure detection must never starve.
    MessageKind.ANNOUNCE: 0,
    MessageKind.HEARTBEAT: 0,
    MessageKind.BYE: 0,
    # Zone summaries *are* the control plane at fleet scale — they carry
    # the liveness everyone else times out against.
    MessageKind.ZONE_SUMMARY: 0,
    MessageKind.ACK: 0,
    # No container sends a NACK; an old peer's rides the band of the ACKs.
    MessageKind.NACK: 0,
    # Events are the latency-critical class (§4.2).
    MessageKind.EVENT: 1,
    MessageKind.EVENT_SUBSCRIBE: 1,
    # Variables are fresh-or-worthless.
    MessageKind.VAR_SAMPLE: 2,
    MessageKind.VAR_INITIAL_REQUEST: 2,
    MessageKind.VAR_INITIAL_RESPONSE: 2,
    # Invocations can queue briefly.
    MessageKind.RPC_REQUEST: 3,
    MessageKind.RPC_RESPONSE: 3,
    MessageKind.STREAM_SYN: 3,
    MessageKind.STREAM_SYNACK: 3,
    MessageKind.STREAM_SEGMENT: 3,
    MessageKind.STREAM_ACK: 3,
    # Bulk transfer is background work.
    MessageKind.FILE_ANNOUNCE: 4,
    MessageKind.FILE_SUBSCRIBE: 4,
    MessageKind.FILE_CHUNK: 4,
    MessageKind.FILE_STATUS_REQUEST: 4,
    MessageKind.FILE_COMPLETION_ACK: 4,
    MessageKind.FILE_COMPLETION_NACK: 4,
    MessageKind.FRAGMENT: 3,
    # A batch inherits the band it was accumulated under; this entry is
    # only the fallback for batches injected from outside the batcher.
    MessageKind.BATCH: 1,
}
#: How many bands there are, and the band of a kind :data:`BANDS` lacks.
NUM_BANDS = 5
FALLBACK_BAND = NUM_BANDS - 1


def band_of(kind: MessageKind) -> int:
    """The priority band of ``kind``."""
    return BANDS.get(kind, FALLBACK_BAND)


__all__ = ["BANDS", "NUM_BANDS", "FALLBACK_BAND", "band_of"]
