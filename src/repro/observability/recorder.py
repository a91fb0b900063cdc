"""The flight recorder: a bounded ring of recent container activity.

Every container keeps the last ``capacity`` entries — frames sent and
received, service lifecycle transitions, escalations and emergencies — so
that when a chaos campaign trips an invariant the investigator gets the
moments *before* the violation, not just the verdict. Dumps are plain
dicts (JSON-serializable by construction) ordered oldest-first.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Sequence

from repro.util.clock import Clock


#: Entries every container's ring retains.
FLIGHT_RECORDER_CAPACITY = 256


def _shape(entry: tuple) -> Dict[str, object]:
    """One raw ring entry as the dict a dump carries; the entry's length
    tells the three stored forms apart."""
    if len(entry) == 6:
        t, category, kind, source, seq, nbytes = entry
        return {"t": t, "category": category, "kind": kind, "source": source,
                "seq": seq, "bytes": nbytes}
    if len(entry) == 5:
        t, category, kind, seq, nbytes = entry
        return {"t": t, "category": category, "kind": kind, "seq": seq,
                "bytes": nbytes}
    t, category, fields = entry
    return {"t": t, "category": category, **fields}


class FlightRecorder:
    """Fixed-capacity ring buffer of timestamped entries."""

    def __init__(self, clock: Clock, capacity: int = FLIGHT_RECORDER_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        # Entries are stored raw and shaped into dicts at dump time. The
        # per-frame path (record_rx / record_tx) appends one flat tuple —
        # no keyword dict per frame; everything else is rare and keeps its
        # fields as given: (t, category, fields).
        self._entries: Deque[tuple] = deque(maxlen=capacity)
        #: Entries recorded over the whole run (the ring only keeps the tail).
        self.recorded = 0

    def record(self, category: str, **fields: object) -> None:
        self.recorded += 1
        self._entries.append((self._clock.now(), category, fields))

    def record_rx(self, kind: str, frames: List) -> None:
        """One entry per received frame of a run of ``kind`` (the container's
        ingress entries), all stamped with one clock read."""
        t = self._clock.now()
        append = self._entries.append
        for frame in frames:
            append((t, "rx", kind, frame.source, frame.seq, len(frame.payload)))
        self.recorded += len(frames)

    def record_rx_run(self, kind: str, run) -> None:
        """:meth:`record_rx` for a run of frames held in place (a
        :class:`~repro.protocol.batching.SampleRun`): the same entries,
        built from its shared header and its payload bounds."""
        t = self._clock.now()
        source = run.source
        seq = run.seq
        self._entries.extend([
            (t, "rx", kind, source, seq, stop - start)
            for start, stop in zip(run.starts, run.stops)
        ])
        self.recorded += len(run.starts)

    def record_tx(self, kind: str, frames: Sequence) -> None:
        """One entry per sent frame of a run of ``kind`` (the container's
        egress entries), all stamped with one clock read."""
        t = self._clock.now()
        append = self._entries.append
        for frame in frames:
            append((t, "tx", kind, frame.seq, len(frame.payload)))
        self.recorded += len(frames)

    def dump(self) -> List[Dict[str, object]]:
        """The retained entries, oldest first."""
        return [_shape(entry) for entry in self._entries]

    def dump_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "entries": self.dump(),
            },
            indent=indent,
            default=str,
        )

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["FlightRecorder"]
