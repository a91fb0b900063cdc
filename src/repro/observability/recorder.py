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
from typing import Deque, Dict, List

from repro.util.clock import Clock


#: Entries every container's ring retains.
FLIGHT_RECORDER_CAPACITY = 256


class FlightRecorder:
    """Fixed-capacity ring buffer of timestamped entries."""

    def __init__(self, clock: Clock, capacity: int = FLIGHT_RECORDER_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        # Entries are stored raw as (t, category, fields) and shaped into
        # dicts at dump time: record() sits on the per-frame tx/rx path, so
        # the steady-state cost is one tuple and one deque append.
        self._entries: Deque[tuple] = deque(maxlen=capacity)
        #: Entries recorded over the whole run (the ring only keeps the tail).
        self.recorded = 0

    def record(self, category: str, **fields: object) -> None:
        self.recorded += 1
        self._entries.append((self._clock.now(), category, fields))

    def dump(self) -> List[Dict[str, object]]:
        """The retained entries, oldest first."""
        return [
            {"t": t, "category": category, **fields}
            for t, category, fields in self._entries
        ]

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
