"""Runtime sanitizers: invariants static analysis cannot see.

- :mod:`repro.analysis.sanitizers.payload` — catches payloads mutated
  after publication leaking across the container's local fast path
  (which bypasses serialization and therefore copy-on-send).
- :mod:`repro.analysis.sanitizers.lockorder` — records the lock
  acquisition graph of the wall-clock runtime and reports order inversions
  (eraser-style lockset analysis) before they become rare deadlocks.

Both are off by default and byte/behavior-identical when disabled.
"""

from repro.analysis.sanitizers.lockorder import LockOrderRecorder, TrackedLock
from repro.analysis.sanitizers.payload import PayloadMutationError, PayloadSanitizer

__all__ = [
    "PayloadSanitizer",
    "PayloadMutationError",
    "LockOrderRecorder",
    "TrackedLock",
]
