"""Runtime sanitizers: invariants static analysis cannot see.

:mod:`repro.analysis.sanitizers.payload` catches payloads mutated after
publication leaking across the container's local fast path (which bypasses
serialization and therefore copy-on-send). It is off by default and
byte/behavior-identical when disabled.
"""

from repro.analysis.sanitizers.payload import PayloadMutationError, PayloadSanitizer

__all__ = [
    "PayloadSanitizer",
    "PayloadMutationError",
]
