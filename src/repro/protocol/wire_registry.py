"""Canonical map from every :class:`~repro.protocol.frames.MessageKind` to
the payload layout it carries on the wire.

This is the single declarative source the schema lockfile
(``schemas.lock.json``, written by :mod:`repro.analysis.schemalock`) is
generated from. Two reference styles:

- ``"<module rel path>::<SCHEMA_NAME>"`` — the payload is a typed schema
  (a module-level ``*_SCHEMA`` constant built from the encoding type
  system). Its lockfile fingerprint is
  :meth:`repro.encoding.types.DataType.fingerprint`.
- ``"manual:<module rel path>"`` — the payload is hand-packed with
  ``struct`` in that module (ACK bitsets, fragment headers, batch
  framing, the TCP-like baseline). Its fingerprint covers the module's
  literal ``struct.Struct`` format strings.

Adding a ``MessageKind`` without a row here fails
``tests/unit/test_kind_coverage.py``, and a row whose layout drifts from
the committed lock fails ``tests/unit/test_schema_lock.py``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional

from repro.encoding.types import DataType

KIND_SCHEMA_REFS: Dict[str, str] = {
    # Container control plane (announce/discovery).
    "ANNOUNCE": "repro/container/records.py::ANNOUNCE_SCHEMA",
    "HEARTBEAT": "repro/container/records.py::HEARTBEAT_SCHEMA",
    "BYE": "repro/container/records.py::BYE_SCHEMA",
    # Variables.
    "VAR_SAMPLE": "repro/primitives/wire.py::VAR_SAMPLE_SCHEMA",
    "VAR_INITIAL_REQUEST": "repro/primitives/wire.py::VAR_INITIAL_REQUEST_SCHEMA",
    "VAR_INITIAL_RESPONSE": "repro/primitives/wire.py::VAR_INITIAL_RESPONSE_SCHEMA",
    # Events.
    "EVENT": "repro/primitives/wire.py::EVENT_MESSAGE_SCHEMA",
    "EVENT_SUBSCRIBE": "repro/primitives/wire.py::EVENT_SUBSCRIBE_SCHEMA",
    # Remote invocation.
    "RPC_REQUEST": "repro/primitives/wire.py::RPC_REQUEST_SCHEMA",
    "RPC_RESPONSE": "repro/primitives/wire.py::RPC_RESPONSE_SCHEMA",
    # File transmission.
    "FILE_ANNOUNCE": "repro/primitives/wire.py::FILE_ANNOUNCE_SCHEMA",
    "FILE_SUBSCRIBE": "repro/primitives/wire.py::FILE_SUBSCRIBE_SCHEMA",
    "FILE_CHUNK": "repro/primitives/wire.py::FILE_CHUNK_SCHEMA",
    "FILE_STATUS_REQUEST": "repro/primitives/wire.py::FILE_STATUS_REQUEST_SCHEMA",
    "FILE_COMPLETION_ACK": "repro/primitives/wire.py::FILE_ACK_SCHEMA",
    "FILE_COMPLETION_NACK": "repro/primitives/wire.py::FILE_NACK_SCHEMA",
    # Reliability, fragmentation, batching: hand-packed layouts.
    "ACK": "manual:repro/protocol/reliability.py",
    "NACK": "manual:repro/protocol/reliability.py",
    "FRAGMENT": "manual:repro/protocol/fragmentation.py",
    "BATCH": "manual:repro/protocol/batching.py",
    # Fleet-scale discovery.
    "ZONE_SUMMARY": "repro/container/gossip.py::ZONE_SUMMARY_SCHEMA",
    # TCP-like baseline stream (experiment E5).
    "STREAM_SYN": "manual:repro/protocol/tcp_like.py",
    "STREAM_SYNACK": "manual:repro/protocol/tcp_like.py",
    "STREAM_SEGMENT": "manual:repro/protocol/tcp_like.py",
    "STREAM_ACK": "manual:repro/protocol/tcp_like.py",
}


def _module_name(rel_path: str) -> str:
    return rel_path[: -len(".py")].replace("/", ".")


def schema_for(kind_name: str) -> Optional[DataType]:
    """Resolve a kind's schema object at runtime (None for manual layouts).

    The schema lockfile fingerprints these live objects.
    """
    ref = KIND_SCHEMA_REFS.get(kind_name)
    if ref is None or ref.startswith("manual:"):
        return None
    module_rel, _, schema_name = ref.partition("::")
    module = importlib.import_module(_module_name(module_rel))
    datatype = getattr(module, schema_name)
    if not isinstance(datatype, DataType):
        raise TypeError(f"{ref} is not a DataType")
    return datatype


__all__ = ["KIND_SCHEMA_REFS", "schema_for"]
