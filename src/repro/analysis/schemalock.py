"""The wire-schema lockfile (``schemas.lock.json``), from the live schemas.

The lock pins one fingerprint per :class:`~repro.protocol.frames.MessageKind`
payload plus the frame header. Everything is read from the imported
objects the middleware itself encodes with, so there is no second
implementation to keep in step:

- a typed kind (``wire_registry`` ref ``"<module>::<NAME>_SCHEMA"``) locks
  ``schema_for(kind).fingerprint()`` and ``.describe()``;
- a hand-packed kind (``"manual:<module>"``) locks a digest of the literal
  ``struct.Struct`` formats in that module's source file;
- the header locks :func:`repro.protocol.frames.header_fingerprint`.

:func:`diff` compares a committed lock with the current one. A tier-1
test requires the committed file to equal :func:`render` of
:func:`compute_lock` byte for byte; ``repro.cli check
--update-schema-lock`` writes it.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.encoding.types import DataType

LOCK_FILENAME = "schemas.lock.json"
REGEN_HINT = "regenerate deliberately with `repro.cli check --update-schema-lock`"

#: The directory holding the ``repro`` package; registry paths are relative to it.
SRC_ROOT = Path(__file__).resolve().parent.parent.parent


def manual_layout_fingerprint(source: str) -> str:
    """Fingerprint of a hand-packed payload module: the sorted set of its
    literal ``struct.Struct`` formats. A type-width change (``<H`` →
    ``<I``) changes the digest; field semantics are covered by review and
    the property suites, not the lock."""
    formats = sorted(
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Struct"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    )
    return hashlib.sha256("|".join(formats).encode("utf-8")).hexdigest()[:16]


def typed_entry(value: int, ref: str, datatype: DataType) -> Dict[str, object]:
    return {
        "value": value,
        "schema": ref,
        "fingerprint": datatype.fingerprint(),
        "describe": datatype.describe(),
    }


def manual_entry(value: int, module: str, source: str) -> Dict[str, object]:
    return {
        "value": value,
        "layout": "manual",
        "module": module,
        "fingerprint": manual_layout_fingerprint(source),
    }


def compute_lock() -> Dict[str, Any]:
    """The lock document for the imported tree. Raises :class:`LookupError`
    for a kind with no ``wire_registry`` entry."""
    from repro.protocol.frames import MessageKind, header_fingerprint
    from repro.protocol.wire_registry import KIND_SCHEMA_REFS, schema_for

    kinds: Dict[str, object] = {}
    for kind in MessageKind:
        ref = KIND_SCHEMA_REFS.get(kind.name)
        if ref is None:
            raise LookupError(
                f"MessageKind.{kind.name} has no wire_registry.KIND_SCHEMA_REFS "
                f"entry — every kind must declare its payload layout"
            )
        if ref.startswith("manual:"):
            module = ref[len("manual:"):]
            source = (SRC_ROOT / module).read_text(encoding="utf-8")
            kinds[kind.name] = manual_entry(int(kind), module, source)
        else:
            datatype = schema_for(kind.name)
            assert datatype is not None
            kinds[kind.name] = typed_entry(int(kind), ref, datatype)
    return {"version": 1, "header": header_fingerprint(), "kinds": kinds}


def render(lock: Mapping[str, object]) -> str:
    """The committed text of a lock document."""
    return json.dumps(lock, indent=2, sort_keys=True) + "\n"


def lock_path(root: Path) -> Path:
    """The committed lockfile for a scan root: at the repo root, above ``src/``."""
    return (root.parent if root.name == "src" else root) / LOCK_FILENAME


def diff(locked: Optional[Mapping[str, Any]], current: Mapping[str, Any]) -> List[str]:
    """Every way ``current`` breaks the committed lock; empty when it holds."""
    if locked is None:
        return [f"no {LOCK_FILENAME} found — the wire-schema lockfile is mandatory; {REGEN_HINT}"]
    problems: List[str] = []
    if locked.get("header") != current["header"]:
        problems.append(
            f"frame header layout changed (locked {locked.get('header')}, current "
            f"{current['header']}) — a header change breaks every deployed peer; "
            f"if this is a deliberate protocol version bump, {REGEN_HINT}"
        )
    locked_kinds = locked.get("kinds", {})
    current_kinds = current["kinds"]
    for name, entry in sorted(current_kinds.items()):
        old = locked_kinds.get(name)
        if old is None:
            problems.append(
                f"MessageKind.{name} is not in {LOCK_FILENAME} — new kinds must be "
                f"locked before they ship; {REGEN_HINT}"
            )
        elif old.get("fingerprint") != entry["fingerprint"]:
            detail = ""
            if "describe" in entry and "describe" in old:
                detail = f"; locked shape `{old['describe']}` vs current `{entry['describe']}`"
            problems.append(
                f"wire layout of MessageKind.{name} changed without a new kind "
                f"(locked fingerprint {old.get('fingerprint')}, current "
                f"{entry['fingerprint']}){detail} — deployed peers decode by kind "
                f"byte, so mutating a locked schema corrupts their view; mint a "
                f"new MessageKind instead"
            )
    for name in sorted(set(locked_kinds) - set(current_kinds)):
        problems.append(
            f"MessageKind.{name} is locked in {LOCK_FILENAME} but no longer exists — "
            f"peers may still emit it; keep the kind (even if ignored) or {REGEN_HINT}"
        )
    return problems


__all__ = [
    "LOCK_FILENAME",
    "compute_lock",
    "diff",
    "lock_path",
    "manual_entry",
    "manual_layout_fingerprint",
    "render",
    "typed_entry",
]
