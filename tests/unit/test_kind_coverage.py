"""Meta-test: every ``MessageKind`` is covered by a property suite.

A message kind is wire surface: peers decode it forever. Registering one
without property coverage means its payload round-trip is only exercised
incidentally. A kind counts as covered when the property corpus
(``tests/property/*.py``) either

- names the kind directly (``MessageKind.<NAME>``),
- round-trips the schema the wire registry maps it to, or
- for hand-packed layouts, exercises the implementing module by name
  (e.g. ``fragmentation``, ``batching``).

The registry mapping itself is pinned by the schema lockfile
(``test_schema_lock.py``); this test keeps the *behavioral* side in
lockstep, so adding a kind forces both a lockfile entry and a property
suite. It also keeps the kind enum sound: no duplicate values, no kind
that nothing produces or consumes, and no wire schema outside both the
registry and the property suites.
"""

import importlib
import re
from pathlib import Path

from repro.encoding.types import DataType, StructType, UnionType, VectorType
from repro.protocol.frames import MessageKind
from repro.protocol.wire_registry import KIND_SCHEMA_REFS, schema_for

PROPERTY_DIR = Path(__file__).resolve().parent.parent / "property"
SRC_DIR = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
#: Every module that declares wire payload schemas.
SCHEMA_MODULES = (
    "repro.primitives.wire",
    "repro.container.records",
    "repro.container.gossip",
)


def _corpus() -> str:
    return "\n".join(
        p.read_text(encoding="utf-8") for p in sorted(PROPERTY_DIR.glob("*.py"))
    )


def test_every_kind_has_a_registry_entry():
    missing = [k.name for k in MessageKind if k.name not in KIND_SCHEMA_REFS]
    assert not missing, f"kinds without a wire_registry mapping: {missing}"


def test_every_kind_is_covered_by_a_property_suite():
    corpus = _corpus()
    uncovered = []
    for kind in MessageKind:
        if re.search(rf"\bMessageKind\.{kind.name}\b", corpus):
            continue
        ref = KIND_SCHEMA_REFS.get(kind.name, "")
        if ref.startswith("manual:"):
            module_stem = Path(ref[len("manual:"):]).stem
            if re.search(rf"\b{module_stem}\b", corpus):
                continue
        elif ref:
            schema_name = ref.partition("::")[2]
            if re.search(rf"\b{schema_name}\b", corpus):
                continue
        uncovered.append(kind.name)
    assert not uncovered, (
        f"MessageKind members with no property-suite coverage: {uncovered} — "
        f"add a round-trip property for the payload (see tests/property/)"
    )


def test_no_kind_value_is_registered_twice():
    # IntEnum turns a duplicate value into a silent alias: the second name
    # would decode as the first message on every peer.
    aliases = sorted(set(MessageKind.__members__) - {k.name for k in MessageKind})
    assert len(MessageKind.__members__) == len(MessageKind), (
        f"MessageKind values registered more than once: {aliases}"
    )


def test_every_kind_is_referenced_outside_frames():
    corpus = "\n".join(
        p.read_text(encoding="utf-8")
        for p in sorted(SRC_DIR.rglob("*.py"))
        if p != SRC_DIR / "protocol" / "frames.py"
    )
    dead = [k.name for k in MessageKind if f"MessageKind.{k.name}" not in corpus]
    assert not dead, f"kinds never produced or consumed outside frames.py: {dead}"


def _reachable(datatype: DataType, seen: dict) -> None:
    """Collect every type object inside ``datatype``, keyed by identity."""
    if id(datatype) in seen:
        return
    seen[id(datatype)] = datatype
    if isinstance(datatype, VectorType):
        _reachable(datatype.element, seen)
    elif isinstance(datatype, StructType):
        for _, field in datatype.fields:
            _reachable(field, seen)
    elif isinstance(datatype, UnionType):
        for _, alternative in datatype.alternatives:
            _reachable(alternative, seen)


def test_every_wire_schema_is_registered_composed_or_property_tested():
    covered: dict = {}
    for kind in MessageKind:
        datatype = schema_for(kind.name)
        if datatype is not None:
            _reachable(datatype, covered)
    corpus = _corpus()
    orphans = []
    for module_name in SCHEMA_MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if not name.endswith("_SCHEMA") or id(value) in covered:
                continue
            if not re.search(rf"\b{name}\b", corpus):
                orphans.append(f"{module_name}.{name}")
    assert not orphans, (
        f"wire schemas neither mapped to a kind, composed into one, nor "
        f"round-tripped under tests/property: {orphans}"
    )
