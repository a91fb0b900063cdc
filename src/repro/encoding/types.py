"""The middleware type system (PEPt Presentation subsystem).

Values are plain Python objects — ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list`` for vectors, ``dict`` for structs and ``(tag, value)``
tuples for unions — so services never import wire-format machinery.
:meth:`DataType.validate` rejects a value *before* it reaches a codec, which
keeps encoding errors out of the fast path and gives services actionable
messages.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.util.errors import EncodingError


class DataType:
    """Base class of all type descriptors."""

    #: short tag used by codecs and ``repr``; set by subclasses.
    kind: str = "abstract"

    def validate(self, value: Any) -> None:
        """Raise :class:`EncodingError` unless ``value`` conforms."""
        raise NotImplementedError

    def describe(self) -> str:
        """A C-like rendering of the type, parseable by ``parse_type``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())

    def fingerprint(self) -> str:
        """A stable wire-compatibility fingerprint of this type.

        Two types with the same fingerprint encode and decode identically:
        the digest is taken over :meth:`describe`, which captures field
        order, field types, and vector shapes — exactly the properties a
        peer depends on. Renaming a *field* changes the fingerprint (field
        names ride in the describe text and matter to document shape);
        so does any reorder, type change, insertion, or removal. The
        schema lockfile (``schemas.lock.json``, checked by
        ``tests/unit/test_schema_lock.py``) pins these per message kind.
        """
        return hashlib.sha256(self.describe().encode("utf-8")).hexdigest()[:16]


class PrimitiveType(DataType):
    """A fixed basic type: bool, sized ints, floats, string, bytes."""

    _INT_RANGES = {
        "int8": (-(1 << 7), (1 << 7) - 1),
        "int16": (-(1 << 15), (1 << 15) - 1),
        "int32": (-(1 << 31), (1 << 31) - 1),
        "int64": (-(1 << 63), (1 << 63) - 1),
        "uint8": (0, (1 << 8) - 1),
        "uint16": (0, (1 << 16) - 1),
        "uint32": (0, (1 << 32) - 1),
        "uint64": (0, (1 << 64) - 1),
    }

    def __init__(self, name: str):
        if name not in self._INT_RANGES and name not in (
            "bool",
            "float32",
            "float64",
            "string",
            "bytes",
        ):
            raise ValueError(f"unknown primitive type: {name}")
        self.name = name
        self.kind = name

    def validate(self, value: Any) -> None:
        name = self.name
        if name == "bool":
            if not isinstance(value, bool):
                raise EncodingError(f"expected bool, got {type(value).__name__}")
        elif name in self._INT_RANGES:
            if isinstance(value, bool) or not isinstance(value, int):
                raise EncodingError(f"expected {name}, got {type(value).__name__}")
            lo, hi = self._INT_RANGES[name]
            if not (lo <= value <= hi):
                raise EncodingError(f"{value} out of range for {name} [{lo}, {hi}]")
        elif name in ("float32", "float64"):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EncodingError(f"expected {name}, got {type(value).__name__}")
        elif name == "string":
            if not isinstance(value, str):
                raise EncodingError(f"expected string, got {type(value).__name__}")
        elif name == "bytes":
            if not isinstance(value, (bytes, bytearray)):
                raise EncodingError(f"expected bytes, got {type(value).__name__}")

    def describe(self) -> str:
        return self.name


BOOL = PrimitiveType("bool")
INT8 = PrimitiveType("int8")
INT16 = PrimitiveType("int16")
INT32 = PrimitiveType("int32")
INT64 = PrimitiveType("int64")
UINT8 = PrimitiveType("uint8")
UINT16 = PrimitiveType("uint16")
UINT32 = PrimitiveType("uint32")
UINT64 = PrimitiveType("uint64")
FLOAT32 = PrimitiveType("float32")
FLOAT64 = PrimitiveType("float64")
STRING = PrimitiveType("string")
BYTES = PrimitiveType("bytes")

PRIMITIVES = {
    t.name: t
    for t in (
        BOOL,
        INT8,
        INT16,
        INT32,
        INT64,
        UINT8,
        UINT16,
        UINT32,
        UINT64,
        FLOAT32,
        FLOAT64,
        STRING,
        BYTES,
    )
}


class VectorType(DataType):
    """Homogeneous sequence; ``length`` fixes the arity when given."""

    kind = "vector"

    def __init__(self, element: DataType, length: Optional[int] = None):
        if length is not None and length < 0:
            raise ValueError("vector length must be non-negative")
        self.element = element
        self.length = length

    def validate(self, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise EncodingError(f"expected vector, got {type(value).__name__}")
        if self.length is not None and len(value) != self.length:
            raise EncodingError(
                f"expected vector of length {self.length}, got {len(value)}"
            )
        for i, item in enumerate(value):
            try:
                self.element.validate(item)
            except EncodingError as exc:
                raise EncodingError(f"vector element {i}: {exc}") from exc

    def describe(self) -> str:
        if self.length is None:
            return f"{self.element.describe()}[]"
        return f"{self.element.describe()}[{self.length}]"


class StructType(DataType):
    """Named, ordered fields; values are ``dict`` with exactly those keys."""

    kind = "struct"

    def __init__(self, name: str, fields: Sequence[Tuple[str, DataType]]):
        if not fields:
            raise ValueError(f"struct {name!r} must have at least one field")
        names = [f[0] for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"struct {name!r} has duplicate field names")
        self.name = name
        self.fields: List[Tuple[str, DataType]] = list(fields)

    def validate(self, value: Any) -> None:
        if not isinstance(value, dict):
            raise EncodingError(f"expected struct dict, got {type(value).__name__}")
        expected = {f[0] for f in self.fields}
        got = set(value)
        if expected != got:
            missing = expected - got
            extra = got - expected
            raise EncodingError(
                f"struct {self.name}: missing fields {sorted(missing)}, "
                f"unexpected fields {sorted(extra)}"
            )
        for fname, ftype in self.fields:
            try:
                ftype.validate(value[fname])
            except EncodingError as exc:
                raise EncodingError(f"struct {self.name}.{fname}: {exc}") from exc

    def describe(self) -> str:
        body = " ".join(f"{t.describe()} {n};" for n, t in self.fields)
        return f"struct {self.name} {{ {body} }}"


class UnionType(DataType):
    """Tagged union; values are ``(tag_name, value)`` pairs."""

    kind = "union"

    def __init__(self, name: str, alternatives: Sequence[Tuple[str, DataType]]):
        if not alternatives:
            raise ValueError(f"union {name!r} must have at least one alternative")
        tags = [a[0] for a in alternatives]
        if len(set(tags)) != len(tags):
            raise ValueError(f"union {name!r} has duplicate tags")
        if len(tags) > 256:
            raise ValueError(
                f"union {name!r}: {len(tags)} alternatives exceed the uint8 tag space"
            )
        self.name = name
        self.alternatives: List[Tuple[str, DataType]] = list(alternatives)
        self._by_tag = dict(self.alternatives)

    def tag_index(self, tag: str) -> int:
        for i, (t, _) in enumerate(self.alternatives):
            if t == tag:
                return i
        raise EncodingError(f"union {self.name}: unknown tag {tag!r}")

    def alternative(self, tag: str) -> DataType:
        try:
            return self._by_tag[tag]
        except (KeyError, TypeError):  # TypeError: an unhashable tag
            raise EncodingError(f"union {self.name}: unknown tag {tag!r}") from None

    def validate(self, value: Any) -> None:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise EncodingError(
                f"expected union (tag, value) pair, got {type(value).__name__}"
            )
        tag, inner = value
        alt = self.alternative(tag)
        try:
            alt.validate(inner)
        except EncodingError as exc:
            raise EncodingError(f"union {self.name}.{tag}: {exc}") from exc

    def describe(self) -> str:
        body = " ".join(f"{t.describe()} {n};" for n, t in self.alternatives)
        return f"union {self.name} {{ {body} }}"


__all__ = [
    "DataType",
    "PrimitiveType",
    "VectorType",
    "StructType",
    "UnionType",
    "PRIMITIVES",
    "BOOL",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FLOAT32",
    "FLOAT64",
    "STRING",
    "BYTES",
]
