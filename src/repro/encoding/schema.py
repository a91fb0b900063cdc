"""A C-like type declaration parser and the well-known avionics schemas.

The paper states the presentation layer datatypes are "similar to a C-like
language" (§4.1). :func:`parse_type` accepts exactly the notation that
:meth:`DataType.describe` produces, plus field-suffix array syntax, so
schemas round-trip through their textual form:

    struct Position { float64 lat; float64 lon; float32 alt; }
    union Reading { float64 scalar; float64 samples[4]; }
    int32[]

A bare name that is not a primitive is an error: offers carry whole type
declarations, so there is nothing to resolve it against.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.encoding.types import (
    PRIMITIVES,
    DataType,
    StructType,
    UnionType,
    VectorType,
)
from repro.util.errors import EncodingError

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}\[\];]|\S")


class _Tokens:
    """A trivial cursor over the token stream."""

    def __init__(self, text: str):
        self.tokens: List[str] = _TOKEN_RE.findall(text)
        self.pos = 0
        self.text = text

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise EncodingError(f"unexpected end of type declaration: {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise EncodingError(
                f"expected {token!r} but found {got!r} in {self.text!r}"
            )

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)


#: Memo of every parse. Data-plane receive paths re-parse the same handful
#: of offered type strings on every sample; DataType objects are immutable
#: after construction, so sharing one instance per text is safe.
_PARSE_MEMO: dict = {}
_PARSE_MEMO_MAX = 1024


def parse_type(text: str) -> DataType:
    """Parse a C-like type declaration into a :class:`DataType`."""
    cached = _PARSE_MEMO.get(text)
    if cached is not None:
        return cached
    tokens = _Tokens(text)
    datatype = _parse(tokens)
    if not tokens.exhausted:
        raise EncodingError(f"trailing tokens after type in {text!r}")
    if len(_PARSE_MEMO) >= _PARSE_MEMO_MAX:
        _PARSE_MEMO.clear()
    _PARSE_MEMO[text] = datatype
    return datatype


def _parse(tokens: _Tokens) -> DataType:
    tok = tokens.next()
    if tok == "struct":
        datatype: DataType = _parse_composite(tokens, is_union=False)
    elif tok == "union":
        datatype = _parse_composite(tokens, is_union=True)
    elif tok in PRIMITIVES:
        datatype = PRIMITIVES[tok]
    else:
        raise EncodingError(f"unknown type name {tok!r}")
    return _parse_array_suffix(tokens, datatype)


def _parse_array_suffix(tokens: _Tokens, datatype: DataType) -> DataType:
    while tokens.peek() == "[":
        tokens.next()
        tok = tokens.next()
        if tok == "]":
            datatype = VectorType(datatype)
        else:
            if not tok.isdigit():
                raise EncodingError(f"bad vector length {tok!r}")
            datatype = VectorType(datatype, length=int(tok))
            tokens.expect("]")
    return datatype


def _parse_composite(tokens: _Tokens, is_union: bool) -> DataType:
    name = tokens.next()
    tokens.expect("{")
    fields: List[Tuple[str, DataType]] = []
    while tokens.peek() != "}":
        ftype = _parse(tokens)
        fname = tokens.next()
        # C-style suffix arrays: float64 samples[4];
        ftype = _parse_array_suffix(tokens, ftype)
        tokens.expect(";")
        fields.append((fname, ftype))
    tokens.expect("}")
    if is_union:
        return UnionType(name, fields)
    return StructType(name, fields)


# -- well-known avionics schemas used across examples and benchmarks --------

#: GPS fix published by the GPS service (§5's ``position`` variable).
POSITION_SCHEMA = parse_type(
    "struct Position { float64 lat; float64 lon; float64 alt; "
    "float64 ground_speed; float64 heading; float64 timestamp; }"
)

#: Attitude sample from the flight computer.
ATTITUDE_SCHEMA = parse_type(
    "struct Attitude { float64 roll; float64 pitch; float64 yaw; float64 timestamp; }"
)

#: Event payload raised when a photo is commanded or completed.
PHOTO_EVENT_SCHEMA = parse_type(
    "struct PhotoEvent { uint32 waypoint; float64 lat; float64 lon; string resource; }"
)

#: Detection report from the video-processing service.
DETECTION_SCHEMA = parse_type(
    "struct Detection { string resource; uint32 feature_count; float64 score; "
    "float64 lat; float64 lon; }"
)

#: Generic status/alarm event (§4.2's "error alarms or warnings").
ALARM_SCHEMA = parse_type(
    "union Alarm { string warning; string error; uint32 code; }"
)


__all__ = [
    "parse_type",
    "POSITION_SCHEMA",
    "ATTITUDE_SCHEMA",
    "PHOTO_EVENT_SCHEMA",
    "DETECTION_SCHEMA",
    "ALARM_SCHEMA",
]
