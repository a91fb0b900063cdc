"""PEPt Presentation + Encoding subsystems.

The paper (§4.1) allows variables, event payloads and invocation parameters
to be "a basic type (boolean, integer, floating point real, character string,
etc.) or a composition (vector, struct or union) of basic types … similar to
a C-like language". This package provides:

- the type system (:mod:`repro.encoding.types`),
- a compact binary wire codec and a JSON codec behind one pluggable
  :class:`Codec` interface (Fig. 4's pluggable Encoding subsystem),
- a schema-compiled variant of the binary codec
  (:class:`~repro.encoding.compiled.CompiledCodec`) — byte-identical wire
  format from flat, precompiled pack/unpack plans,
- a C-like declaration parser (:func:`parse_type`) and the well-known
  avionics schemas (:mod:`repro.encoding.schema`).
"""

from repro.encoding.binary import BinaryCodec
from repro.encoding.codec import Codec, get_codec, register_codec
from repro.encoding.compiled import CompiledCodec, compile_plan
from repro.encoding.jsoncodec import JsonCodec
from repro.encoding.schema import parse_type
from repro.encoding.types import (
    BOOL,
    BYTES,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    STRING,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    DataType,
    PrimitiveType,
    StructType,
    UnionType,
    VectorType,
)

__all__ = [
    "BinaryCodec",
    "CompiledCodec",
    "compile_plan",
    "JsonCodec",
    "Codec",
    "get_codec",
    "register_codec",
    "parse_type",
    "DataType",
    "PrimitiveType",
    "StructType",
    "UnionType",
    "VectorType",
    "BOOL",
    "BYTES",
    "STRING",
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
]
