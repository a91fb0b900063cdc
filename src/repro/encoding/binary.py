"""Compact binary wire codec.

Format (little-endian throughout):

- ``bool`` → 1 byte (0/1)
- sized ints/floats → fixed width via :mod:`struct`
- ``string`` → uint32 byte length + UTF-8 bytes
- ``bytes`` → uint32 length + raw bytes
- vector → (uint32 count unless fixed-length) + elements back to back
- struct → fields in declaration order, no padding
- union → uint8 alternative index + encoded alternative

This mirrors what the paper's C# prototype would do with manual marshalling
and is the codec all benchmarks use unless stated otherwise.
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import Any, BinaryIO

from repro.encoding.codec import Codec, register_codec
from repro.encoding.types import (
    DataType,
    PrimitiveType,
    StructType,
    UnionType,
    VectorType,
)
from repro.util.errors import EncodingError

_PRIM_FORMATS = {
    "int8": "<b",
    "int16": "<h",
    "int32": "<i",
    "int64": "<q",
    "uint8": "<B",
    "uint16": "<H",
    "uint32": "<I",
    "uint64": "<Q",
    "float32": "<f",
    "float64": "<d",
}

#: Precompiled Struct per fixed-width primitive — ``struct.calcsize`` /
#: ``struct.pack`` on a format string re-parse it on every call.
_PRIM_STRUCTS = {name: struct.Struct(fmt) for name, fmt in _PRIM_FORMATS.items()}

_LEN = struct.Struct("<I")
_TAG = struct.Struct("<B")

#: Refuse to decode strings/vectors longer than this; guards against a
#: corrupted length prefix allocating gigabytes.
MAX_SEQUENCE_LENGTH = 1 << 24


class BinaryCodec(Codec):
    """The default, compact, schema-driven binary codec."""

    name = "binary"

    # -- public API ---------------------------------------------------------
    def encode(self, datatype: DataType, value: Any) -> bytes:
        datatype.validate(value)
        out = BytesIO()
        self._write(datatype, value, out)
        return out.getvalue()

    def decode(self, datatype: DataType, data: bytes) -> Any:
        stream = BytesIO(data)
        value = self._read(datatype, stream)
        trailing = stream.read(1)
        if trailing:
            raise EncodingError(
                f"{len(trailing) + len(stream.read())} trailing bytes after "
                f"decoding {datatype.describe()}"
            )
        return value

    def decode_prefix(self, datatype: DataType, data: bytes) -> "tuple[Any, int]":
        """Decode one value from the front of ``data``.

        Returns ``(value, consumed)`` where ``consumed`` is the number of
        bytes the value occupied — trailing bytes are the caller's problem.
        Used by the wire layer to peel a struct payload off a frame that may
        carry an optional trace-context tail."""
        stream = BytesIO(data)
        value = self._read(datatype, stream)
        return value, stream.tell()

    # -- encode -------------------------------------------------------------
    def _write(self, datatype: DataType, value: Any, out: BinaryIO) -> None:
        if isinstance(datatype, PrimitiveType):
            self._write_primitive(datatype, value, out)
        elif isinstance(datatype, VectorType):
            if datatype.length is None:
                out.write(_LEN.pack(len(value)))
            for item in value:
                self._write(datatype.element, item, out)
        elif isinstance(datatype, StructType):
            for fname, ftype in datatype.fields:
                self._write(ftype, value[fname], out)
        elif isinstance(datatype, UnionType):
            tag, inner = value
            index = datatype.tag_index(tag)
            out.write(_TAG.pack(index))
            self._write(datatype.alternatives[index][1], inner, out)
        else:
            raise EncodingError(f"cannot encode type {datatype!r}")

    def _write_primitive(self, datatype: PrimitiveType, value: Any, out: BinaryIO) -> None:
        name = datatype.name
        if name == "bool":
            out.write(b"\x01" if value else b"\x00")
        elif name == "string":
            raw = value.encode("utf-8")
            out.write(_LEN.pack(len(raw)))
            out.write(raw)
        elif name == "bytes":
            out.write(_LEN.pack(len(value)))
            out.write(bytes(value))
        else:
            try:
                out.write(_PRIM_STRUCTS[name].pack(value))
            except struct.error as exc:
                raise EncodingError(f"cannot pack {value!r} as {name}: {exc}") from exc

    # -- decode -------------------------------------------------------------
    def _read(self, datatype: DataType, stream: BinaryIO) -> Any:
        if isinstance(datatype, PrimitiveType):
            return self._read_primitive(datatype, stream)
        if isinstance(datatype, VectorType):
            if datatype.length is None:
                count = self._read_length(stream)
            else:
                count = datatype.length
            return [self._read(datatype.element, stream) for _ in range(count)]
        if isinstance(datatype, StructType):
            return {
                fname: self._read(ftype, stream) for fname, ftype in datatype.fields
            }
        if isinstance(datatype, UnionType):
            raw = self._take(stream, _TAG.size)
            (index,) = _TAG.unpack(raw)
            if index >= len(datatype.alternatives):
                raise EncodingError(
                    f"union {datatype.name}: tag index {index} out of range"
                )
            tag, alt = datatype.alternatives[index]
            return (tag, self._read(alt, stream))
        raise EncodingError(f"cannot decode type {datatype!r}")

    def _read_primitive(self, datatype: PrimitiveType, stream: BinaryIO) -> Any:
        name = datatype.name
        if name == "bool":
            return self._take(stream, 1) != b"\x00"
        if name == "string":
            raw = self._take(stream, self._read_length(stream))
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(f"string is not UTF-8: {exc}") from exc
        if name == "bytes":
            return self._take(stream, self._read_length(stream))
        prim = _PRIM_STRUCTS[name]
        (value,) = prim.unpack(self._take(stream, prim.size))
        return value

    def _read_length(self, stream: BinaryIO) -> int:
        (length,) = _LEN.unpack(self._take(stream, _LEN.size))
        if length > MAX_SEQUENCE_LENGTH:
            raise EncodingError(f"sequence length {length} exceeds sanity limit")
        return length

    @staticmethod
    def _take(stream: BinaryIO, n: int) -> bytes:
        data = stream.read(n)
        if len(data) != n:
            raise EncodingError(f"truncated payload: wanted {n} bytes, got {len(data)}")
        return data


register_codec(BinaryCodec())

__all__ = ["BinaryCodec", "MAX_SEQUENCE_LENGTH"]
