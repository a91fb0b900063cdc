"""JSON wire codec — the readable, interoperable alternative plug-in.

Exists to exercise the PEPt claim that Encoding is swappable (experiment
E10 measures its size/CPU cost against the binary codec). Encoding rules:

- unions → ``{"tag": <name>, "value": <inner>}``
- ``bytes`` → hex string
- everything else → the natural JSON mapping
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.encoding.codec import Codec, register_codec
from repro.encoding.types import (
    DataType,
    PrimitiveType,
    StructType,
    UnionType,
    VectorType,
)
from repro.util.errors import EncodingError


class JsonCodec(Codec):
    """UTF-8 JSON codec with the same type-checking as the binary codec."""

    name = "json"

    def encode(self, datatype: DataType, value: Any) -> bytes:
        datatype.validate(value)
        return json.dumps(
            self._to_jsonable(datatype, value), separators=(",", ":")
        ).encode("utf-8")

    def decode(self, datatype: DataType, data: bytes) -> Any:
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EncodingError(f"invalid JSON payload: {exc}") from exc
        value = self._from_jsonable(datatype, doc)
        datatype.validate(value)
        return value

    # -- helpers -------------------------------------------------------------
    def _to_jsonable(self, datatype: DataType, value: Any) -> Any:
        if isinstance(datatype, PrimitiveType):
            if datatype.name == "bytes":
                return bytes(value).hex()
            if datatype.name in ("float32", "float64") and not math.isfinite(value):
                raise EncodingError(f"JSON cannot carry non-finite float {value!r}")
            return value
        if isinstance(datatype, VectorType):
            return [self._to_jsonable(datatype.element, v) for v in value]
        if isinstance(datatype, StructType):
            return {
                fname: self._to_jsonable(ftype, value[fname])
                for fname, ftype in datatype.fields
            }
        if isinstance(datatype, UnionType):
            tag, inner = value
            return {"tag": tag, "value": self._to_jsonable(datatype.alternative(tag), inner)}
        raise EncodingError(f"cannot encode type {datatype!r}")

    def _from_jsonable(self, datatype: DataType, doc: Any) -> Any:
        if isinstance(datatype, PrimitiveType):
            if datatype.name == "bytes":
                if not isinstance(doc, str):
                    raise EncodingError("bytes field must be a hex string in JSON")
                try:
                    return bytes.fromhex(doc)
                except ValueError as exc:
                    raise EncodingError(f"invalid hex for bytes: {exc}") from exc
            if datatype.name in ("float32", "float64") and isinstance(doc, int):
                return float(doc)
            return doc
        if isinstance(datatype, VectorType):
            if not isinstance(doc, list):
                raise EncodingError("vector field must be a JSON array")
            return [self._from_jsonable(datatype.element, v) for v in doc]
        if isinstance(datatype, StructType):
            if not isinstance(doc, dict):
                raise EncodingError("struct field must be a JSON object")
            return {
                fname: self._from_jsonable(ftype, doc.get(fname))
                for fname, ftype in datatype.fields
                if fname in doc
            }
        if isinstance(datatype, UnionType):
            if not (isinstance(doc, dict) and "tag" in doc):
                raise EncodingError("union field must be a JSON object with 'tag'")
            tag = doc["tag"]
            return (tag, self._from_jsonable(datatype.alternative(tag), doc.get("value")))
        raise EncodingError(f"cannot decode type {datatype!r}")


register_codec(JsonCodec())

__all__ = ["JsonCodec"]
