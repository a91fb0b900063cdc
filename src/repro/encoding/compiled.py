"""Schema-compiled binary codec: flat pack/unpack plans, zero-copy decode.

:class:`~repro.encoding.binary.BinaryCodec` walks the schema tree with
``isinstance`` dispatch for every value it marshals. This module compiles a
:class:`DataType` **once**: one source generator emits straight-line Python
per schema — an encoder appending byte chunks to one list, a decoder
tracking an offset into the buffer — ``exec``s it, and caches the plan per
schema. There is no second compiler behind it; ``BinaryCodec`` is the
reference the generated plans are tested against. Three flattening rules
make the plans fast:

1. **Run coalescing** — adjacent fixed-width struct fields (including
   nested all-fixed structs and fixed-length vectors of fixed-width
   primitives) collapse into a single precomputed :class:`struct.Struct`
   pack/unpack.
2. **Vector batching** — vectors of fixed-width primitives pack/unpack all
   elements in one ``struct`` call instead of one Python call per element.
3. **Zero-copy decode** — decoding slices a ``memoryview`` with explicit
   offset tracking; strings decode straight out of the buffer and nothing
   is funneled through ``BytesIO``.

Unions are inlined as an ``if``/``elif`` chain on the tag byte (decode) or
tag name (encode). Nesting is inlined too, up to :data:`_MAX_INLINE_DEPTH`
levels of emitted indentation; a vector, struct or union met deeper than
that is generated as its own function and called, which keeps any schema
inside CPython's limits of 20 statically nested blocks and 100 indentation
levels.

The wire format is byte-for-byte identical to ``BinaryCodec`` — the
differential property suites machine-check this on generated schemas. The
one intentional semantic difference: validation is *lazy*. ``encode`` packs
optimistically and only falls back to :meth:`DataType.validate` to raise
the precise :class:`EncodingError` when packing fails, so a handful of
malformed-but-packable values (a ``bool`` in an int field, extra struct
keys) encode instead of raising. Use ``BinaryCodec`` where strict upfront
validation matters more than throughput.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.encoding.binary import MAX_SEQUENCE_LENGTH
from repro.encoding.codec import Codec, register_codec
from repro.encoding.types import (
    DataType,
    PrimitiveType,
    StructType,
    UnionType,
    VectorType,
)
from repro.util.errors import EncodingError

#: struct format characters for the fixed-width primitives (always paired
#: with the little-endian "<" prefix). ``?`` packs/unpacks exactly the
#: 0x00/0x01 bytes BinaryCodec writes for bool.
_FIXED_CODES = {
    "bool": "?",
    "int8": "b",
    "int16": "h",
    "int32": "i",
    "int64": "q",
    "uint8": "B",
    "uint16": "H",
    "uint32": "I",
    "uint64": "Q",
    "float32": "f",
    "float64": "d",
}

_LEN = struct.Struct("<I")

#: Decoders receive ``(buf, offset)`` and return ``(value, new_offset)``.
_Decoder = Callable[[Any, int], Tuple[Any, int]]

#: Deepest indentation at which a variable-size composite is still emitted
#: inline; below CPython's 20-block and 100-indent limits with room for the
#: lines a leaf adds under it.
_MAX_INLINE_DEPTH = 16


def _flat_codes(datatype: DataType) -> Optional[str]:
    """The struct format codes of a fully fixed-width ``datatype`` (empty for
    a zero-length vector), or None if it is variable-size."""
    if isinstance(datatype, PrimitiveType):
        return _FIXED_CODES.get(datatype.name)
    if isinstance(datatype, VectorType) and datatype.length is not None:
        inner = _flat_codes(datatype.element)
        return None if inner is None else inner * datatype.length
    if isinstance(datatype, StructType):
        codes = ""
        for _, ftype in datatype.fields:
            inner = _flat_codes(ftype)
            if inner is None:
                return None
            codes += inner
        return codes
    return None


def _is_bool(datatype: DataType) -> bool:
    return isinstance(datatype, PrimitiveType) and datatype.name == "bool"


# -- source generation -----------------------------------------------------------


def _seq_err(length):
    return EncodingError(f"sequence length {length} exceeds sanity limit")


def _trunc_err(wanted, got):
    return EncodingError(f"truncated payload: wanted {wanted} bytes, got {got}")


def _union_err(name, problem):
    return EncodingError(f"union {name}: {problem}")


def _flat_value_expr(datatype: DataType, vals: str, index: int) -> Tuple[str, int]:
    """Expression rebuilding ``datatype`` from the scalar tuple ``vals``
    starting at ``index``; returns (source expression, next index)."""
    if isinstance(datatype, PrimitiveType):
        return f"{vals}[{index}]", index + 1
    if isinstance(datatype, VectorType):
        if isinstance(datatype.element, PrimitiveType):
            end = index + datatype.length
            return f"list({vals}[{index}:{end}])", end
        items = []
        for _ in range(datatype.length):
            expr, index = _flat_value_expr(datatype.element, vals, index)
            items.append(expr)
        return "[" + ", ".join(items) + "]", index
    # StructType — _flat_codes guarantees nothing else reaches here.
    fields = []
    for fname, ftype in datatype.fields:
        expr, index = _flat_value_expr(ftype, vals, index)
        fields.append(f"{fname!r}: {expr}")
    return "{" + ", ".join(fields) + "}", index


def _flat_arg_exprs(datatype: DataType, src: str) -> List[str]:
    """Argument expressions flattening ``src`` (which holds a value of fully
    fixed-width ``datatype``) into pack() arguments, in wire order."""
    if isinstance(datatype, PrimitiveType):
        return [src]
    if isinstance(datatype, VectorType):
        if isinstance(datatype.element, PrimitiveType):
            return [f"*{src}"]
        out: List[str] = []
        for i in range(datatype.length):
            out.extend(_flat_arg_exprs(datatype.element, f"{src}[{i}]"))
        return out
    out = []
    for fname, ftype in datatype.fields:
        out.extend(_flat_arg_exprs(ftype, f"{src}[{fname!r}]"))
    return out


class _SourceGen:
    """Shared plumbing for the encode/decode source generators."""

    def __init__(self, header: str):
        self.lines = [header]
        self.indent = 1
        self.counter = 0
        self.env: Dict[str, Any] = {
            "_ulen": _LEN.unpack_from,
            "_plen": _LEN.pack,
            "_MAX": MAX_SEQUENCE_LENGTH,
            "_seq_err": _seq_err,
            "_trunc_err": _trunc_err,
            "_union_err": _union_err,
            "_unpack_from": struct.unpack_from,
            "_pack": struct.pack,
            "_join": b"".join,
        }

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def bind(self, prefix: str, obj: Any) -> str:
        name = self.fresh(prefix)
        self.env[name] = obj
        return name

    def build(self, name: str, datatype: DataType):
        source = "\n".join(self.lines)
        code = compile(
            source, f"<compiled {name} {datatype.describe()[:60]}>", "exec"
        )
        exec(code, self.env)
        return self.env[name]


class _DecoderGen(_SourceGen):
    """Emits ``_decode(buf, off) -> (value, off)`` over any buffer supporting
    slicing and ``struct.unpack_from`` — ``bytes`` stays ``bytes`` (cheapest
    slicing) and a ``memoryview`` input is sliced without copying."""

    def __init__(self):
        super().__init__("def _decode(buf, off):")
        self.w("buflen = len(buf)")

    def emit(self, datatype: DataType) -> str:
        codes = _flat_codes(datatype)
        if codes is not None:
            return self._emit_flat(datatype, codes)
        if isinstance(datatype, PrimitiveType):
            if datatype.name == "string":
                return self._emit_sized('str(buf[off:{end}], "utf-8")')
            if datatype.name == "bytes":
                return self._emit_sized("bytes(buf[off:{end}])")
            raise EncodingError(f"cannot decode type {datatype!r}")
        if self.indent > _MAX_INLINE_DEPTH:
            dec = self.bind("d", _generate_decoder(datatype))
            value = self.fresh()
            self.w(f"{value}, off = {dec}(buf, off)")
            return value
        if isinstance(datatype, VectorType):
            return self._emit_vector(datatype)
        if isinstance(datatype, StructType):
            return self._emit_struct(datatype)
        if isinstance(datatype, UnionType):
            return self._emit_union(datatype)
        raise EncodingError(f"cannot decode type {datatype!r}")

    def _emit_length(self) -> str:
        count = self.fresh("n")
        self.w(f"({count},) = _ulen(buf, off)")
        self.w(f"if {count} > _MAX: raise _seq_err({count})")
        self.w("off += 4")
        return count

    def _emit_sized(self, template: str) -> str:
        count = self._emit_length()
        end = self.fresh("end")
        value = self.fresh()
        self.w(f"{end} = off + {count}")
        self.w(f"if {end} > buflen: raise _trunc_err({count}, buflen - off)")
        self.w(f"{value} = " + template.format(end=end))
        self.w(f"off = {end}")
        return value

    def _emit_bool(self) -> str:
        # A lone bool: index + compare beats a one-byte Struct.unpack
        # (IndexError on a truncated buffer is mapped to EncodingError by
        # the codec's top-level decode).
        value = self.fresh()
        self.w(f"{value} = buf[off] != 0")
        self.w("off += 1")
        return value

    def _emit_unpack(self, codes: str) -> str:
        unpacker = struct.Struct("<" + codes)
        unpack = self.bind("u", unpacker.unpack_from)
        vals = self.fresh("vals")
        self.w(f"{vals} = {unpack}(buf, off)")
        self.w(f"off += {unpacker.size}")
        return vals

    def _emit_flat(self, datatype: DataType, codes: str) -> str:
        if _is_bool(datatype):
            return self._emit_bool()
        expr, _ = _flat_value_expr(datatype, self._emit_unpack(codes), 0)
        value = self.fresh()
        self.w(f"{value} = {expr}")
        return value

    def _emit_vector(self, datatype: VectorType) -> str:
        element = datatype.element
        code = (
            _FIXED_CODES.get(element.name)
            if isinstance(element, PrimitiveType)
            else None
        )
        value = self.fresh()
        if datatype.length is None and code is not None:
            itemsize = struct.calcsize("<" + code)
            count = self._emit_length()
            self.w(f"if {count}:")
            self.w(
                f"    {value} = list(_unpack_from('<%d{code}' % {count}, buf, off))"
            )
            self.w(f"    off += {count} * {itemsize}")
            self.w("else:")
            self.w(f"    {value} = []")
            return value
        count = (
            self._emit_length() if datatype.length is None else str(datatype.length)
        )
        self.w(f"{value} = []")
        self.w(f"for _ in range({count}):")
        self.indent += 1
        item = self.emit(element)
        self.w(f"{value}.append({item})")
        self.indent -= 1
        return value

    def _emit_struct(self, datatype: StructType) -> str:
        field_exprs: List[Tuple[str, str]] = []
        run: List[Tuple[str, DataType]] = []

        def flush_run():
            if not run:
                return
            # The lone-bool fast path must be exactly one field: zero-length
            # fixed vectors contribute no codes, so a run like
            # (bool, bool[0]) also has codes "?" but still needs every
            # field materialized.
            if len(run) == 1 and _is_bool(run[0][1]):
                field_exprs.append((run[0][0], self._emit_bool()))
                run.clear()
                return
            vals = self._emit_unpack(
                "".join(_flat_codes(ftype) for _, ftype in run)
            )
            index = 0
            for fname, ftype in run:
                expr, index = _flat_value_expr(ftype, vals, index)
                field_exprs.append((fname, expr))
            run.clear()

        for fname, ftype in datatype.fields:
            if _flat_codes(ftype) is not None:
                run.append((fname, ftype))
                continue
            flush_run()
            field_exprs.append((fname, self.emit(ftype)))
        flush_run()
        value = self.fresh()
        body = ", ".join(f"{n!r}: {e}" for n, e in field_exprs)
        self.w(f"{value} = {{{body}}}")
        return value

    def _emit_union(self, datatype: UnionType) -> str:
        # A truncated tag byte raises IndexError, mapped like the lone bool's.
        index = self.fresh("t")
        value = self.fresh()
        self.w(f"{index} = buf[off]")
        self.w("off += 1")
        for i, (tag, alt) in enumerate(datatype.alternatives):
            self.w(f"{'elif' if i else 'if'} {index} == {i}:")
            self.indent += 1
            inner = self.emit(alt)
            self.w(f"{value} = ({tag!r}, {inner})")
            self.indent -= 1
        self.w("else:")
        self.w(
            f"    raise _union_err({datatype.name!r}, "
            f"f'tag index {{{index}}} out of range')"
        )
        return value


class _EncoderGen(_SourceGen):
    """Emits ``_encode(value) -> bytes``: straight-line appends into one
    parts list, joined once."""

    def __init__(self):
        super().__init__("def _encode(value):")
        self.w("parts = []")
        self.w("ap = parts.append")

    def emit(self, datatype: DataType, src: str) -> None:
        codes = _flat_codes(datatype)
        if codes is not None:
            if _is_bool(datatype):
                # A lone bool between variable fields: branch beats a
                # one-byte Struct.pack call.
                self.w(f'ap(b"\\x01" if {src} else b"\\x00")')
                return
            # Arity-check every fixed vector before packing: with no count on
            # the wire, two compensating length mistakes could otherwise pack
            # "successfully" into wrong bytes.
            for vec_src, vec_type in _flat_vector_guards(datatype, src):
                err = self.bind("verr", _fixed_length_error(vec_type))
                self.w(f"if len({vec_src}) != {vec_type.length}:")
                self.w(f"    raise {err}(len({vec_src}))")
            pack = self.bind("p", struct.Struct("<" + codes).pack)
            args = ", ".join(_flat_arg_exprs(datatype, src))
            self.w(f"ap({pack}({args}))")
            return
        if isinstance(datatype, PrimitiveType):
            if datatype.name == "string":
                raw = self.fresh("raw")
                self.w(f'{raw} = {src}.encode("utf-8")')
                self.w(f"ap(_plen(len({raw})))")
                self.w(f"ap({raw})")
                return
            if datatype.name == "bytes":
                raw = self.fresh("raw")
                self.w(f"{raw} = {src}")
                self.w(f"ap(_plen(len({raw})))")
                self.w(f"ap(bytes({raw}))")
                return
            raise EncodingError(f"cannot encode type {datatype!r}")
        if self.indent > _MAX_INLINE_DEPTH:
            enc = self.bind("e", _generate_encoder(datatype))
            self.w(f"ap({enc}({src}))")
            return
        if isinstance(datatype, VectorType):
            self._emit_vector(datatype, src)
            return
        if isinstance(datatype, StructType):
            for fname, ftype in datatype.fields:
                self.emit(ftype, f"{src}[{fname!r}]")
            return
        if isinstance(datatype, UnionType):
            self._emit_union(datatype, src)
            return
        raise EncodingError(f"cannot encode type {datatype!r}")

    def _emit_vector(self, datatype: VectorType, src: str) -> None:
        element = datatype.element
        code = (
            _FIXED_CODES.get(element.name)
            if isinstance(element, PrimitiveType)
            else None
        )
        if datatype.length is None:
            seq = self.fresh("seq")
            count = self.fresh("n")
            self.w(f"{seq} = {src}")
            self.w(f"{count} = len({seq})")
            self.w(f"ap(_plen({count}))")
            if code is not None:
                self.w(f"if {count}:")
                self.w(f"    ap(_pack('<%d{code}' % {count}, *{seq}))")
                return
            item = self.fresh("item")
            self.w(f"for {item} in {seq}:")
            self.indent += 1
            self.emit(element, item)
            self.indent -= 1
            return
        # Fixed length, variable-size elements (fixed-width elements took the
        # flat path above). Guard the arity — there is no wire count to catch
        # a mismatch later.
        seq = self.fresh("seq")
        self.w(f"{seq} = {src}")
        self.w(f"if len({seq}) != {datatype.length}:")
        err = self.bind("verr", _fixed_length_error(datatype))
        self.w(f"    raise {err}(len({seq}))")
        item = self.fresh("item")
        self.w(f"for {item} in {seq}:")
        self.indent += 1
        self.emit(element, item)
        self.indent -= 1

    def _emit_union(self, datatype: UnionType, src: str) -> None:
        # A value that is not a pair fails the unpacking and reaches the
        # codec's lazy-validation fallback.
        tag = self.fresh("tag")
        inner = self.fresh("inner")
        self.w(f"{tag}, {inner} = {src}")
        for i, (name, alt) in enumerate(datatype.alternatives):
            self.w(f"{'elif' if i else 'if'} {tag} == {name!r}:")
            self.indent += 1
            self.w(f"ap({bytes((i,))!r})")
            self.emit(alt, inner)
            self.indent -= 1
        self.w("else:")
        self.w(
            f"    raise _union_err({datatype.name!r}, f'unknown tag {{{tag}!r}}')"
        )


def _flat_vector_guards(
    datatype: DataType, src: str
) -> List[Tuple[str, VectorType]]:
    """(source expression, vector type) for every fixed vector inside a
    fully fixed-width ``datatype`` rooted at ``src``."""
    if isinstance(datatype, PrimitiveType):
        return []
    if isinstance(datatype, VectorType):
        out = [(src, datatype)]
        if not isinstance(datatype.element, PrimitiveType):
            for i in range(datatype.length):
                out.extend(_flat_vector_guards(datatype.element, f"{src}[{i}]"))
        return out
    out = []
    for fname, ftype in datatype.fields:
        out.extend(_flat_vector_guards(ftype, f"{src}[{fname!r}]"))
    return out


def _fixed_length_error(datatype: VectorType):
    expected, desc = datatype.length, datatype.describe()

    def make(got):
        return EncodingError(
            f"expected vector of length {expected} for {desc}, got {got}"
        )

    return make


def _generate_decoder(datatype: DataType) -> _Decoder:
    gen = _DecoderGen()
    value = gen.emit(datatype)
    gen.w(f"return {value}, off")
    return gen.build("_decode", datatype)


def _generate_encoder(datatype: DataType) -> Callable[[Any], bytes]:
    gen = _EncoderGen()
    gen.emit(datatype, "value")
    gen.w("return _join(parts)")
    return gen.build("_encode", datatype)


# -- plan cache ------------------------------------------------------------------

#: What a generated decoder raises on bytes it cannot consume, besides the
#: EncodingErrors it builds itself.
_DECODE_FAULTS = (struct.error, IndexError, UnicodeDecodeError)


def _decode_fault(exc: Exception) -> EncodingError:
    if isinstance(exc, UnicodeDecodeError):
        return EncodingError(f"string is not UTF-8: {exc}")
    return EncodingError(f"truncated payload: {exc}")


def _bind(datatype: DataType, encoder: Callable[[Any], bytes], decoder: _Decoder):
    """The generated pair behind the codec's error contract, as the three
    one-argument callables ``CompiledCodec`` hands out: ``value -> bytes``,
    ``data -> value`` (whole buffer or raise) and ``data -> (value,
    consumed)``. The decoders slice whatever buffer they are given:
    ``bytes`` is sliced as bytes (cheapest), a ``memoryview`` of a larger
    buffer without copying. Nothing goes through BytesIO."""

    def encode(value: Any) -> bytes:
        try:
            return encoder(value)
        except EncodingError:
            raise
        except Exception:
            # Slow path: re-run the reference validator for its precise
            # EncodingError; if the value validates (float32 overflow,
            # surrogate strings, …) surface the original error, exactly as
            # BinaryCodec would.
            datatype.validate(value)
            raise

    def decode(data) -> Any:
        try:
            value, consumed = decoder(data, 0)
        except EncodingError:
            raise
        except _DECODE_FAULTS as exc:
            raise _decode_fault(exc) from exc
        if consumed != len(data):
            raise EncodingError(
                f"{len(data) - consumed} trailing bytes after decoding "
                f"{datatype.describe()}"
            )
        return value

    def decode_prefix(data) -> Tuple[Any, int]:
        try:
            return decoder(data, 0)
        except EncodingError:
            raise
        except _DECODE_FAULTS as exc:
            raise _decode_fault(exc) from exc

    return encode, decode, decode_prefix


#: Hashing a DataType re-renders describe() recursively, so the hot lookup is
#: keyed by object identity; a second describe()-keyed level shares compiled
#: plans between equal-but-distinct schema instances. Both caches keep a
#: reference to their datatype, so a live id() can never be recycled into a
#: stale entry. Bounded so adversarial schema churn cannot grow them forever.
_CACHE_LIMIT = 4096


def _generate_reader(datatype: DataType, lead: str) -> Optional[Tuple[Callable, int]]:
    """``(buf, off) -> (*lead fields, value)`` in one ``unpack_from`` and the
    value's size in bytes, or None when ``datatype`` is variable-size.
    ``lead`` holds one struct code per field. A primitive value is the
    unpacked tuple's last item as it is, so its reader is the bound
    ``unpack_from`` itself."""
    codes = _flat_codes(datatype)
    if codes is None:
        return None
    unpacker = struct.Struct("<" + lead + codes)
    size = struct.calcsize("<" + codes)
    if isinstance(datatype, PrimitiveType):
        return unpacker.unpack_from, size
    gen = _SourceGen("def _read(buf, off):")
    gen.w(f"vals = {gen.bind('u', unpacker.unpack_from)}(buf, off)")
    expr, _ = _flat_value_expr(datatype, "vals", len(lead))
    fields = [f"vals[{i}]" for i in range(len(lead))]
    gen.w(f"return {', '.join(fields + [expr])}")
    return gen.build("_read", datatype), size


class _Plan:
    """One compiled schema: the generated pair and its three bound forms,
    plus the fixed-record readers asked of it (by lead codes)."""

    __slots__ = ("datatype", "encoder", "decoder", "encode", "decode",
                 "decode_prefix", "readers")

    def __init__(self, datatype: DataType):
        self.datatype = datatype
        self.encoder: Callable[[Any], bytes] = _generate_encoder(datatype)
        self.decoder: _Decoder = _generate_decoder(datatype)
        self.encode, self.decode, self.decode_prefix = _bind(
            datatype, self.encoder, self.decoder
        )
        self.readers: Dict[str, Optional[Tuple[Callable, int]]] = {}

    def reader(self, lead: str) -> Optional[Tuple[Callable, int]]:
        if lead not in self.readers:
            self.readers[lead] = _generate_reader(self.datatype, lead)
        return self.readers[lead]


_BY_ID: Dict[int, Tuple[DataType, _Plan]] = {}
_BY_KEY: Dict[str, _Plan] = {}


def _plan(datatype: DataType) -> _Plan:
    hit = _BY_ID.get(id(datatype))
    if hit is not None and hit[0] is datatype:
        return hit[1]
    key = datatype.describe()
    plan = _BY_KEY.get(key)
    if plan is None:
        plan = _Plan(datatype)
        if len(_BY_KEY) >= _CACHE_LIMIT:
            _BY_KEY.clear()
        _BY_KEY[key] = plan
    if len(_BY_ID) >= _CACHE_LIMIT:
        _BY_ID.clear()
    _BY_ID[id(datatype)] = (datatype, plan)
    return plan


def compile_plan(datatype: DataType) -> Tuple[Callable[[Any], bytes], _Decoder]:
    """Compile (or fetch the cached) plan: a ``value -> bytes`` encoder and a
    ``(buf, offset) -> (value, offset)`` decoder."""
    plan = _plan(datatype)
    return plan.encoder, plan.decoder


def fixed_reader(datatype: DataType, lead: str) -> Optional[Tuple[Callable, int]]:
    """A reader of a record made of fixed fields ``lead`` (one struct code
    per field) followed by a value of ``datatype``, and the value's size in
    bytes; None when ``datatype`` is variable-size. The reader is ``(buf,
    off) -> (*lead fields, value)``, one ``unpack_from``.

    It checks nothing but what ``unpack_from`` does: the caller has checked
    the record's length and vouches for its lead fields. The value equals
    what the plan's decoder gives for the same bytes."""
    return _plan(datatype).reader(lead)


# -- the codec -------------------------------------------------------------------


class CompiledCodec(Codec):
    """Drop-in :class:`Codec` producing ``BinaryCodec``-identical bytes from
    schema-compiled plans. The bound forms (``encoder``/``decoder``/
    ``prefix_decoder``) are the plan's own callables, so a caller that binds
    once pays neither the plan lookup nor a wrapper per value."""

    name = "compiled"

    def encode(self, datatype: DataType, value: Any) -> bytes:
        return _plan(datatype).encode(value)

    def decode(self, datatype: DataType, data) -> Any:
        return _plan(datatype).decode(data)

    def decode_prefix(self, datatype: DataType, data) -> Tuple[Any, int]:
        """Decode one value off the front of ``data``; (value, consumed)."""
        return _plan(datatype).decode_prefix(data)

    def encoder(self, datatype: DataType) -> Callable[[Any], bytes]:
        return _plan(datatype).encode

    def decoder(self, datatype: DataType) -> Callable[[Any], Any]:
        return _plan(datatype).decode

    def prefix_decoder(self, datatype: DataType) -> Callable[[Any], Tuple[Any, int]]:
        return _plan(datatype).decode_prefix


register_codec(CompiledCodec())

__all__ = ["CompiledCodec", "compile_plan", "fixed_reader"]
