"""Schema-compiled binary codec: flat pack/unpack plans, zero-copy decode.

:class:`~repro.encoding.binary.BinaryCodec` walks the schema tree with
``isinstance`` dispatch for every value it marshals. This module compiles a
:class:`DataType` **once** into a pair of closures — an encoder appending
byte chunks and a decoder tracking an offset into a ``memoryview`` — and
caches the plan per schema. Three flattening rules make the plans fast:

1. **Run coalescing** — adjacent fixed-width struct fields (including
   nested all-fixed structs and fixed-length vectors of fixed-width
   primitives) collapse into a single precomputed :class:`struct.Struct`
   pack/unpack.
2. **Vector batching** — vectors of fixed-width primitives pack/unpack all
   elements in one ``struct`` call instead of one Python call per element.
3. **Zero-copy decode** — decoding slices a ``memoryview`` with explicit
   offset tracking; strings decode straight out of the buffer and nothing
   is funneled through ``BytesIO``.

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
from repro.encoding.codec import register_codec
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

#: Encoders receive ``(value, append)`` and push byte chunks; decoders
#: receive ``(buf, offset)`` and return ``(value, new_offset)``.
_Encoder = Callable[[Any, Callable[[bytes], None]], None]
_Decoder = Callable[[memoryview, int], Tuple[Any, int]]


class _Flat:
    """Flat layout of a fully fixed-width type: its struct format codes plus
    closures to splice values into / rebuild values from a scalar run."""

    __slots__ = ("codes", "scalar", "flatten", "build")

    def __init__(self, codes: str, scalar: bool, flatten, build):
        self.codes = codes
        self.scalar = scalar  # a single primitive (one unpacked slot)
        self.flatten = flatten  # (value, append_scalar) -> None
        self.build = build  # (values, i) -> (value, i)


def _flat_layout(datatype: DataType) -> Optional[_Flat]:
    """The flat layout of ``datatype``, or None if it is variable-size."""
    if isinstance(datatype, PrimitiveType):
        code = _FIXED_CODES.get(datatype.name)
        if code is None:
            return None

        def flatten(value, append):
            append(value)

        def build(values, i):
            return values[i], i + 1

        return _Flat(code, True, flatten, build)

    if isinstance(datatype, VectorType) and datatype.length is not None:
        inner = _flat_layout(datatype.element)
        if inner is None:
            return None
        n = datatype.length
        desc = datatype.describe()
        if inner.scalar:

            def flatten(value, append, _n=n, _desc=desc):
                if len(value) != _n:
                    raise EncodingError(
                        f"expected vector of length {_n} for {_desc}, got {len(value)}"
                    )
                for item in value:
                    append(item)

            def build(values, i, _n=n):
                return list(values[i : i + _n]), i + _n

        else:

            def flatten(value, append, _n=n, _f=inner.flatten, _desc=desc):
                if len(value) != _n:
                    raise EncodingError(
                        f"expected vector of length {_n} for {_desc}, got {len(value)}"
                    )
                for item in value:
                    _f(item, append)

            def build(values, i, _n=n, _b=inner.build):
                out = []
                for _ in range(_n):
                    item, i = _b(values, i)
                    out.append(item)
                return out, i

        return _Flat(inner.codes * n, False, flatten, build)

    if isinstance(datatype, StructType):
        parts: List[Tuple[str, _Flat]] = []
        for fname, ftype in datatype.fields:
            inner = _flat_layout(ftype)
            if inner is None:
                return None
            parts.append((fname, inner))
        entries = tuple(parts)

        def flatten(value, append, _entries=entries):
            for fname, flat in _entries:
                flat.flatten(value[fname], append)

        def build(values, i, _entries=entries):
            out = {}
            for fname, flat in _entries:
                out[fname], i = flat.build(values, i)
            return out, i

        return _Flat("".join(f.codes for _, f in parts), False, flatten, build)

    return None


# -- encoder compilation ---------------------------------------------------------


def _run_encoder(run: List[Tuple[str, _Flat]]):
    """One encode step for a coalesced run of fixed-width struct fields."""
    pack = struct.Struct("<" + "".join(f.codes for _, f in run)).pack
    if all(f.scalar for _, f in run):
        names = tuple(name for name, _ in run)

        def step(value, append, _pack=pack, _names=names):
            append(_pack(*[value[n] for n in _names]))

        return step

    entries = tuple(run)

    def step(value, append, _pack=pack, _entries=entries):
        args: List[Any] = []
        push = args.append
        for name, flat in _entries:
            flat.flatten(value[name], push)
        append(_pack(*args))

    return step


def _compile_encoder(datatype: DataType) -> _Encoder:
    flat = _flat_layout(datatype)
    if flat is not None:
        pack = struct.Struct("<" + flat.codes).pack
        if flat.scalar:

            def enc(value, append, _pack=pack):
                append(_pack(value))

            return enc
        if isinstance(datatype, StructType) and all(
            isinstance(ftype, PrimitiveType) for _, ftype in datatype.fields
        ):
            names = tuple(name for name, _ in datatype.fields)

            def enc(value, append, _pack=pack, _names=names):
                append(_pack(*[value[n] for n in _names]))

            return enc
        flatten = flat.flatten

        def enc(value, append, _pack=pack, _flatten=flatten):
            args: List[Any] = []
            _flatten(value, args.append)
            append(_pack(*args))

        return enc

    if isinstance(datatype, PrimitiveType):
        if datatype.name == "string":

            def enc(value, append, _lpack=_LEN.pack):
                raw = value.encode("utf-8")
                append(_lpack(len(raw)))
                append(raw)

            return enc
        if datatype.name == "bytes":

            def enc(value, append, _lpack=_LEN.pack):
                append(_lpack(len(value)))
                append(bytes(value))

            return enc
        raise EncodingError(f"cannot encode type {datatype!r}")

    if isinstance(datatype, VectorType):
        element = datatype.element
        code = (
            _FIXED_CODES.get(element.name)
            if isinstance(element, PrimitiveType)
            else None
        )
        if datatype.length is None:
            if code is not None:
                # Batch: one struct.pack for the whole element run.
                def enc(value, append, _lpack=_LEN.pack, _code=code):
                    n = len(value)
                    append(_lpack(n))
                    if n:
                        append(struct.pack("<%d%s" % (n, _code), *value))

                return enc
            elem_enc = _compile_encoder(element)

            def enc(value, append, _lpack=_LEN.pack, _e=elem_enc):
                append(_lpack(len(value)))
                for item in value:
                    _e(item, append)

            return enc
        # Fixed length with variable-size elements (fixed-width elements were
        # handled by the flat fast path above).
        elem_enc = _compile_encoder(element)
        length = datatype.length
        desc = datatype.describe()

        def enc(value, append, _n=length, _e=elem_enc, _desc=desc):
            if len(value) != _n:
                raise EncodingError(
                    f"expected vector of length {_n} for {_desc}, got {len(value)}"
                )
            for item in value:
                _e(item, append)

        return enc

    if isinstance(datatype, StructType):
        steps = []
        run: List[Tuple[str, _Flat]] = []
        for fname, ftype in datatype.fields:
            flat_field = _flat_layout(ftype)
            if flat_field is not None:
                run.append((fname, flat_field))
                continue
            if run:
                steps.append(_run_encoder(run))
                run = []
            field_enc = _compile_encoder(ftype)

            def step(value, append, _name=fname, _e=field_enc):
                _e(value[_name], append)

            steps.append(step)
        if run:
            steps.append(_run_encoder(run))
        if len(steps) == 1:
            return steps[0]
        step_tuple = tuple(steps)

        def enc(value, append, _steps=step_tuple):
            for step in _steps:
                step(value, append)

        return enc

    if isinstance(datatype, UnionType):
        if len(datatype.alternatives) > 256:
            raise EncodingError(
                f"union {datatype.name}: {len(datatype.alternatives)} alternatives "
                f"exceed the uint8 tag space"
            )
        table = {
            tag: (bytes((index,)), _compile_encoder(alt))
            for index, (tag, alt) in enumerate(datatype.alternatives)
        }
        uname = datatype.name

        def enc(value, append, _table=table, _uname=uname):
            tag, inner = value
            try:
                prefix, inner_enc = _table[tag]
            except (KeyError, TypeError):
                raise EncodingError(f"union {_uname}: unknown tag {tag!r}") from None
            append(prefix)
            inner_enc(inner, append)

        return enc

    raise EncodingError(f"cannot encode type {datatype!r}")


# -- decoder compilation ---------------------------------------------------------


def _read_length(buf: memoryview, offset: int) -> Tuple[int, int]:
    (length,) = _LEN.unpack_from(buf, offset)
    if length > MAX_SEQUENCE_LENGTH:
        raise EncodingError(f"sequence length {length} exceeds sanity limit")
    return length, offset + 4


def _run_decoder(run: List[Tuple[str, _Flat]]):
    """One decode step for a coalesced run of fixed-width struct fields."""
    unpacker = struct.Struct("<" + "".join(f.codes for _, f in run))
    if all(f.scalar for _, f in run):
        names = tuple(name for name, _ in run)

        def step(buf, offset, out, _unpack=unpacker.unpack_from, _size=unpacker.size, _names=names):
            out.update(zip(_names, _unpack(buf, offset)))
            return offset + _size

        return step

    entries = tuple(run)

    def step(buf, offset, out, _unpack=unpacker.unpack_from, _size=unpacker.size, _entries=entries):
        values = _unpack(buf, offset)
        i = 0
        for name, flat in _entries:
            out[name], i = flat.build(values, i)
        return offset + _size

    return step


def _compile_decoder(datatype: DataType) -> _Decoder:
    flat = _flat_layout(datatype)
    if flat is not None:
        unpacker = struct.Struct("<" + flat.codes)
        if flat.scalar:

            def dec(buf, offset, _unpack=unpacker.unpack_from, _size=unpacker.size):
                return _unpack(buf, offset)[0], offset + _size

            return dec
        if isinstance(datatype, StructType) and all(
            isinstance(ftype, PrimitiveType) for _, ftype in datatype.fields
        ):
            names = tuple(name for name, _ in datatype.fields)

            def dec(buf, offset, _unpack=unpacker.unpack_from, _size=unpacker.size, _names=names):
                return dict(zip(_names, _unpack(buf, offset))), offset + _size

            return dec
        build = flat.build

        def dec(buf, offset, _unpack=unpacker.unpack_from, _size=unpacker.size, _build=build):
            value, _ = _build(_unpack(buf, offset), 0)
            return value, offset + _size

        return dec

    if isinstance(datatype, PrimitiveType):
        if datatype.name == "string":

            def dec(buf, offset):
                length, offset = _read_length(buf, offset)
                end = offset + length
                if end > len(buf):
                    raise EncodingError(
                        f"truncated payload: wanted {length} bytes, "
                        f"got {len(buf) - offset}"
                    )
                return str(buf[offset:end], "utf-8"), end

            return dec
        if datatype.name == "bytes":

            def dec(buf, offset):
                length, offset = _read_length(buf, offset)
                end = offset + length
                if end > len(buf):
                    raise EncodingError(
                        f"truncated payload: wanted {length} bytes, "
                        f"got {len(buf) - offset}"
                    )
                return bytes(buf[offset:end]), end

            return dec
        raise EncodingError(f"cannot decode type {datatype!r}")

    if isinstance(datatype, VectorType):
        element = datatype.element
        code = (
            _FIXED_CODES.get(element.name)
            if isinstance(element, PrimitiveType)
            else None
        )
        if datatype.length is None:
            if code is not None:
                itemsize = struct.calcsize("<" + code)

                def dec(buf, offset, _code=code, _itemsize=itemsize):
                    count, offset = _read_length(buf, offset)
                    if not count:
                        return [], offset
                    values = struct.unpack_from("<%d%s" % (count, _code), buf, offset)
                    return list(values), offset + count * _itemsize

                return dec
            elem_dec = _compile_decoder(element)

            def dec(buf, offset, _e=elem_dec):
                count, offset = _read_length(buf, offset)
                out = []
                push = out.append
                for _ in range(count):
                    item, offset = _e(buf, offset)
                    push(item)
                return out, offset

            return dec
        elem_dec = _compile_decoder(element)
        length = datatype.length

        def dec(buf, offset, _n=length, _e=elem_dec):
            out = []
            push = out.append
            for _ in range(_n):
                item, offset = _e(buf, offset)
                push(item)
            return out, offset

        return dec

    if isinstance(datatype, StructType):
        steps = []
        run: List[Tuple[str, _Flat]] = []
        for fname, ftype in datatype.fields:
            flat_field = _flat_layout(ftype)
            if flat_field is not None:
                run.append((fname, flat_field))
                continue
            if run:
                steps.append(_run_decoder(run))
                run = []
            field_dec = _compile_decoder(ftype)

            def step(buf, offset, out, _name=fname, _d=field_dec):
                out[_name], offset = _d(buf, offset)
                return offset

            steps.append(step)
        if run:
            steps.append(_run_decoder(run))
        step_tuple = tuple(steps)

        def dec(buf, offset, _steps=step_tuple):
            out: Dict[str, Any] = {}
            for step in _steps:
                offset = step(buf, offset, out)
            return out, offset

        return dec

    if isinstance(datatype, UnionType):
        alternatives = tuple(
            (tag, _compile_decoder(alt)) for tag, alt in datatype.alternatives
        )
        uname = datatype.name

        def dec(buf, offset, _alts=alternatives, _count=len(alternatives), _uname=uname):
            try:
                index = buf[offset]
            except IndexError:
                raise EncodingError(
                    "truncated payload: wanted 1 byte for union tag, got 0"
                ) from None
            if index >= _count:
                raise EncodingError(f"union {_uname}: tag index {index} out of range")
            tag, alt_dec = _alts[index]
            value, offset = alt_dec(buf, offset + 1)
            return (tag, value), offset

        return dec

    raise EncodingError(f"cannot decode type {datatype!r}")


# -- generated-source plans ------------------------------------------------------
#
# The closure plans above are the general implementation (and the fallback);
# for the hot path the compiler goes one step further and emits straight-line
# Python source per schema — no per-field closure calls, no step loops — then
# ``exec``s it once. Unions and any construct the generator does not inline
# are delegated to the closure plans bound into the generated function's
# globals, so the two layers always agree.


def _seq_err(length):
    return EncodingError(f"sequence length {length} exceeds sanity limit")


def _trunc_err(wanted, got):
    return EncodingError(f"truncated payload: wanted {wanted} bytes, got {got}")


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
    # StructType — _flat_layout guarantees nothing else reaches here.
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
        flat = _flat_layout(datatype)
        if flat is not None:
            return self._emit_flat(datatype, flat)
        if isinstance(datatype, PrimitiveType):
            if datatype.name == "string":
                return self._emit_sized('str(buf[off:{end}], "utf-8")')
            if datatype.name == "bytes":
                return self._emit_sized("bytes(buf[off:{end}])")
            raise EncodingError(f"cannot decode type {datatype!r}")
        if isinstance(datatype, VectorType):
            return self._emit_vector(datatype)
        if isinstance(datatype, StructType):
            return self._emit_struct(datatype)
        if isinstance(datatype, UnionType):
            dec = self.bind("ud", _compile_decoder(datatype))
            value = self.fresh()
            self.w(f"{value}, off = {dec}(buf, off)")
            return value
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

    def _emit_flat(self, datatype: DataType, flat: _Flat) -> str:
        if flat.codes == "?" and flat.scalar:
            # A lone bool: index + compare beats a one-byte Struct.unpack
            # (IndexError on a truncated buffer is mapped to EncodingError
            # by the codec's top-level decode).
            value = self.fresh()
            self.w(f"{value} = buf[off] != 0")
            self.w("off += 1")
            return value
        unpacker = struct.Struct("<" + flat.codes)
        unpack = self.bind("u", unpacker.unpack_from)
        vals = self.fresh("vals")
        self.w(f"{vals} = {unpack}(buf, off)")
        self.w(f"off += {unpacker.size}")
        expr, _ = _flat_value_expr(datatype, vals, 0)
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
            codes = "".join(_flat_layout(ftype).codes for _, ftype in run)
            # The lone-bool fast path must be exactly one field: zero-length
            # fixed vectors contribute no codes, so a run like
            # (bool, bool[0]) also has codes "?" but still needs every
            # field materialized.
            if len(run) == 1 and codes == "?" and _flat_layout(run[0][1]).scalar:
                value = self.fresh()
                self.w(f"{value} = buf[off] != 0")
                self.w("off += 1")
                field_exprs.append((run[0][0], value))
                run.clear()
                return
            unpacker = struct.Struct("<" + codes)
            unpack = self.bind("u", unpacker.unpack_from)
            vals = self.fresh("vals")
            self.w(f"{vals} = {unpack}(buf, off)")
            self.w(f"off += {unpacker.size}")
            index = 0
            for fname, ftype in run:
                expr, index = _flat_value_expr(ftype, vals, index)
                field_exprs.append((fname, expr))
            run.clear()

        for fname, ftype in datatype.fields:
            if _flat_layout(ftype) is not None:
                run.append((fname, ftype))
                continue
            flush_run()
            field_exprs.append((fname, self.emit(ftype)))
        flush_run()
        value = self.fresh()
        body = ", ".join(f"{n!r}: {e}" for n, e in field_exprs)
        self.w(f"{value} = {{{body}}}")
        return value


class _EncoderGen(_SourceGen):
    """Emits ``_encode(value) -> bytes``: straight-line appends into one
    parts list, joined once."""

    def __init__(self):
        super().__init__("def _encode(value):")
        self.w("parts = []")
        self.w("ap = parts.append")

    def emit(self, datatype: DataType, src: str) -> None:
        flat = _flat_layout(datatype)
        if flat is not None:
            if flat.codes == "?" and flat.scalar:
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
            pack = self.bind("p", struct.Struct("<" + flat.codes).pack)
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
        if isinstance(datatype, VectorType):
            self._emit_vector(datatype, src)
            return
        if isinstance(datatype, StructType):
            for fname, ftype in datatype.fields:
                self.emit(ftype, f"{src}[{fname!r}]")
            return
        if isinstance(datatype, UnionType):
            enc = self.bind("ue", _compile_encoder(datatype))
            self.w(f"{enc}({src}, ap)")
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

def _wrap_closure_encoder(encoder: _Encoder) -> Callable[[Any], bytes]:
    def encode_value(value, _enc=encoder, _join=b"".join):
        parts: List[bytes] = []
        _enc(value, parts.append)
        return _join(parts)

    return encode_value


def _build_plan(datatype: DataType) -> Tuple[Callable[[Any], bytes], _Decoder]:
    """(value → bytes encoder, (buf, offset) → (value, offset) decoder),
    preferring generated source and falling back to the closure plans."""
    try:
        encoder = _generate_encoder(datatype)
    except SyntaxError:  # pragma: no cover — codegen bug safety net
        encoder = _wrap_closure_encoder(_compile_encoder(datatype))
    try:
        decoder = _generate_decoder(datatype)
    except SyntaxError:  # pragma: no cover — codegen bug safety net
        decoder = _compile_decoder(datatype)
    return encoder, decoder


#: Hashing a DataType re-renders describe() recursively, so the hot lookup is
#: keyed by object identity; a second describe()-keyed level shares compiled
#: plans between equal-but-distinct schema instances. Both caches keep a
#: reference to their datatype, so a live id() can never be recycled into a
#: stale entry. Bounded so adversarial schema churn cannot grow them forever.
_CACHE_LIMIT = 4096
_PlanEntry = Tuple[DataType, Callable[[Any], bytes], _Decoder]
_BY_ID: Dict[int, _PlanEntry] = {}
_BY_KEY: Dict[str, _PlanEntry] = {}


def _plan(datatype: DataType) -> _PlanEntry:
    entry = _BY_ID.get(id(datatype))
    if entry is not None and entry[0] is datatype:
        return entry
    key = datatype.describe()
    shared = _BY_KEY.get(key)
    if shared is None:
        encoder, decoder = _build_plan(datatype)
        shared = (datatype, encoder, decoder)
        if len(_BY_KEY) >= _CACHE_LIMIT:
            _BY_KEY.clear()
        _BY_KEY[key] = shared
    entry = (datatype, shared[1], shared[2])
    if len(_BY_ID) >= _CACHE_LIMIT:
        _BY_ID.clear()
    _BY_ID[id(datatype)] = entry
    return entry


def compile_plan(datatype: DataType) -> Tuple[Callable[[Any], bytes], _Decoder]:
    """Compile (or fetch the cached) plan: a ``value -> bytes`` encoder and a
    ``(buf, offset) -> (value, offset)`` decoder."""
    entry = _plan(datatype)
    return entry[1], entry[2]


# -- the codec -------------------------------------------------------------------


class CompiledCodec:
    """Drop-in :class:`Codec` producing ``BinaryCodec``-identical bytes from
    schema-compiled plans."""

    name = "compiled"

    def encode(self, datatype: DataType, value: Any) -> bytes:
        encoder = _plan(datatype)[1]
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

    def decode(self, datatype: DataType, data) -> Any:
        value, consumed, total = self._decode(datatype, data)
        if consumed != total:
            raise EncodingError(
                f"{total - consumed} trailing bytes after decoding "
                f"{datatype.describe()}"
            )
        return value

    def decode_prefix(self, datatype: DataType, data) -> Tuple[Any, int]:
        """Decode one value off the front of ``data``; (value, consumed)."""
        value, consumed, _ = self._decode(datatype, data)
        return value, consumed

    def _decode(self, datatype: DataType, data) -> Tuple[Any, int, int]:
        # The decoder slices whatever buffer it is given: ``bytes`` input is
        # sliced as bytes (cheapest), a ``memoryview`` of a larger buffer is
        # sliced without copying. Nothing goes through BytesIO.
        decoder = _plan(datatype)[2]
        try:
            value, consumed = decoder(data, 0)
        except EncodingError:
            raise
        except (struct.error, IndexError) as exc:
            raise EncodingError(f"truncated payload: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise EncodingError(f"string is not UTF-8: {exc}") from exc
        return value, consumed, len(data)


register_codec(CompiledCodec())

__all__ = ["CompiledCodec", "compile_plan"]
