"""Unit tests for the type system (PEPt Presentation)."""

import pytest

from repro.encoding import (
    BOOL,
    BYTES,
    FLOAT64,
    INT8,
    INT32,
    STRING,
    UINT8,
    UINT16,
    PrimitiveType,
    StructType,
    UnionType,
    VectorType,
    parse_type,
)
from repro.util.errors import EncodingError


class TestPrimitives:
    def test_bool_accepts_only_bool(self):
        BOOL.validate(True)
        with pytest.raises(EncodingError):
            BOOL.validate(1)

    def test_int_range_checks(self):
        INT8.validate(127)
        INT8.validate(-128)
        with pytest.raises(EncodingError):
            INT8.validate(128)
        with pytest.raises(EncodingError):
            UINT8.validate(-1)
        UINT16.validate(65535)
        with pytest.raises(EncodingError):
            UINT16.validate(65536)

    def test_bool_is_not_an_int(self):
        with pytest.raises(EncodingError):
            INT32.validate(True)

    def test_float_accepts_ints(self):
        FLOAT64.validate(3)
        FLOAT64.validate(3.14)
        with pytest.raises(EncodingError):
            FLOAT64.validate("3.14")

    def test_string_and_bytes(self):
        STRING.validate("hola")
        with pytest.raises(EncodingError):
            STRING.validate(b"hola")
        BYTES.validate(b"\x00\x01")
        BYTES.validate(bytearray(b"x"))
        with pytest.raises(EncodingError):
            BYTES.validate("x")

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveType("complex128")

    def test_describe_round_trip_name(self):
        assert INT32.describe() == "int32"
        assert repr(FLOAT64).endswith("float64>")


class TestVectors:
    def test_variable_length(self):
        v = VectorType(INT32)
        v.validate([1, 2, 3])
        v.validate([])
        with pytest.raises(EncodingError):
            v.validate("not a list")

    def test_fixed_length(self):
        v = VectorType(FLOAT64, length=3)
        v.validate([1.0, 2.0, 3.0])
        with pytest.raises(EncodingError):
            v.validate([1.0, 2.0])

    def test_element_errors_carry_index(self):
        v = VectorType(INT8)
        with pytest.raises(EncodingError, match="element 1"):
            v.validate([1, 999])

    def test_describe(self):
        assert VectorType(INT32).describe() == "int32[]"
        assert VectorType(INT32, 4).describe() == "int32[4]"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            VectorType(INT32, length=-1)


class TestStructs:
    def test_exact_field_set_required(self):
        s = StructType("P", [("x", FLOAT64), ("y", FLOAT64)])
        s.validate({"x": 1.0, "y": 2.0})
        with pytest.raises(EncodingError, match="missing"):
            s.validate({"x": 1.0})
        with pytest.raises(EncodingError, match="unexpected"):
            s.validate({"x": 1.0, "y": 2.0, "z": 3.0})

    def test_nested_error_paths(self):
        s = StructType("P", [("pos", VectorType(FLOAT64, 2))])
        with pytest.raises(EncodingError, match="P.pos"):
            s.validate({"pos": [1.0]})

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            StructType("P", [("x", FLOAT64), ("x", FLOAT64)])

    def test_empty_struct_rejected(self):
        with pytest.raises(ValueError):
            StructType("P", [])

    def test_equality_is_structural(self):
        a = StructType("P", [("x", FLOAT64)])
        b = StructType("P", [("x", FLOAT64)])
        c = StructType("P", [("x", INT32)])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)


class TestUnions:
    def test_tagged_value(self):
        u = UnionType("R", [("ok", INT32), ("err", STRING)])
        u.validate(("ok", 5))
        u.validate(("err", "boom"))
        with pytest.raises(EncodingError, match="unknown tag"):
            u.validate(("warn", 1))

    def test_value_shape(self):
        u = UnionType("R", [("ok", INT32)])
        with pytest.raises(EncodingError):
            u.validate("ok")
        with pytest.raises(EncodingError):
            u.validate(("ok", "not an int"))

    def test_tag_index(self):
        u = UnionType("R", [("a", INT32), ("b", STRING)])
        assert u.tag_index("b") == 1
        with pytest.raises(EncodingError):
            u.tag_index("c")

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValueError):
            UnionType("R", [("a", INT32), ("a", STRING)])

    def test_tag_space_is_one_byte(self):
        # The wire tag is a uint8: 256 alternatives fit, 257 do not — checked
        # here once, for every codec and for the schema parser.
        UnionType("R", [(f"t{i}", INT32) for i in range(256)])
        with pytest.raises(ValueError, match="uint8 tag space"):
            UnionType("R", [(f"t{i}", INT32) for i in range(257)])
        body = " ".join(f"int32 t{i};" for i in range(257))
        with pytest.raises(ValueError, match="uint8 tag space"):
            parse_type(f"union R {{ {body} }}")
