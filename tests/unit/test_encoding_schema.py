"""Tests for the C-like schema parser."""

import pytest

from repro.encoding import (
    FLOAT64,
    INT32,
    StructType,
    UnionType,
    VectorType,
    parse_type,
)
from repro.util.errors import EncodingError


class TestParser:
    def test_primitive(self):
        assert parse_type("float64") == FLOAT64

    def test_vector_suffix(self):
        assert parse_type("int32[]") == VectorType(INT32)
        assert parse_type("int32[5]") == VectorType(INT32, 5)
        assert parse_type("int32[2][3]") == VectorType(VectorType(INT32, 2), 3)

    def test_struct(self):
        t = parse_type("struct P { float64 x; float64 y; }")
        assert isinstance(t, StructType)
        assert t.name == "P"
        assert [f[0] for f in t.fields] == ["x", "y"]

    def test_c_style_field_array(self):
        t = parse_type("struct S { float64 samples[4]; }")
        assert t.fields[0][1] == VectorType(FLOAT64, 4)

    def test_union(self):
        t = parse_type("union R { int32 ok; string err; }")
        assert isinstance(t, UnionType)
        assert t.tag_index("err") == 1

    def test_nested_composite(self):
        t = parse_type(
            "struct Outer { struct Inner { int32 a; } inner; int32 b; }"
        )
        assert isinstance(t.fields[0][1], StructType)

    def test_describe_round_trips(self):
        declarations = [
            "struct P { float64 x; float64 y; }",
            "union R { int32 ok; string err; }",
            "int32[3]",
            "struct S { int8[] raw; struct Q { bool f; } q; }",
        ]
        for decl in declarations:
            t = parse_type(decl)
            assert parse_type(t.describe()) == t

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "floaty",
            "struct P { }",
            "struct P { float64 x }",
            "struct P { float64 x; ",
            "int32[-1]",
            "int32[x]",
            "int32 extra",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises((EncodingError, ValueError)):
            parse_type(bad)

    @pytest.mark.parametrize("text", ["Position", "struct Track { Point points[]; }"])
    def test_a_bare_name_that_is_no_primitive_raises(self, text):
        """Offers carry whole declarations: a bare name off the wire has
        nothing to resolve against."""
        with pytest.raises(EncodingError):
            parse_type(text)
