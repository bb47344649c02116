"""Tests for the type objects."""

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.typesystem import (
    PRIMITIVES,
    VOID,
    ArrayType,
    InvalidNameError,
    NamedType,
    PrimitiveType,
    QualifiedName,
    array_of,
    is_reference,
    named,
    type_package,
)
from repro.typesystem import names as names_module
from repro.typesystem import types as types_module


class TestPrimitivesAndVoid:
    def test_all_java_primitives_exist(self):
        assert set(PRIMITIVES) == {
            "boolean", "byte", "short", "char", "int", "long", "float", "double",
        }

    def test_primitive_display(self):
        assert str(PRIMITIVES["int"]) == "int"
        assert PRIMITIVES["int"].display == "int"

    def test_void_singleton_semantics(self):
        assert str(VOID) == "void"
        assert VOID == VOID
        assert not is_reference(VOID)

    def test_primitives_are_not_references(self):
        assert not is_reference(PRIMITIVES["boolean"])


class TestNamedType:
    def test_named_constructor(self):
        t = named("java.io.File")
        assert t.simple == "File"
        assert t.package == "java.io"
        assert str(t) == "java.io.File"
        assert is_reference(t)

    def test_equality_by_name(self):
        assert named("a.B") == named("a.B")
        assert named("a.B") != named("a.C")

    def test_hashable(self):
        assert len({named("a.B"), named("a.B"), named("a.C")}) == 2


class TestArrayType:
    def test_single_dimension(self):
        t = array_of(named("a.B"))
        assert str(t) == "a.B[]"
        assert t.dimensions == 1
        assert t.package == "a"
        assert is_reference(t)

    def test_multi_dimensional(self):
        t = array_of(named("a.B"), 3)
        assert str(t) == "a.B[][][]"
        assert t.dimensions == 3
        assert t.ultimate_element == named("a.B")

    def test_primitive_array(self):
        t = array_of(PRIMITIVES["int"], 2)
        assert str(t) == "int[][]"
        assert t.package == ""

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            array_of(named("a.B"), 0)


class TestTypePackage:
    def test_named(self):
        assert type_package(named("java.io.File")) == "java.io"

    def test_array(self):
        assert type_package(array_of(named("java.io.File"))) == "java.io"

    def test_primitive_and_void(self):
        assert type_package(PRIMITIVES["int"]) == ""
        assert type_package(VOID) == ""


class TestHashConsing:
    def test_named_is_one_instance_per_name(self):
        t = named("java.io.File")
        assert t is named("java.io.File")
        assert t is NamedType(QualifiedName.parse("java.io.File"))
        assert t is not named("java.io.Reader")
        assert NamedType.__eq__ is object.__eq__ and NamedType.__hash__ is object.__hash__

    def test_array_of_is_one_instance_per_element_and_depth(self):
        t = array_of(named("a.B"), 2)
        assert t is array_of(named("a.B"), 2)
        assert t is ArrayType(array_of(named("a.B")))
        assert t.element is array_of(named("a.B"))
        assert t is not array_of(named("a.B"), 3)
        assert array_of(PRIMITIVES["int"]) is array_of(PrimitiveType("int"))

    def test_malformed_name_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(InvalidNameError):
                named("java..File")
        assert "java..File" not in types_module._BY_DOTTED._refs

    def test_tables_drop_entries_when_the_last_reference_dies(self):
        dotted = "gone.by.Now"

        def entries():
            """Every table key that mentions the name."""
            tables = (names_module._NAMES, types_module._BY_DOTTED,
                      types_module._NAMED, types_module._ARRAYS)
            return [key for table in tables for key in list(table._refs)
                    if dotted in str(key) or key == ("gone.by", "Now")]

        t = array_of(named(dotted), 2)
        assert len(entries()) == 5  # name, dotted, named type, two arrays
        del t
        gc.collect()
        assert entries() == []

    @pytest.mark.parametrize(
        "make", [lambda: named("java.io.File"), lambda: array_of(named("java.io.File"), 2)]
    )
    def test_copies_return_the_canonical_instance(self, make):
        t = make()
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert dataclasses.replace(t) is t

    def test_replace_builds_the_other_canonical_instance(self):
        t = named("a.B")
        assert dataclasses.replace(t, name=QualifiedName.parse("a.C")) is named("a.C")
        arr = array_of(t)
        assert dataclasses.replace(arr, element=named("a.C")) is array_of(named("a.C"))

    def test_display_forms_unchanged(self):
        t = array_of(named("java.io.File"), 2)
        assert str(t) == t.display == "java.io.File[][]"
        assert repr(named("a.B")) == (
            "NamedType(name=QualifiedName(package='a', simple='B'))"
        )


class TestVariableStem:
    def test_stems(self):
        assert named("java.io.File").variable_stem == "file"
        assert named("a.URLConnection").variable_stem == "uRLConnection"
        assert array_of(named("a.B"), 2).variable_stem == "aB"
        assert PRIMITIVES["int"].variable_stem == "int"
        assert named("a.$").variable_stem == "arg"
        assert VOID.variable_stem == "void"

    def test_stem_is_cached_outside_the_fields(self):
        t = named("java.io.File")
        assert t.variable_stem is t.variable_stem
        assert "variable_stem" in vars(t)
        assert [f.name for f in dataclasses.fields(t)] == ["name"]
