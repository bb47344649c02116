"""Tests for qualified names and package distance."""

import copy
import dataclasses
import gc
import itertools
import os
import pickle
import sys
import threading
import weakref

import pytest

from repro.typesystem import (
    InvalidNameError,
    QualifiedName,
    check_dotted,
    check_identifier,
    is_identifier,
    named,
    package_distance,
)
from repro.typesystem import names as names_module

#: Fresh package names, so each test builds names no other test holds.
_fresh = (f"fresh{i}" for i in itertools.count())


class TestIdentifiers:
    def test_simple_identifiers(self):
        assert is_identifier("foo")
        assert is_identifier("Foo")
        assert is_identifier("_x1")
        assert is_identifier("$gen")

    def test_invalid_identifiers(self):
        assert not is_identifier("")
        assert not is_identifier("1abc")
        assert not is_identifier("a-b")
        assert not is_identifier("a.b")

    def test_check_identifier_returns_input(self):
        assert check_identifier("ok") == "ok"

    def test_check_identifier_raises(self):
        with pytest.raises(InvalidNameError):
            check_identifier("not ok")


class TestQualifiedName:
    def test_parse_dotted(self):
        qn = QualifiedName.parse("java.io.File")
        assert qn.package == "java.io"
        assert qn.simple == "File"
        assert qn.dotted == "java.io.File"

    def test_parse_simple(self):
        qn = QualifiedName.parse("File")
        assert qn.package == ""
        assert qn.dotted == "File"

    def test_parse_empty_raises(self):
        with pytest.raises(InvalidNameError):
            QualifiedName.parse("")

    def test_invalid_segment_raises(self):
        with pytest.raises(InvalidNameError):
            QualifiedName("java.2bad", "File")
        with pytest.raises(InvalidNameError):
            QualifiedName("java.io", "File!")

    def test_package_parts(self):
        assert QualifiedName.parse("a.b.C").package_parts() == ("a", "b")
        assert QualifiedName.parse("C").package_parts() == ()

    def test_equality_and_hash(self):
        a = QualifiedName.parse("java.io.File")
        b = QualifiedName("java.io", "File")
        assert a == b
        assert hash(a) == hash(b)

    def test_ordering(self):
        a = QualifiedName.parse("a.b.X")
        b = QualifiedName.parse("a.c.A")
        assert a < b

    def test_str(self):
        assert str(QualifiedName.parse("x.Y")) == "x.Y"


class TestCheckDotted:
    @pytest.mark.parametrize("text", ["java.io.File", "File", "$a._b.C1", ".A", "a.B\n"])
    def test_accepts_what_parse_accepts(self, text):
        QualifiedName.parse(text)
        assert check_dotted(text) == text

    @pytest.mark.parametrize("text", ["", "a..B", "a.", "1a.B", "a.B!", "a b.C", "a.b-c.D"])
    def test_raises_what_parse_raises(self, text):
        with pytest.raises(InvalidNameError) as parsed:
            QualifiedName.parse(text)
        with pytest.raises(InvalidNameError) as checked:
            check_dotted(text)
        assert str(checked.value) == str(parsed.value)


class TestHashConsing:
    def test_one_instance_per_value(self):
        a = QualifiedName.parse("java.io.File")
        assert a is QualifiedName("java.io", "File")
        assert a is QualifiedName(package="java.io", simple="File")
        assert a is not QualifiedName.parse("java.io.Files")

    def test_equality_and_hash_are_identity(self):
        assert QualifiedName.__eq__ is object.__eq__
        assert QualifiedName.__hash__ is object.__hash__

    def test_malformed_name_raises_every_time_and_is_not_stored(self):
        for _ in range(3):
            with pytest.raises(InvalidNameError, match="2bad"):
                QualifiedName("java.2bad", "File")
            with pytest.raises(InvalidNameError, match="empty name"):
                QualifiedName.parse("")
        assert ("java.2bad", "File") not in names_module._NAMES._refs

    def test_table_drops_an_entry_when_its_last_reference_dies(self):
        package = next(_fresh)
        name = QualifiedName(package, "Gone")
        assert names_module._NAMES.get((package, "Gone")) is name
        del name
        gc.collect()
        assert (package, "Gone") not in names_module._NAMES._refs

    def test_a_stale_callback_keeps_the_live_entry(self):
        # A callback for an instance that died before the entry was
        # replaced must not drop the replacement.
        class Value:
            pass

        table = names_module.InternTable()
        live = table.add("k", Value)
        stale = weakref.KeyedRef(Value(), None, "k")
        table._forget(stale)
        assert table.get("k") is live

    def test_copies_return_the_canonical_instance(self):
        name = QualifiedName.parse("java.io.File")
        assert copy.copy(name) is name
        assert copy.deepcopy(name) is name
        assert pickle.loads(pickle.dumps(name)) is name
        assert dataclasses.replace(name) is name
        assert dataclasses.replace(name, simple="Reader") is QualifiedName.parse(
            "java.io.Reader"
        )

    def test_frozen(self):
        name = QualifiedName.parse("java.io.File")
        with pytest.raises(dataclasses.FrozenInstanceError):
            name.simple = "Other"  # type: ignore[misc]

    def test_ordering_compares_package_then_simple(self):
        texts = ["b.A", "a.c.A", "a.b.Z", "A", "a.b.B", "Z", "a.b"]
        names = [QualifiedName.parse(t) for t in texts]
        assert sorted(names) == sorted(names, key=lambda n: (n.package, n.simple))
        a, b = QualifiedName.parse("a.b.X"), QualifiedName.parse("a.c.A")
        assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
        assert not (a < a)
        with pytest.raises(TypeError):
            _ = a < "a.b.X"

    def test_display_forms_unchanged(self):
        name = QualifiedName.parse("x.y.Z")
        assert str(name) == name.dotted == "x.y.Z"
        assert repr(name) == "QualifiedName(package='x.y', simple='Z')"

    def test_racing_threads_get_identical_objects(self):
        package = next(_fresh)
        texts = [f"{package}.p{i % 7}.C{i}" for i in range(1000)]
        workers = (os.cpu_count() or 1) + 1  # more threads than cores
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def build(slot):
            barrier.wait()
            results[slot] = [(QualifiedName.parse(t), named(t)) for t in texts]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        first = results[0]
        for other in results[1:]:
            assert len(other) == len(first)
            for (name_a, type_a), (name_b, type_b) in zip(first, other):
                assert name_a is name_b and type_a is type_b
        assert all(t.name is name for name, t in first)


class TestPackageDistance:
    def test_identity(self):
        assert package_distance("java.io", "java.io") == 0

    def test_parent_child(self):
        assert package_distance("java", "java.io") == 1
        assert package_distance("java.io", "java") == 1

    def test_siblings(self):
        assert package_distance("java.io", "java.util") == 2

    def test_disjoint_trees(self):
        assert package_distance("java.io", "org.apache.lucene.demo.html") == 7

    def test_default_package(self):
        assert package_distance("", "") == 0
        assert package_distance("", "java") == 1

    def test_symmetry(self):
        assert package_distance("a.b.c", "a.x") == package_distance("a.x", "a.b.c")
