"""Tests for the mini-Java pretty-printer."""

import pytest

from repro.data import corpus_texts
from repro.minijava import parse_minijava
from repro.minijava.parser import parse_minijava as parse

from .minijava_printer import print_expression, print_unit


def roundtrip(source: str) -> str:
    return print_unit(parse_minijava(source, "t.mj"))


def expr_roundtrip(expr_text: str) -> str:
    unit = parse_minijava(
        f"package p; class C {{ void m() {{ Object o = {expr_text}; }} }}"
    )
    decl = unit.classes[0].methods[0].body.statements[0]
    return print_expression(decl.init)


class TestExpressions:
    @pytest.mark.parametrize(
        "text",
        [
            "x.a().b(1, 2)",
            'new p.Foo("s", null)',
            "(p.Foo) x",
            "((p.Foo) x).bar()",
            "this.helper(x)",
            "a + b * c",
            "(a + b) * c",
            "!flag && x == null",
            "a - b - c",
        ],
    )
    def test_expression_fixpoint(self, text):
        once = expr_roundtrip(text)
        unit = parse_minijava(
            f"package p; class C {{ void m() {{ Object o = {once}; }} }}"
        )
        twice = print_expression(unit.classes[0].methods[0].body.statements[0].init)
        assert once == twice

    def test_precedence_parenthesized(self):
        assert expr_roundtrip("(a + b) * c") == "(a + b) * c"
        assert expr_roundtrip("a + b * c") == "a + b * c"

    def test_left_associativity_preserved(self):
        # a - (b - c) must keep its parens; (a - b) - c must not gain any.
        assert expr_roundtrip("a - (b - c)") == "a - (b - c)"
        assert expr_roundtrip("a - b - c") == "a - b - c"

    def test_cast_receiver_parenthesized(self):
        assert expr_roundtrip("((p.Foo) x).bar()") == "((p.Foo) x).bar()"


class TestUnits:
    def test_class_structure(self):
        printed = roundtrip(
            """
            package a.b;
            import x.Y;
            public class C extends D implements I, J {
              static int count;
              C(int n) { count = n; }
              String name() { return null; }
            }
            """
        )
        assert "package a.b;" in printed
        assert "import x.Y;" in printed
        assert "public class C extends D implements I, J {" in printed
        assert "public static int count;" in printed
        assert "public C(int n) {" in printed

    def test_interface(self):
        printed = roundtrip("package p; interface I extends J { void run(); }")
        assert "public interface I extends J {" in printed
        assert "void run();" in printed

    def test_control_flow(self):
        printed = roundtrip(
            """
            package p;
            class C {
              int f(boolean b) {
                if (b) { return 1; } else return 2;
              }
              void g(int n) { while (n > 0) { n = n - 1; } }
            }
            """
        )
        assert "if (b)" in printed
        assert "else" in printed
        assert "while (n > 0)" in printed

    def test_visibility_modifiers(self):
        printed = roundtrip(
            "package p; class C { protected int f() { return 1; } private int x; }"
        )
        assert "protected int f()" in printed
        assert "private int x;" in printed


class TestRoundtripFixpoint:
    def test_bundled_corpus_fixpoint(self):
        """print(parse(.)) is a fixpoint on every bundled corpus file."""
        for name, text in corpus_texts():
            once = print_unit(parse(text, name))
            twice = print_unit(parse(once, name))
            assert once == twice, name

    def test_printed_corpus_reparses(self):
        for name, text in corpus_texts():
            printed = print_unit(parse(text, name))
            unit = parse(printed, name)
            original = parse(text, name)
            assert [c.name for c in unit.classes] == [c.name for c in original.classes]
            assert [
                m.name for c in unit.classes for m in c.methods
            ] == [m.name for c in original.classes for m in c.methods]
