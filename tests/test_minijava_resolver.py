"""Tests for mini-Java name resolution and expression typing."""

import pytest

from repro.apispec import load_api_text
from repro.minijava import (
    CallExpr,
    CastExpr,
    LocalVarDecl,
    MjResolveError,
    TypeName,
    parse_minijava,
    resolve_program,
    method_expressions,
    walk_statements,
)
from repro.typesystem import PRIMITIVES, named

API = """
package java.lang;
public class String { public String trim(); }

package lib;
public class Registry {
  public static Registry getDefault();
  public Item find(String key);
  public Item find(Object key);
  public Item cached;
}
public class Item {
  public Item();
  public String getName();
  public Object getValue();
}
public class SubItem extends Item {
  public SubItem();
}
"""


def resolve(source):
    registry = load_api_text(API)
    unit = parse_minijava(source, "test.mj")
    resolve_program(registry, unit and [unit])
    return registry, unit


def first_method(unit, index=0):
    return unit.classes[0].methods[index]


class TestDeclarations:
    def test_corpus_class_registered(self):
        registry, unit = resolve("package c; class K { }")
        assert "c.K" in registry

    def test_corpus_supertypes_resolved(self):
        registry, _ = resolve("package c; import lib.Item; class K extends Item { }")
        assert registry.is_subtype(registry.lookup("c.K"), registry.lookup("lib.Item"))

    def test_default_constructor_added(self):
        registry, _ = resolve("package c; class K { }")
        assert registry.constructors_of(registry.lookup("c.K"))

    def test_explicit_constructor_suppresses_default(self):
        registry, _ = resolve("package c; import lib.Item; class K { K(Item i) { } }")
        ctors = registry.constructors_of(registry.lookup("c.K"))
        assert len(ctors) == 1
        assert ctors[0].arity == 1


class TestExpressionTyping:
    def test_locals_and_calls(self):
        _, unit = resolve(
            """
            package c;
            import lib.Registry;
            import lib.Item;
            class K {
              String name(Registry r, String key) {
                Item item = r.find(key);
                return item.getName();
              }
            }
            """
        )
        method = first_method(unit)
        decl = next(s for s in walk_statements(method.body) if isinstance(s, LocalVarDecl))
        assert decl.init.resolved_type == named("lib.Item")
        call = decl.init
        assert call.resolved_method.parameter_types == (named("java.lang.String"),)

    def test_overload_picks_exact_match(self):
        _, unit = resolve(
            """
            package c;
            import lib.Registry;
            import lib.Item;
            class K {
              Item get(Registry r, Object key) { return r.find(key); }
            }
            """
        )
        call = first_method(unit).body.statements[0].value
        assert str(call.resolved_method.parameter_types[0]).endswith("Object")

    def test_static_call_through_type_name(self):
        _, unit = resolve(
            """
            package c;
            import lib.Registry;
            class K {
              Registry reg() { return Registry.getDefault(); }
            }
            """
        )
        call = first_method(unit).body.statements[0].value
        assert isinstance(call.receiver, TypeName)
        assert call.resolved_method.static

    def test_fully_qualified_static_call(self):
        _, unit = resolve(
            "package c; class K { lib.Registry reg() { return lib.Registry.getDefault(); } }"
        )
        call = first_method(unit).body.statements[0].value
        assert call.resolved_method is not None

    def test_variable_shadows_type_name(self):
        _, unit = resolve(
            """
            package c;
            import lib.Registry;
            import lib.Item;
            class K {
              Item go(Registry Registry, String key) { return Registry.find(key); }
            }
            """
        )
        call = first_method(unit).body.statements[0].value
        assert not isinstance(call.receiver, TypeName)

    def test_instance_field_access(self):
        _, unit = resolve(
            """
            package c;
            import lib.Registry;
            import lib.Item;
            class K {
              Item cached(Registry r) { return r.cached; }
            }
            """
        )
        access = first_method(unit).body.statements[0].value
        assert access.resolved_field.name == "cached"
        assert access.resolved_type == named("lib.Item")

    def test_own_field_reference(self):
        _, unit = resolve(
            """
            package c;
            import lib.Item;
            class K {
              Item item;
              Item get() { return item; }
            }
            """
        )
        ref = first_method(unit).body.statements[0].value
        assert ref.resolved_kind == "field"

    def test_cast_records_operand_type(self):
        _, unit = resolve(
            """
            package c;
            import lib.Item;
            import lib.SubItem;
            class K {
              SubItem narrow(Item i) { return (SubItem) i; }
            }
            """
        )
        cast = first_method(unit).body.statements[0].value
        assert cast.operand_type == named("lib.Item")
        assert cast.resolved_type == named("lib.SubItem")
        assert cast.is_downcast

    def test_literals_and_binary(self):
        _, unit = resolve(
            """
            package c;
            class K {
              boolean check(String s) { return s.trim() == s && 1 < 2; }
            }
            """
        )
        expr = first_method(unit).body.statements[0].value
        assert expr.resolved_type == PRIMITIVES["boolean"]

    def test_string_literal_typed(self):
        _, unit = resolve(
            'package c; class K { String s() { return "x"; } }'
        )
        lit = first_method(unit).body.statements[0].value
        assert lit.resolved_type == named("java.lang.String")

    def test_unqualified_call_on_this(self):
        _, unit = resolve(
            """
            package c;
            import lib.Item;
            class K {
              Item make() { return helper(); }
              Item helper() { return new Item(); }
            }
            """
        )
        call = first_method(unit).body.statements[0].value
        assert call.resolved_method.name == "helper"

    def test_new_resolves_constructor(self):
        _, unit = resolve(
            "package c; import lib.Item; class K { Item fresh() { return new Item(); } }"
        )
        new = first_method(unit).body.statements[0].value
        assert new.resolved_constructor is not None


class TestResolveAgain:
    """Resolving an already-resolved AST decides as on a fresh parse, even
    where the first resolution folded a name chain into a type name."""

    def test_static_call_to_instance_method_fails_every_time(self):
        unit = parse_minijava(
            "package c; import lib.Item; class K { String f() { return Item.getName(); } }",
            "test.mj",
        )
        for _ in range(2):
            with pytest.raises(MjResolveError):
                resolve_program(load_api_text(API), [unit])

    def test_folded_static_call_resolves_the_same(self):
        unit = parse_minijava(
            "package c; import lib.Registry;"
            " class K { Registry reg() { return Registry.getDefault(); } }",
            "test.mj",
        )
        for _ in range(2):
            resolve_program(load_api_text(API), [unit])
            call = first_method(unit).body.statements[0].value
            assert isinstance(call.receiver, TypeName)
            assert call.receiver.name == "Registry"
            assert call.resolved_method.static


class TestResolveErrors:
    def test_unknown_variable(self):
        with pytest.raises(MjResolveError):
            resolve("package c; class K { void f() { ghost.run(); } }")

    def test_unknown_method(self):
        with pytest.raises(MjResolveError):
            resolve(
                "package c; import lib.Item; class K { void f(Item i) { i.fly(); } }"
            )

    def test_wrong_arity(self):
        with pytest.raises(MjResolveError):
            resolve(
                "package c; import lib.Item; class K { void f(Item i) { i.getName(1); } }"
            )

    def test_unknown_type_in_decl(self):
        with pytest.raises(MjResolveError):
            resolve("package c; class K { void f() { Ghost g = null; } }")

    def test_duplicate_local(self):
        with pytest.raises(MjResolveError):
            resolve(
                "package c; class K { void f() { int x = 1; int x = 2; } }"
            )
