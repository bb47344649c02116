"""Tests for the CHA call graph."""

from repro.apispec import load_api_text
from repro.minijava import (
    build_call_graph,
    method_expressions,
    parse_minijava,
    resolve_program,
)

API = """
package java.lang;
public class String {}
package lib;
public class Service {
  public Service();
  public String name();
}
"""

CORPUS = """
package c;
import lib.Service;

class Base {
  public String label(Service s) { return s.name(); }
}

class Derived extends Base {
  public String label(Service s) { return s.name(); }
}

class Caller {
  public String go(Base b, Service s) {
    return b.label(s);
  }
  public String direct(Derived d, Service s) {
    return d.label(s);
  }
  public String helper(Service s) {
    return makeLabel(s);
  }
  public String makeLabel(Service s) { return s.name(); }
}
"""


def build():
    registry = load_api_text(API)
    unit = parse_minijava(CORPUS, "c.mj")
    resolve_program(registry, [unit])
    return registry, unit, build_call_graph(registry, [unit])


def method_decl(unit, cls_name, method_name):
    cls = next(c for c in unit.classes if c.name == cls_name)
    return next(m for m in cls.methods if m.name == method_name)


class TestCallGraph:
    def test_bodies_registered(self):
        _, unit, cg = build()
        assert len(cg.methods) == 6
        decl = method_decl(unit, "Caller", "go")
        assert cg.declaration_of(decl.resolved_method) is decl

    def test_cha_virtual_dispatch_includes_overrides(self):
        _, unit, cg = build()
        go = method_decl(unit, "Caller", "go")
        sites = cg.call_sites_in(go)
        label_site = next(s for s in sites if s.call.name == "label")
        owners = {str(t.owner) for t in label_site.targets}
        assert owners == {"c.Base", "c.Derived"}

    def test_cha_exact_for_leaf_receiver(self):
        _, unit, cg = build()
        direct = method_decl(unit, "Caller", "direct")
        label_site = next(s for s in cg.call_sites_in(direct) if s.call.name == "label")
        owners = {str(t.owner) for t in label_site.targets}
        assert owners == {"c.Derived"}

    def test_callers_of_override(self):
        _, unit, cg = build()
        derived_label = method_decl(unit, "Derived", "label").resolved_method
        callers = {s.caller.name for s in cg.call_sites_of(derived_label)}
        # Both `go` (CHA on Base) and `direct` (exact) may invoke it.
        assert callers == {"go", "direct"}

    def test_unqualified_call_site(self):
        _, unit, cg = build()
        make_label = method_decl(unit, "Caller", "makeLabel").resolved_method
        callers = {s.caller.name for s in cg.call_sites_of(make_label)}
        assert "helper" in callers

    def test_api_calls_indexed_too(self):
        registry, unit, cg = build()
        name_method = registry.find_method(registry.lookup("lib.Service"), "name")[0]
        sites = cg.call_sites_of(name_method)
        # Base.label, Derived.label, and Caller.makeLabel call s.name().
        assert len(sites) == 3

    def test_expressions_in_is_the_body_walk(self):
        _, unit, cg = build()
        for cls in unit.classes:
            for decl in cls.methods:
                exprs = cg.expressions_in(decl)
                assert exprs == tuple(method_expressions(decl))
                assert exprs is cg.expressions_in(decl)  # walked once, by the build

    def test_expressions_in_walks_a_body_outside_the_graph(self):
        _, _, cg = build()
        other = parse_minijava(CORPUS, "other.mj")
        resolve_program(load_api_text(API), [other])
        decl = method_decl(other, "Caller", "go")
        assert id(decl) not in cg.expressions
        assert cg.expressions_in(decl) == tuple(method_expressions(decl))
