"""Tests for the CHA call graph."""

from repro.apispec import load_api_text
from repro.minijava import (
    ResolutionCache,
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


BASE = """
package c;
import lib.Service;
public class Base {
  public String label(Service s) { return s.name(); }
}
"""

CALLER = """
package c;
import lib.Service;
public class Caller {
  public String go(Base b, Service s) { return b.label(s); }
}
"""

#: Versions of d.mj: a plain subclass, one that overrides ``label``, and
#: the override on a class that no longer extends Base.
DERIVED = (
    "package c;\npublic class Derived extends Base {\n}\n",
    "package c;\nimport lib.Service;\npublic class Derived extends Base {\n"
    "  public String label(Service s) { return s.name(); }\n}\n",
    "package c;\nimport lib.Service;\npublic class Derived {\n"
    "  public String label(Service s) { return s.name(); }\n}\n",
)


def graph_values(graph):
    """The graph as plain values, in its own orders."""
    def site(s):
        return (s.caller.name, s.call.name, str(s.call.position), tuple(repr(t) for t in s.targets))

    return (
        [(repr(m), decl.name) for m, decl in graph.methods.items()],
        [(repr(m), [site(s) for s in sites]) for m, sites in graph.callers_of.items()],
        [[site(s) for s in sites] for sites in graph.calls_in.values()],
    )


class TestIncrementalBuild:
    """A build from the previous graph equals a fresh build, also where
    it reused a unit whose calls' CHA targets moved."""

    def build_all(self, steps):
        """Resolve each corpus in ``steps`` with one cache, build each
        graph from the one before, and check it against a fresh build.
        Returns per step: the graph, whether caller.mj's body was
        resolved, and caller.mj's share of the graph."""
        api = load_api_text(API)
        cache = ResolutionCache()
        parsed = {}
        previous = None
        seen = []
        for texts in steps:
            units = []
            for name, text in texts:
                if parsed.get(name, (None,))[0] != text:
                    parsed[name] = (text, parse_minijava(text, name))
                units.append(parsed[name][1])
            cache.retain(units)
            registry = api.clone()
            resolve_program(registry, units, cache=cache)
            graph = build_call_graph(registry, units, previous, cache.resolved)
            assert graph_values(graph) == graph_values(build_call_graph(registry, units))
            caller = parsed["caller.mj"][1]
            seen.append((graph, id(caller) in cache.resolved, graph.units[id(caller)]))
            previous = graph
        return seen

    def label_targets(self, graph):
        [site] = [s for sites in graph.calls_in.values() for s in sites if s.call.name == "label"]
        return [str(t.owner) for t in site.targets]

    def test_an_added_override_joins_the_supertype_methods_targets(self):
        corpus = [("base.mj", BASE), ("caller.mj", CALLER)]
        steps = [corpus + [("d.mj", DERIVED[0])], corpus + [("d.mj", DERIVED[1])]]
        (first, _, before), (second, reresolved, after) = self.build_all(steps)
        assert self.label_targets(first) == ["c.Base"]
        assert self.label_targets(second) == ["c.Base", "c.Derived"]
        # caller.mj's body was not resolved again: its walk is reused and
        # only its call's targets moved.
        assert not reresolved and after is not before
        assert after.bodies[0][1] is before.bodies[0][1]

    def test_a_changed_supertype_leaves_the_supertype_methods_targets(self):
        corpus = [("base.mj", BASE), ("caller.mj", CALLER)]
        steps = [corpus + [("d.mj", DERIVED[1])], corpus + [("d.mj", DERIVED[2])]]
        (first, _, _), (second, reresolved, _) = self.build_all(steps)
        assert self.label_targets(first) == ["c.Base", "c.Derived"]
        assert self.label_targets(second) == ["c.Base"]
        assert not reresolved

    def test_a_comment_edit_elsewhere_keeps_the_callers_share(self):
        corpus = [("base.mj", BASE), ("caller.mj", CALLER), ("d.mj", DERIVED[1])]
        touched = corpus[:2] + [("d.mj", DERIVED[1] + "// touched\n")]
        (_, _, before), (_, reresolved, after) = self.build_all([corpus, touched])
        assert not reresolved and after is before
