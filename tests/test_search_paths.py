"""Tests for bounded path enumeration and weighted distances.

Each class runs on the reference oracle; its ``...OnKernel`` subclass
runs the same cases on the CSR kernel.
"""

from repro.apispec import load_api_text
from repro.graph import SignatureGraph
from repro.search import UNREACHABLE
from repro.typesystem import named

from .search_oracle import KERNEL, ORACLE

API = """
package java.lang;
public class String {}
package w;
public class A {
  public B toB();
  public C toC();
}
public class B extends A {
  public C toCviaB();
}
public class C {
  public D toD();
}
public class D {}
public class E {
  public E(F f);
}
public class F {}
"""


def build():
    registry = load_api_text(API)
    return registry, SignatureGraph.from_registry(registry)


class TestDistances:
    search = ORACLE

    def test_distance_to_self(self):
        registry, graph = build()
        d = self.search.distances_to(graph, named("w.D"))
        assert d[named("w.D")] == 0

    def test_distances_count_calls(self):
        registry, graph = build()
        d = self.search.distances_to(graph, named("w.D"))
        assert d[named("w.C")] == 1
        assert d[named("w.A")] == 2

    def test_widening_is_free(self):
        registry, graph = build()
        d = self.search.distances_to(graph, named("w.A"))
        # B widens to A at no cost.
        assert d[named("w.B")] == 0

    def test_unreachable(self):
        registry, graph = build()
        d = self.search.distances_to(graph, named("w.D"))
        assert d.get(named("w.F"), UNREACHABLE) == UNREACHABLE

    def test_custom_edge_cost(self):
        registry, graph = build()
        d = self.search.distances_to(graph, named("w.D"), edge_cost=lambda e: 0 if e.is_widening else 3)
        assert d[named("w.C")] == 3


class TestEnumeration:
    search = ORACLE

    def test_all_paths_within_bound(self):
        registry, graph = build()
        paths = list(self.search.enumerate_paths(graph, named("w.A"), named("w.C"), max_cost=2))
        renderings = {
            SignatureGraph.path_to_jungloid(p).render_expression("x") for p in paths
        }
        assert renderings == {"x.toC()", "x.toB().toCviaB()"}

    def test_bound_excludes_longer(self):
        registry, graph = build()
        paths = list(self.search.enumerate_paths(graph, named("w.A"), named("w.C"), max_cost=1))
        assert len(paths) == 1

    def test_paths_are_acyclic(self):
        registry, graph = build()
        for path in self.search.enumerate_paths(graph, named("w.A"), named("w.D"), max_cost=5):
            nodes = [path[0].source] + [e.target for e in path]
            assert len(nodes) == len(set(nodes))

    def test_max_paths_cap(self):
        registry, graph = build()
        paths = list(
            self.search.enumerate_paths(graph, named("w.A"), named("w.C"), max_cost=3, max_paths=1)
        )
        assert len(paths) == 1

    def test_no_paths_when_unreachable(self):
        registry, graph = build()
        assert not list(self.search.enumerate_paths(graph, named("w.F"), named("w.D"), max_cost=9))

    def test_missing_nodes_handled(self):
        registry, graph = build()
        assert not list(
            self.search.enumerate_paths(graph, named("x.Ghost"), named("w.D"), max_cost=3)
        )

    def test_count_paths(self):
        registry, graph = build()
        paths = self.search.enumerate_paths(graph, named("w.A"), named("w.C"), max_cost=2)
        assert sum(1 for _ in paths) == 2

    def test_paths_end_exactly_at_target(self):
        registry, graph = build()
        for path in self.search.enumerate_paths(graph, named("w.A"), named("w.D"), max_cost=4):
            assert path[-1].target == named("w.D")


class TestExpansionCounting:
    search = ORACLE

    def test_expansions_counted_without_deadline(self):
        """Regression: expansions used to be counted only when a deadline
        was set, making perf reports read zero on unbudgeted runs."""
        from repro.search import EnumerationReport

        registry, graph = build()
        report = EnumerationReport()
        paths = list(
            self.search.enumerate_paths(
                graph, named("w.A"), named("w.D"), max_cost=5, report=report
            )
        )
        assert paths
        assert report.expansions > 0
        assert not report.deadline_expired

    def test_expansion_count_independent_of_deadline_presence(self):
        from repro.robustness import Deadline, ManualClock
        from repro.search import EnumerationReport

        registry, graph = build()
        plain = EnumerationReport()
        list(
            self.search.enumerate_paths(
                graph, named("w.A"), named("w.D"), max_cost=5, report=plain
            )
        )
        budgeted = EnumerationReport()
        list(
            self.search.enumerate_paths(
                graph,
                named("w.A"),
                named("w.D"),
                max_cost=5,
                report=budgeted,
                # Generous budget: never expires, must not change counting.
                deadline=Deadline.after(10_000.0, ManualClock(tick=0.0)),
            )
        )
        assert plain.expansions == budgeted.expansions > 0


class TestDistancesOnKernel(TestDistances):
    search = KERNEL


class TestEnumerationOnKernel(TestEnumeration):
    search = KERNEL


class TestExpansionCountingOnKernel(TestExpansionCounting):
    search = KERNEL
