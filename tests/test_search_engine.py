"""Tests for the query engine (bounded multi-source search)."""

from repro.apispec import load_api_text
from repro.graph import SignatureGraph
from repro.search import GraphSearch, SearchConfig
from repro.typesystem import VOID, named

API = """
package java.lang;
public class String {}
package e;
public class Start {
  public Mid toMid();
}
public class Other {
  public Mid alsoMid();
}
public class Mid {
  public End toEnd();
  public End slowEnd(Extra extra);
}
public class End {}
public class SubEnd extends End {
  public SubEnd();
}
public class Extra {
  public Extra();
}
public class Factory {
  public static End makeEnd();
}
"""


def build(config=SearchConfig()):
    registry = load_api_text(API)
    graph = SignatureGraph.from_registry(registry)
    return registry, GraphSearch(graph, config=config)


class TestSolve:
    def test_basic_solution(self):
        registry, search = build()
        results = search.solve(named("e.Start"), named("e.End"))
        assert results
        assert results[0].render_expression("x") == "x.toMid().toEnd()"
        assert all(j.solves(named("e.Start"), named("e.End")) for j in results)

    def test_window_admits_m_plus_one(self):
        registry, search = build()
        results = search.solve(named("e.Start"), named("e.End"))
        texts = [j.render_expression("x") for j in results]
        # m=2; the SubEnd constructor path void->... is not from Start; the
        # slowEnd variant costs 2 + free Extra (2) = 4 > m+1, so excluded.
        assert "x.toMid().slowEnd(extra1)" not in texts

    def test_wider_window_admits_costlier(self):
        registry, search = build(SearchConfig(extra_cost=2))
        results = search.solve(named("e.Start"), named("e.End"))
        texts = [j.render_expression("x") for j in results]
        assert "x.toMid().slowEnd(extra1)" in texts

    def test_unreachable_returns_empty(self):
        registry, search = build()
        assert search.solve(named("e.End"), named("e.Start")) == []

    def test_unknown_types_return_empty(self):
        registry, search = build()
        assert search.solve(named("x.Ghost"), named("e.End")) == []
        assert search.solve(named("e.Start"), named("x.Ghost")) == []

    def test_max_results_cap(self):
        registry, search = build(SearchConfig(max_results=1))
        assert len(search.solve(named("e.Start"), named("e.End"))) == 1

    def test_shortest_cost(self):
        registry, search = build()
        assert search.shortest_cost(named("e.Start"), named("e.End")) == 2
        assert search.shortest_cost(named("e.End"), named("e.Start")) is None


class TestMultiSource:
    def test_sources_share_one_search(self):
        registry, search = build()
        results = search.solve_multi(
            [named("e.Start"), named("e.Other")], named("e.End")
        )
        sources = {str(r.source_type) for r in results}
        assert sources == {"e.Start", "e.Other"}

    def test_each_source_gets_own_window(self):
        registry, search = build()
        # Even though Other is farther in some graphs, both 2-step routes
        # must appear; neither source's window is shrunk by the other.
        results = search.solve_multi(
            [named("e.Start"), named("e.Other")], named("e.End")
        )
        texts = {r.jungloid.render_expression("x") for r in results}
        assert "x.toMid().toEnd()" in texts
        assert "x.alsoMid().toEnd()" in texts

    def test_void_source_finds_factories(self):
        registry, search = build()
        results = search.solve_multi([VOID], named("e.End"))
        texts = [r.jungloid.render_expression("") for r in results]
        assert "e.Factory.makeEnd()" in texts
        assert any(r.is_void_source for r in results)

    def test_duplicate_sources_deduplicated(self):
        registry, search = build()
        once = search.solve_multi([named("e.Start")], named("e.End"))
        twice = search.solve_multi(
            [named("e.Start"), named("e.Start")], named("e.End")
        )
        assert len(once) == len(twice)

    def test_results_sorted_best_first(self):
        registry, search = build()
        from repro.search import rank_key

        results = search.solve_multi([named("e.Start"), VOID], named("e.End"))
        keys = [rank_key(search.graph.registry, r.jungloid) for r in results]
        assert keys == sorted(keys)


class TestConfig:
    def test_wider_window_keeps_every_narrow_result(self):
        registry, narrow = build(SearchConfig(extra_cost=0))
        _, wide = build(SearchConfig(extra_cost=3))
        texts = lambda search: {
            j.render_expression("x") for j in search.solve(named("e.Start"), named("e.End"))
        }
        assert texts(narrow) < texts(wide)

    def test_distance_cache_reused(self):
        registry, search = build()
        search.solve(named("e.Start"), named("e.End"))
        cache_size = len(search._dist_cache)
        search.solve(named("e.Other"), named("e.End"))
        assert len(search._dist_cache) == cache_size  # same target reused
