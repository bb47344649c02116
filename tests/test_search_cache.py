"""Tests for the bounded LRU distance cache and its engine wiring."""

import pytest

from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import Jungloid, downcast
from repro.search import (
    DEFAULT_MAX_CACHED_TARGETS,
    GraphSearch,
    LRUDistanceCache,
    SearchConfig,
)
from repro.typesystem import named


class TestLRUDistanceCache:
    def test_bound_enforced_lru_order(self):
        cache = LRUDistanceCache(max_targets=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUDistanceCache(max_targets=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the oldest
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_get_is_identity_stable(self):
        cache = LRUDistanceCache()
        value = {"x": 1}
        cache.put("t", value)
        assert cache.get("t") is value
        assert cache.get("t") is value

    def test_zero_capacity_disables_caching(self):
        cache = LRUDistanceCache(max_targets=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_stats_and_counters(self):
        cache = LRUDistanceCache(max_targets=1)
        assert cache.get("a") is None  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        cache.put("b", 2)  # evicts "a"
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["evictions"] == 1
        assert s["size"] == 1 and s["max_targets"] == 1

    def test_clear_drops_everything(self):
        cache = LRUDistanceCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_retain_keeps_order_and_fails_closed(self):
        cache = LRUDistanceCache()
        for key in "abcd":
            cache.put(key, key)
        cache.retain(lambda value: value != "b")
        assert list(cache._entries) == ["a", "c", "d"]
        assert (cache.hits, cache.misses) == (0, 0)

        def picky(value):
            if value == "d":
                raise RuntimeError("cannot tell")
            return value == "a"

        # A keep that raises must not leave unchecked entries behind.
        with pytest.raises(RuntimeError):
            cache.retain(picky)
        assert list(cache._entries) == ["a"]

    def test_default_capacity(self):
        assert LRUDistanceCache().max_targets == DEFAULT_MAX_CACHED_TARGETS


class TestEngineCacheWiring:
    def test_configured_bound_respected(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        search = GraphSearch(graph, config=SearchConfig(max_cached_targets=1))
        search._distances(named("demo.io.BufferedReader"))
        search._distances(named("demo.ui.ISelection"))
        assert len(search._dist_cache) == 1
        assert named("demo.ui.ISelection") in search._dist_cache
        assert named("demo.io.BufferedReader") not in search._dist_cache

    def test_cache_hit_skips_recompute(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        search = GraphSearch(graph)
        dst = named("demo.io.BufferedReader")
        first = search._distances(dst)
        assert search._distances(dst) is first
        assert search.distance_computes == 1

    def test_revision_bump_evicts_all_entries(self, small_registry):
        """The dedicated staleness test: once the edge journal no longer
        reaches back to the snapshot, the engine cannot tell which maps
        the edits moved, so it recompiles and flushes the whole cache."""
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        buf = small_registry.lookup("demo.io.BufferedReader")
        # Prime two targets.
        assert search.shortest_cost(sel, item) is None
        search._distances(buf)
        assert len(search._dist_cache) == 2
        computes_before = search.distance_computes
        snapshot = search._compiled_graph()
        # Mutate past the journal's reach, ending with a grafted path.
        mined = Jungloid((downcast(sel, item),))
        while graph.changes_since(snapshot.revision) is not None:
            graph.add_mined_path(mined)
            graph.remove_mined_path(mined)
        graph.add_mined_path(mined)
        # Next lookup flushes the stale entries and recomputes.
        assert search.shortest_cost(sel, item) is not None
        assert search._compiled_graph() is not snapshot
        assert search.distance_computes == computes_before + 1
        assert buf not in search._dist_cache  # the bystander was evicted too
        search._distances(buf)
        assert search.distance_computes == computes_before + 2


class TestSelectiveInvalidation:
    def test_engine_uses_delta_log_to_keep_bystanders(self, small_registry):
        """The graph journals the delta's edges, so the engine drops only
        the maps they move instead of flushing the whole cache."""
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        stream = small_registry.lookup("demo.io.InputStream")
        search._distances(item)
        kept = search._distances(stream)
        graph.apply_mined_delta([Jungloid((downcast(sel, item),))], [])
        # Next access replays the journal: ISelection → Item relaxes
        # Item's map; Item cannot reach InputStream, whose map stays.
        assert search._distances(stream) is kept
        assert item not in search._dist_cache

    def test_exact_test_keeps_map_the_closure_would_evict(self, small_registry):
        """Widget → Item lands upstream of Item's widening to Widget, so a
        forward closure from the changed edge reaches Widget and String
        (``getName``); yet Widget is already at distance 0 from Widget
        and 1 from String, so the edge relaxes neither map."""
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        widget = small_registry.lookup("demo.ui.Widget")
        item = small_registry.lookup("demo.ui.Item")
        panel = small_registry.lookup("demo.ui.Panel")
        string = named("java.lang.String")
        complete = search._distances(widget)
        bounded = search._distances(string, [panel])
        assert bounded.horizon is not None
        graph.apply_mined_delta([Jungloid((downcast(widget, item),))], [])
        assert search._distances(widget) is complete
        assert search._distances(string, [panel]) is bounded
        assert search.distance_computes == 2
        fresh = GraphSearch(graph)
        for node in graph.nodes:
            assert complete.get(node) == fresh._distances(widget).get(node)
            assert bounded.get(node) == fresh._distances(string, [panel]).get(node)

    def test_route_past_the_horizon_keeps_bounded_map(self, small_registry):
        """Object → InputStream gives Object a route to String of cost 4,
        past the horizon 3 of the map bounded at Panel (2 from String):
        the complete map moves, the bounded one does not."""
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        string, obj = named("java.lang.String"), named("java.lang.Object")
        panel = small_registry.lookup("demo.ui.Panel")
        stream = small_registry.lookup("demo.io.InputStream")
        bounded = search._distances(string, [panel])
        assert (bounded.horizon, bounded.get(stream), bounded.get(obj)) == (3, 3, None)
        graph.apply_mined_delta([Jungloid((downcast(obj, stream),))], [])
        assert search._distances(string, [panel]) is bounded
        assert bounded.get(obj) is None
        assert GraphSearch(graph)._distances(string).get(obj) == 4
