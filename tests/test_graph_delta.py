"""Tests for delta grafting: un-splicing mined paths, all-or-nothing
deltas, and the edge journal the search engine replays."""

import pytest

from repro.graph import JungloidGraph
from repro.jungloids import Jungloid, downcast, instance_call
from repro.typesystem import Method, named


def _graph(small_registry):
    return JungloidGraph.build(small_registry)


def _edge_set(graph):
    return {
        (edge.source, edge.target, edge.elementary.describe())
        for node in graph.nodes
        for edge in graph.out_edges(node)
    }


def sel_to_item(registry):
    sel = registry.lookup("demo.ui.ISelection")
    item = registry.lookup("demo.ui.Item")
    return Jungloid((downcast(sel, item),))


def reader_chain(registry):
    sel = registry.lookup("demo.ui.ISelection")
    ss = registry.lookup("demo.ui.IStructuredSelection")
    obj = named("java.lang.Object")
    item = registry.lookup("demo.ui.Item")
    first = instance_call(Method(ss, "getFirstElement", obj))[0]
    return Jungloid((downcast(sel, ss), first, downcast(obj, item)))


class TestRemoveMinedPath:
    def test_remove_reverses_add(self, small_registry):
        graph = _graph(small_registry)
        before_edges = _edge_set(graph)
        before_nodes = set(graph.nodes)
        mined = reader_chain(small_registry)
        graph.add_mined_path(mined)
        assert _edge_set(graph) != before_edges
        graph.remove_mined_path(mined)
        assert _edge_set(graph) == before_edges
        assert set(graph.nodes) == before_nodes

    def test_remove_unknown_raises(self, small_registry):
        graph = _graph(small_registry)
        with pytest.raises(KeyError):
            graph.remove_mined_path(sel_to_item(small_registry))

    def test_remove_one_of_two_equal_paths_keeps_the_other(self, small_registry):
        graph = _graph(small_registry)
        mined = sel_to_item(small_registry)
        graph.add_mined_path(mined)
        graph.add_mined_path(sel_to_item(small_registry))
        graph.remove_mined_path(mined)
        assert mined.steps in graph.mined_suffix_keys()
        graph.remove_mined_path(mined)
        assert mined.steps not in graph.mined_suffix_keys()


class TestApplyMinedDelta:
    def test_empty_delta_is_noop(self, small_registry):
        graph = _graph(small_registry)
        revision = graph.revision
        delta = graph.apply_mined_delta((), ())
        assert delta.is_noop
        assert graph.revision == revision

    def test_incremental_equals_fresh(self, small_registry):
        a = sel_to_item(small_registry)
        b = reader_chain(small_registry)
        fresh = JungloidGraph.build(small_registry, [a, b])
        grown = JungloidGraph.build(small_registry, [a])
        grown.apply_mined_delta([b], [])
        assert _edge_set(grown) == _edge_set(fresh)
        assert set(grown.nodes) == set(fresh.nodes)
        shrunk = JungloidGraph.build(small_registry, [a, b])
        shrunk.apply_mined_delta([], [b])
        assert _edge_set(shrunk) == _edge_set(JungloidGraph.build(small_registry, [a]))

    def test_affected_targets_are_the_touched_nodes(self, small_registry):
        graph = _graph(small_registry)
        delta = graph.apply_mined_delta([sel_to_item(small_registry)], [])
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        # One edge ISelection → Item: only its endpoints' adjacency moved,
        # not Widget, which Item widens to downstream.
        assert delta.affected_targets == {sel, item}
        undo = graph.apply_mined_delta([], [sel_to_item(small_registry)])
        assert undo.affected_targets == {sel, item}

    def test_delta_records_selective_invalidation(self, small_registry):
        """The journal holds exactly the delta's edges, which is what the
        engine needs to evict only the maps they can move."""
        graph = _graph(small_registry)
        before = graph.revision
        delta = graph.apply_mined_delta([sel_to_item(small_registry)], [])
        (edge,) = graph.mined_paths[0]
        assert graph.changes_since(before) == [(True, edge)]
        assert delta.revision_after == before + 1
        assert graph.changes_since(graph.revision) == []

    def test_log_unions_consecutive_deltas(self, small_registry):
        graph = _graph(small_registry)
        before = graph.revision
        d1 = graph.apply_mined_delta([sel_to_item(small_registry)], [])
        d2 = graph.apply_mined_delta([reader_chain(small_registry)], [])
        d3 = graph.apply_mined_delta([], [sel_to_item(small_registry)])
        changes = graph.changes_since(before)
        sel_edge = changes[0][1]
        assert changes == (
            [(True, sel_edge)]
            + [(True, e) for e in graph.mined_paths[0]]
            + [(False, sel_edge)]
        )
        assert len(changes) == d1.edges_added + d2.edges_added + d3.edges_removed

    def test_failing_delta_changes_nothing(self, small_registry):
        graph = _graph(small_registry)
        graph.apply_mined_delta([reader_chain(small_registry)], [])
        edges, revision = _edge_set(graph), graph.revision
        journal = graph.changes_since(0)
        # The removal names a path never grafted: the addition must not
        # be applied either.
        with pytest.raises(KeyError):
            graph.apply_mined_delta(
                [sel_to_item(small_registry)], [sel_to_item(small_registry)]
            )
        # Removing the one grafted reader chain twice unsplices nothing.
        with pytest.raises(KeyError):
            graph.apply_mined_delta(
                [], [reader_chain(small_registry), reader_chain(small_registry)]
            )
        assert _edge_set(graph) == edges
        assert graph.revision == revision
        assert graph.changes_since(0) == journal
        assert graph.mined_suffix_keys() == (reader_chain(small_registry).steps,)


class TestInvalidationLogGaps:
    def test_raw_mutations_are_journaled(self, small_registry):
        """add_mined_path and remove_edge bypass apply_mined_delta, yet
        the journal still covers them: no gap, so no full flush."""
        graph = _graph(small_registry)
        before = graph.revision
        (edge,) = graph.add_mined_path(sel_to_item(small_registry))
        graph.remove_edge(edge)
        assert graph.changes_since(before) == [(True, edge), (False, edge)]
        assert graph.changes_since(graph.revision + 1) is None

    def test_log_cap_evicts_oldest_coverage(self, small_registry):
        graph = _graph(small_registry)
        before = graph.revision
        mined = sel_to_item(small_registry)
        for _ in range(graph.edge_count()):
            graph.apply_mined_delta([mined], [])
            graph.apply_mined_delta([], [mined])
            assert len(graph.changes_since(graph.revision - 1) or ()) == 1
        # Twice the edge count in changes: the early ones are gone, and
        # the journal never outgrew the graph.
        assert graph.changes_since(before) is None
        assert len(graph._journal_edges) <= graph.edge_count()
        # But a recent revision is still covered.
        recent = graph.revision
        graph.apply_mined_delta([mined], [])
        assert graph.changes_since(recent) is not None
