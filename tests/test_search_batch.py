"""Tests for batch query serving (``GraphSearch.solve_batch``).

Covers the three batch-layer claims: target-grouping shares one distance
map per distinct target (asserted via the engine's ``distance_computes``
counting hook), per-query results equal one-at-a-time serving (dedup
across sources included), and a fault while answering one query degrades
only that query.
"""

import pytest

from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import Jungloid, downcast
from repro.robustness import (
    FlakyCompiler,
    ManualClock,
    REASON_DEADLINE,
    REASON_FAULT,
)
from repro.search import BatchQuery, GraphSearch, SearchConfig, compile_graph
from repro.search import engine as search_engine
from repro.typesystem import VOID, named


def _graph(small_registry):
    return SignatureGraph.from_registry(small_registry)


def _texts(outcome):
    return [r.jungloid.render_expression("x") for r in outcome.results]


IN_STREAM = named("demo.io.InputStream")
BUF_READER = named("demo.io.BufferedReader")
STRING = named("java.lang.String")
READER = named("demo.io.Reader")
STR_READER = named("demo.io.StringReader")
PANEL = named("demo.ui.Panel")
SELECTION = named("demo.ui.ISelection")


class TestBatchResults:
    def test_matches_one_at_a_time(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        queries = [
            (IN_STREAM, BUF_READER),
            (STRING, STR_READER),
            (PANEL, SELECTION),
        ]
        outcomes = search.solve_batch(queries)
        assert len(outcomes) == 3
        for (t_in, t_out), outcome in zip(queries, outcomes):
            expected = search.solve_multi_outcome([t_in], t_out)
            assert _texts(outcome) == _texts(expected)
            assert not outcome.degraded

    def test_outcomes_in_input_order_with_interleaved_targets(
        self, small_registry
    ):
        search = GraphSearch(_graph(small_registry))
        queries = [
            (IN_STREAM, BUF_READER),
            (PANEL, SELECTION),
            (STRING, BUF_READER),
            (VOID, SELECTION),
        ]
        outcomes = search.solve_batch(queries)
        for (t_in, t_out), outcome in zip(queries, outcomes):
            assert _texts(outcome) == _texts(
                search.solve_multi_outcome([t_in], t_out)
            ), f"({t_in}, {t_out}) out of order or diverged"

    def test_unknown_target_is_empty_but_not_degraded(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        outcomes = search.solve_batch(
            [(IN_STREAM, named("no.Such")), (IN_STREAM, BUF_READER)]
        )
        assert outcomes[0].results == ()
        assert not outcomes[0].degraded
        assert outcomes[1].results

    def test_multi_source_dedup_preserved(self, small_registry):
        """A jungloid reachable from two sources appears once per source,
        and duplicate sources collapse — exactly as in solve_multi."""
        search = GraphSearch(_graph(small_registry))
        sources = (IN_STREAM, IN_STREAM, VOID)
        [outcome] = search.solve_batch([BatchQuery(sources, BUF_READER)])
        expected = search.solve_multi_outcome(sources, BUF_READER)
        assert _texts(outcome) == _texts(expected)
        pairs = [
            (r.source_type, r.jungloid.render_expression("x"))
            for r in outcome.results
        ]
        assert len(pairs) == len(set(pairs))  # no (source, text) dupes

    def test_batch_query_coercions(self, small_registry):
        assert BatchQuery.of((IN_STREAM, BUF_READER)) == BatchQuery(
            (IN_STREAM,), BUF_READER
        )
        assert BatchQuery.of(([IN_STREAM, VOID], BUF_READER)) == BatchQuery(
            (IN_STREAM, VOID), BUF_READER
        )
        q = BatchQuery((VOID,), BUF_READER)
        assert BatchQuery.of(q) is q


class TestDistanceSharing:
    def test_one_dijkstra_per_distinct_target(self, small_registry):
        # Cache disabled: any sharing must come from target-grouping.
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(max_cached_targets=0),
        )
        queries = [
            (IN_STREAM, BUF_READER),
            (PANEL, SELECTION),
            (STRING, BUF_READER),
            (VOID, SELECTION),
            (STRING, STR_READER),
        ]
        search.solve_batch(queries)
        assert search.distance_computes == 3  # BUF_READER, SELECTION, STR_READER

    def test_one_at_a_time_pays_per_query_without_cache(self, small_registry):
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(max_cached_targets=0),
        )
        for t_in, t_out in [
            (IN_STREAM, BUF_READER),
            (STRING, BUF_READER),
            (VOID, BUF_READER),
        ]:
            search.solve_multi_outcome([t_in], t_out)
        assert search.distance_computes == 3  # same target, paid thrice

    def test_lru_cache_extends_sharing_across_batches(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        search.solve_batch([(IN_STREAM, BUF_READER)])
        search.solve_batch([(STRING, BUF_READER)])
        assert search.distance_computes == 1


def _poison(monkeypatch, node, fail_on="out"):
    """Compiled snapshots raise on any read of ``node``'s edges."""
    monkeypatch.setattr(
        search_engine,
        "compile_graph",
        FlakyCompiler(compile_graph, fail_after=0, fail_on=fail_on, node=node),
    )


class TestFaultIsolation:
    def test_faulting_query_degrades_only_itself(self, small_registry, monkeypatch):
        # Poison the forward edges of InputStreamReader: the
        # InputStream→BufferedReader enumeration must walk through it,
        # the Panel→ISelection one never touches it.
        healthy = GraphSearch(_graph(small_registry)).solve_multi_outcome(
            [PANEL], SELECTION
        )
        _poison(monkeypatch, named("demo.io.InputStreamReader"))
        search = GraphSearch(_graph(small_registry))
        bad, good = search.solve_batch(
            [(IN_STREAM, BUF_READER), (PANEL, SELECTION)]
        )
        assert bad.degraded
        assert any(r.code == REASON_FAULT for r in bad.reasons)
        assert not good.degraded
        assert good.results
        assert _texts(good) == _texts(healthy)

    def test_faulting_dijkstra_cuts_off_only_its_target_group(
        self, small_registry, monkeypatch
    ):
        # Poison the *backward* edges of one target: its whole group
        # faults at the distance-map stage; other targets are untouched.
        _poison(monkeypatch, BUF_READER, fail_on="in")
        search = GraphSearch(_graph(small_registry))
        bad1, good, bad2 = search.solve_batch(
            [
                (IN_STREAM, BUF_READER),
                (PANEL, SELECTION),
                (STRING, BUF_READER),
            ]
        )
        for bad in (bad1, bad2):
            assert bad.degraded
            assert bad.results == ()
            assert any(r.code == REASON_FAULT for r in bad.reasons)
        assert not good.degraded
        assert good.results


class TestFaultInjectionAfterGraft:
    @pytest.mark.parametrize("fail_on, node", [("out", READER), ("in", BUF_READER)])
    def test_poison_follows_moved_slots(self, small_registry, monkeypatch, fail_on, node):
        # Grafting Reader → BufferedReader moves Reader's out-slots and
        # BufferedReader's in-slots to the tail of the patched snapshot;
        # the poison must follow them, the same way for both servings.
        _poison(monkeypatch, node, fail_on=fail_on)
        graph = JungloidGraph.build(small_registry)
        single, batch = GraphSearch(graph), GraphSearch(graph)
        for search in (single, batch):
            search.solve_batch([(PANEL, SELECTION)])  # compiles, unpoisoned path
        snapshots = [single._compiled_graph(), batch._compiled_graph()]
        graph.apply_mined_delta([Jungloid((downcast(READER, BUF_READER),))], [])
        outcome = single.solve_multi_outcome([IN_STREAM], BUF_READER)
        assert batch.solve_batch([(IN_STREAM, BUF_READER)]) == [outcome]
        assert [single._compiled_graph(), batch._compiled_graph()] == snapshots
        assert outcome.degraded
        assert any(r.code == REASON_FAULT for r in outcome.reasons)


class TestBatchDeadlines:
    def test_budget_minted_per_query(self, small_registry):
        # A ManualClock that expires any deadline on its first poll: each
        # query still gets its own deadline, so each degrades separately
        # (rather than the first query consuming the whole budget).
        clock = ManualClock(tick=0.010)
        search = GraphSearch(
            _graph(small_registry),
            config=SearchConfig(deadline_check_every=1),
            clock=clock,
        )
        outcomes = search.solve_batch(
            [(IN_STREAM, BUF_READER), (PANEL, SELECTION)],
            time_budget_ms=1.0,
        )
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.degraded
            assert any(r.code == REASON_DEADLINE for r in outcome.reasons)
            # Rung 3 (greedy shortest path) still salvages an answer.
            assert outcome.results

    def test_no_budget_means_no_degradation(self, small_registry):
        search = GraphSearch(_graph(small_registry))
        outcomes = search.solve_batch([(IN_STREAM, BUF_READER)])
        assert not outcomes[0].degraded
        assert outcomes[0].elapsed_ms is None
