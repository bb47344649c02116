"""Robustness tests for the search engine: deadlines, the degradation
ladder, fault isolation, and the distance-cache staleness fix."""

import pytest

from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import Jungloid, downcast
from repro.robustness import (
    DEGRADATION_LADDER,
    Deadline,
    FlakyCompiler,
    InjectedFault,
    ManualClock,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
)
from repro.search import (
    EnumerationReport,
    GraphSearch,
    SearchConfig,
    compile_graph,
    kernel_enumerate_paths,
)
from repro.search import engine as search_engine

from .search_oracle import KERNEL, ORACLE


def _sig_graph(registry):
    return SignatureGraph.from_registry(registry)


def _types(registry, *names):
    return tuple(registry.lookup(n) for n in names)


def _install(monkeypatch, **fault) -> FlakyCompiler:
    """Make every snapshot the engine compiles carry ``fault``."""
    flaky = FlakyCompiler(compile_graph, **fault)
    monkeypatch.setattr(search_engine, "compile_graph", flaky)
    return flaky


class TestEnumerationDeadline:
    search = ORACLE

    def test_expired_deadline_yields_nothing_and_reports(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)  # expired on first poll
        report = EnumerationReport()
        paths = list(
            self.search.enumerate_paths(graph, src, dst, 5, deadline=deadline, report=report)
        )
        assert paths == []
        assert report.deadline_expired
        assert report.truncated

    def test_no_deadline_reports_clean_completion(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        report = EnumerationReport()
        paths = list(self.search.enumerate_paths(graph, src, dst, 5, report=report))
        assert paths
        assert not report.deadline_expired

    def test_path_cap_is_reported(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.ui.Panel", "demo.ui.Item")
        unbounded = list(self.search.enumerate_paths(graph, src, dst, 6))
        assert len(unbounded) >= 2
        report = EnumerationReport()
        capped = list(self.search.enumerate_paths(graph, src, dst, 6, max_paths=1, report=report))
        assert len(capped) == 1
        assert report.path_cap_hit


class TestShortestPath:
    search = ORACLE

    def test_reconstructs_a_cheapest_path(self, small_registry):
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        dist = self.search.distances_to(graph, dst)
        path = self.search.shortest_path(graph, src, dst, dist=dist)
        assert path is not None
        assert path[0].source == src and path[-1].target == dst
        cost = sum(e.search_length for e in path)
        assert cost == dist[src]

    def test_unreachable_returns_none(self, small_registry):
        graph = _sig_graph(small_registry)
        sel, item = _types(small_registry, "demo.ui.ISelection", "demo.ui.Item")
        assert self.search.shortest_path(graph, sel, item) is None


class TestEnumerationDeadlineOnKernel(TestEnumerationDeadline):
    search = KERNEL


class TestShortestPathOnKernel(TestShortestPath):
    search = KERNEL


class TestDeadlineDegradation:
    def test_expired_budget_still_returns_ranked_results(self, standard_prospector):
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", deadline=deadline
        )
        assert outcome.degraded
        assert outcome.reason is not None
        assert outcome.reason.code == REASON_DEADLINE
        assert len(outcome.results) >= 1
        # Ranked, best-first, and the shortest-path rung still finds the
        # paper's canonical answer.
        assert [r.rank for r in outcome.results] == list(
            range(1, len(outcome.results) + 1)
        )
        assert (
            outcome.results[0].inline("x")
            == "new java.io.BufferedReader(new java.io.InputStreamReader(x))"
        )

    def test_ladder_rungs_run_in_order(self, standard_prospector):
        clock = ManualClock(tick=0.010)
        deadline = Deadline.after(1.0, clock)
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", deadline=deadline
        )
        assert outcome.rungs == DEGRADATION_LADDER
        assert outcome.rungs == (
            RUNG_FULL_WINDOW,
            RUNG_ZERO_EXTRA,
            RUNG_SHORTEST_PATH,
        )

    def test_unbudgeted_outcome_identical_to_solve_multi(self, standard_prospector):
        plain = standard_prospector.query(
            "java.io.InputStream", "java.io.BufferedReader"
        )
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader"
        )
        assert not outcome.degraded
        assert outcome.reasons == ()
        assert outcome.rungs == (RUNG_FULL_WINDOW,)
        assert [r.inline("x") for r in outcome.results] == [
            r.inline("x") for r in plain
        ]
        assert [r.rank for r in outcome.results] == [r.rank for r in plain]

    def test_generous_budget_is_not_degraded(self, standard_prospector):
        outcome = standard_prospector.query_outcome(
            "java.io.InputStream", "java.io.BufferedReader", time_budget_ms=60_000.0
        )
        assert not outcome.degraded
        assert outcome.elapsed_ms is not None

    def test_config_budget_engages_without_explicit_deadline(self, small_registry):
        graph = _sig_graph(small_registry)
        clock = ManualClock(tick=0.010)
        engine = GraphSearch(
            graph, config=SearchConfig(time_budget_ms=1.0), clock=clock
        )
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        outcome = engine.solve_multi_outcome([src], dst)
        assert outcome.degraded
        assert len(outcome.results) >= 1


class TestFaultIsolation:
    """Faults injected into the CSR snapshot the engine searches."""

    def test_flaky_graph_degrades_instead_of_raising(
        self, small_registry, monkeypatch
    ):
        _install(monkeypatch, fail_after=2)
        engine = GraphSearch(_sig_graph(small_registry))
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        outcome = engine.solve_multi_outcome([src], dst)  # must not raise
        assert outcome.degraded
        codes = {r.code for r in outcome.reasons}
        assert codes == {REASON_FAULT}
        # Every ladder rung was attempted, in order, before giving up.
        assert [r.rung for r in outcome.reasons] == list(DEGRADATION_LADDER)

    def test_flaky_graph_raises_through_legacy_api(self, small_registry):
        # The fault hook itself works: the raw kernel call sees the error.
        compiled = FlakyCompiler(compile_graph, fail_after=0)(_sig_graph(small_registry))
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        with pytest.raises(InjectedFault):
            list(kernel_enumerate_paths(compiled, src, dst, 5))

    def test_fault_in_one_source_spares_the_others(self, small_registry, monkeypatch):
        graph = _sig_graph(small_registry)
        src1, src2, dst = _types(
            small_registry,
            "demo.io.InputStream",
            "java.lang.String",
            "demo.io.BufferedReader",
        )
        healthy = GraphSearch(graph).solve_multi([src1, src2], dst)
        healthy_texts = {r.jungloid.render_expression("x") for r in healthy}
        # Count the edge reads of the first source's walk; a budget of
        # exactly that many trips the fault during the second source's.
        probe = _install(monkeypatch, fail_after=10**9)
        GraphSearch(graph).solve_multi([src1], dst)
        first_walk = probe.compiled.out_target.reads
        _install(monkeypatch, fail_after=first_walk)
        outcome = GraphSearch(graph).solve_multi_outcome([src1, src2], dst)
        assert outcome.degraded
        assert all(str(src2) in r.detail for r in outcome.reasons)
        got_texts = {r.jungloid.render_expression("x") for r in outcome.results}
        assert got_texts  # the healthy portion survived
        assert got_texts <= healthy_texts

    def test_distance_fault_same_in_single_and_batch(self, small_registry, monkeypatch):
        # A fault in the backward Dijkstra must not depend on how the
        # query is served: both paths return the same degraded outcome.
        _install(monkeypatch, fail_after=0, fail_on="in")
        graph = _sig_graph(small_registry)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        single = GraphSearch(graph).solve_multi_outcome([src], dst)
        (batch,) = GraphSearch(graph).solve_batch([(src, dst)])
        assert single == batch
        assert single.degraded
        assert [r.code for r in single.reasons] == [REASON_FAULT]

    def test_compile_failure_degrades_instead_of_hiding(
        self, small_registry, monkeypatch
    ):
        def broken(graph, **kwargs):
            raise InjectedFault("compile failed")

        monkeypatch.setattr(search_engine, "compile_graph", broken)
        src, dst = _types(small_registry, "demo.io.InputStream", "demo.io.BufferedReader")
        outcome = GraphSearch(_sig_graph(small_registry)).solve_multi_outcome([src], dst)
        assert outcome.degraded
        assert outcome.results == ()
        assert [r.code for r in outcome.reasons] == [REASON_FAULT]


class TestDistanceCacheInvalidation:
    def test_cache_refreshes_after_graph_mutation(self, small_registry):
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        # Prime the distance cache: no downcast edges, so unreachable.
        assert search.shortest_cost(sel, item) is None
        # Graft a mined typestate path (as mining/graft.py does).
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        # The stale cache said "unreachable"; the revision bump must
        # invalidate it so the new edge is visible.
        assert search.shortest_cost(sel, item) is not None

    def test_revision_counts_edge_insertions(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        before = graph.revision
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        assert graph.revision > before

    def test_unmutated_graph_reuses_cache(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        dst = small_registry.lookup("demo.io.BufferedReader")
        first = search._distances(dst)
        assert search._distances(dst) is first
