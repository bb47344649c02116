"""Tests for analysis-aware ranking: INVIABLE demotion as a tie-break."""

import pytest

from repro import Prospector
from repro.analysis import CastVerdict
from repro.eval import TABLE1_PROBLEMS
from repro.graph import SignatureGraph
from repro.jungloids import DEFAULT_COST_MODEL, Jungloid, downcast
from repro.search import (
    GraphSearch,
    RankKey,
    ViabilityRankKey,
    rank_key,
    viability_rank_key,
)


class TestViabilityRankKey:
    def test_demotion_dominates_base_order(self, small_prospector):
        registry = small_prospector.registry
        verdicts = small_prospector.verdicts
        assert verdicts is not None
        widget = registry.lookup("demo.ui.Widget")
        item = registry.lookup("demo.ui.Item")
        viewer = registry.lookup("demo.ui.Viewer")
        # Widget -> Item is corpus-witnessed; Viewer -> Item is an
        # unrelated-class downcast the index synthesizes as INVIABLE.
        good = Jungloid.of(downcast(widget, item))
        bad = Jungloid.of(downcast(viewer, item))
        assert verdicts.verdict_for_cast(widget, item).verdict is not (
            CastVerdict.INVIABLE
        )
        assert verdicts.verdict_for_cast(viewer, item).verdict is (
            CastVerdict.INVIABLE
        )
        good_key = viability_rank_key(registry, good, verdicts)
        bad_key = viability_rank_key(registry, bad, verdicts)
        assert good_key < bad_key
        assert good_key.demotion == 0
        assert bad_key.demotion == 1
        # Same base heuristic, so only the demotion separates them.
        assert isinstance(good_key, ViabilityRankKey)

    def test_without_verdicts_demotion_is_zero(self, small_prospector):
        registry = small_prospector.registry
        widget = registry.lookup("demo.ui.Widget")
        item = registry.lookup("demo.ui.Item")
        j = Jungloid.of(downcast(widget, item))
        key = viability_rank_key(registry, j, None)
        assert key.demotion == 0
        assert key.base == rank_key(registry, j, DEFAULT_COST_MODEL)


class TestEngineIntegration:
    def test_engine_without_verdicts_uses_plain_rank_key(self, small_prospector):
        search = GraphSearch(small_prospector.graph)
        assert search.verdicts is None
        registry = small_prospector.registry
        results = search.solve(
            registry.lookup("demo.ui.Panel"), registry.lookup("demo.ui.Item")
        )
        assert results  # plain path still answers
        keys = [rank_key(registry, j) for j in results]
        assert keys == sorted(keys)

    def test_no_verdicts_matches_verdict_free_order(self, standard_prospector):
        registry = standard_prospector.registry
        off = GraphSearch(
            standard_prospector.graph,
            cost_model=standard_prospector.config.cost_model,
            config=standard_prospector.config.search,
            verdicts=standard_prospector.verdicts,
        )
        off.set_verdicts(None)
        bare = GraphSearch(
            standard_prospector.graph,
            cost_model=standard_prospector.config.cost_model,
            config=standard_prospector.config.search,
        )
        for problem in TABLE1_PROBLEMS[:6]:
            t_in = registry.lookup(problem.t_in)
            t_out = registry.lookup(problem.t_out)
            a = [j.render_expression("x") for j in off.solve(t_in, t_out)]
            b = [j.render_expression("x") for j in bare.solve(t_in, t_out)]
            assert a == b

    def test_inviable_results_sort_after_viable(self, standard_prospector):
        # The all-downcast-edges ablation graph is full of unwitnessed
        # casts; with verdicts attached, demoted results must never
        # precede undemoted ones.
        registry = standard_prospector.registry
        verdicts = standard_prospector.verdicts
        assert verdicts is not None
        graph = SignatureGraph.from_registry(registry, include_downcasts=True)
        search = GraphSearch(graph, verdicts=verdicts)
        results = search.solve(
            registry.lookup("org.eclipse.jface.viewers.ISelection"),
            registry.lookup("org.eclipse.jdt.core.dom.ASTNode"),
        )
        assert results
        demotions = [verdicts.demotion_rank(j) for j in results]
        assert demotions == sorted(demotions)

    def test_set_verdicts_reranks_the_next_query(self, standard_prospector):
        registry = standard_prospector.registry
        verdicts = standard_prospector.verdicts
        graph = SignatureGraph.from_registry(registry, include_downcasts=True)
        search = GraphSearch(graph)
        t_in = registry.lookup("org.eclipse.jface.viewers.ISelection")
        t_out = registry.lookup("org.eclipse.jdt.core.dom.ASTNode")
        before = search.solve(t_in, t_out)
        search.set_verdicts(verdicts)
        after = search.solve(t_in, t_out)
        demotions = [verdicts.demotion_rank(j) for j in after]
        assert demotions == sorted(demotions)
        assert sorted(j.render_expression("x") for j in before) == sorted(
            j.render_expression("x") for j in after
        )


class TestTable1Unchanged:
    """Analysis-aware ranking must not move the paper's answers: on the
    bundled corpus no Table-1 result is INVIABLE, so the ranked output
    is byte-identical with and without the verdict index."""

    def test_table1_answers_byte_identical(self, standard_registry_and_corpus):
        registry, corpus = standard_registry_and_corpus
        on = Prospector(registry, corpus)
        off = Prospector(registry, corpus)
        assert on.verdicts is not None
        off.search.set_verdicts(None)  # packaging still carries verdicts
        for problem in TABLE1_PROBLEMS:
            a = [
                s.jungloid.render_expression("x")
                for s in on.query(problem.t_in, problem.t_out)
            ]
            b = [
                s.jungloid.render_expression("x")
                for s in off.query(problem.t_in, problem.t_out)
            ]
            assert a == b, problem.problem_id
