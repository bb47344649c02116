"""Tests for the Prospector facade."""

from repro import CursorContext, Prospector, ProspectorConfig
from repro.eval import chain_signature
from repro.jungloids import CostModel
from repro.search import SearchConfig


class TestQueries:
    def test_query_by_name(self, small_prospector):
        results = small_prospector.query("demo.io.InputStream", "demo.io.BufferedReader")
        assert results[0].rank == 1
        assert chain_signature(results[0].jungloid) == (
            "new InputStreamReader",
            "new BufferedReader",
        )

    def test_query_ranks_are_sequential(self, small_prospector):
        results = small_prospector.query("demo.ui.Panel", "demo.ui.Viewer")
        assert [r.rank for r in results] == list(range(1, len(results) + 1))

    def test_timed_query(self, small_prospector):
        results, seconds = small_prospector.timed_query(
            "demo.io.InputStream", "demo.io.BufferedReader"
        )
        assert results
        assert seconds >= 0

    def test_unreachable_query_empty(self, small_prospector):
        assert small_prospector.query("demo.io.BufferedReader", "demo.ui.Panel") == []

    def test_mining_ran(self, small_prospector):
        assert small_prospector.mining is not None
        assert small_prospector.mining.example_count >= 2

    def test_without_corpus(self, small_registry):
        p = Prospector(small_registry)
        assert p.mining is None
        assert p.query("demo.io.InputStream", "demo.io.BufferedReader")

    def test_type_helper(self, small_prospector):
        t = small_prospector.type("Panel")
        assert str(t) == "demo.ui.Panel"


class TestCompletion:
    def test_complete_uses_visible_and_void(self, small_prospector):
        ctx = CursorContext.at_assignment(
            small_prospector.registry,
            target_type="demo.ui.Viewer",
            visible=[("panel", "demo.ui.Panel")],
        )
        results = small_prospector.complete(ctx)
        texts = {r.inline("panel") for r in results}
        assert "panel.getViewer()" in texts
        # The void source offers the Panel factory route.
        assert any(r.is_void_source for r in results)

    def test_results_carry_source_types(self, small_prospector):
        ctx = CursorContext.at_assignment(
            small_prospector.registry,
            target_type="demo.ui.Viewer",
            visible=[("panel", "demo.ui.Panel")],
        )
        sources = {str(r.source_type) for r in small_prospector.complete(ctx)}
        assert "demo.ui.Panel" in sources


class TestConfigs:
    def test_clustering_config(self, small_registry, small_corpus):
        p = Prospector(
            small_registry, small_corpus, ProspectorConfig(cluster_results=True)
        )
        results = p.query("demo.ui.Panel", "demo.ui.Viewer")
        # With clustering on, parallel chains collapse (still ranked 1..n).
        assert [r.rank for r in results] == list(range(1, len(results) + 1))

    def test_search_config_threaded_through(self, small_registry, small_corpus):
        p = Prospector(
            small_registry,
            small_corpus,
            ProspectorConfig(search=SearchConfig(max_results=1)),
        )
        assert len(p.query("demo.io.InputStream", "demo.io.BufferedReader")) == 1

    def test_cost_model_threaded_through(self, small_registry, small_corpus):
        p = Prospector(
            small_registry,
            small_corpus,
            ProspectorConfig(cost_model=CostModel(free_variable_cost=0)),
        )
        assert p.search.cost_model.free_variable_cost == 0

    def test_stats(self, small_prospector):
        stats = small_prospector.stats()
        assert stats["registry"]["types"] > 5
        assert stats["mining"]["examples"] >= 2
        assert any(label == "nodes" for label, _ in stats["graph"])


class TestSynthesisResults:
    def test_code_rendering(self, small_prospector):
        result = small_prospector.query("demo.io.InputStream", "demo.io.BufferedReader")[0]
        snippet = result.code("in", "reader")
        assert snippet.lines[-1].startswith("demo.io.BufferedReader reader =")
        assert result.inline("in") == (
            "new demo.io.BufferedReader(new demo.io.InputStreamReader(in))"
        )

    def test_free_variables_surface(self, small_prospector):
        # Panel.itemFor(Widget): flowing through the Widget leaves the
        # Panel receiver as a free variable.
        results = small_prospector.query("demo.ui.Widget", "demo.ui.Item")
        with_free = [r for r in results if r.free_variables()]
        assert with_free
        assert any(str(v.type) == "demo.ui.Panel" for v in with_free[0].free_variables())

    def test_str(self, small_prospector):
        result = small_prospector.query("demo.io.InputStream", "demo.io.BufferedReader")[0]
        assert str(result).startswith("#1 ")


class TestConfigDefaults:
    def test_default_subconfigs_are_not_shared(self):
        from repro.core import ProspectorConfig

        a = ProspectorConfig()
        b = ProspectorConfig()
        # field(default_factory=...) — mutating one default must never
        # leak into configs constructed elsewhere.
        assert a.extraction is not b.extraction
        assert a.search is not b.search
        assert a.extraction == b.extraction
        assert a.search == b.search


class TestUpdateCorpus:
    def test_update_matches_fresh_build(self, small_registry):
        from repro.corpus import load_corpus_texts

        from .conftest import SMALL_CORPUS

        live = Prospector(
            small_registry,
            load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)]),
        )
        search = live.search
        stats = live.update_corpus(
            upserts=[("handler.mj", SMALL_CORPUS + "\n// note\n")]
        )
        assert stats.files_remined == ("handler.mj",)
        assert live.search is search  # the graft lands in the served graph
        fresh = Prospector(
            small_registry,
            load_corpus_texts(
                small_registry, [("handler.mj", SMALL_CORPUS + "\n// note\n")]
            ),
        )
        query = ("demo.ui.ISelection", "demo.ui.Item")
        assert [s.jungloid.render_expression("x") for s in live.query(*query)] == [
            s.jungloid.render_expression("x") for s in fresh.query(*query)
        ]

    def test_update_refreshes_argument_mining(self, small_registry):
        from repro.corpus import load_corpus_texts

        from .conftest import SMALL_CORPUS

        live = Prospector(
            small_registry,
            load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)]),
        )
        live._argument_examples()  # prime the lazy cache
        live.update_corpus(removes=["handler.mj"])
        assert live._argument_examples() == []

    def test_update_without_pipeline_raises(self, small_registry):
        import pytest

        bare = Prospector(small_registry)
        with pytest.raises(RuntimeError):
            bare.update_corpus(upserts=[("a.mj", "package p; public class A {}")])


class TestViabilityAnalysis:
    """Prospector.verify and the verdict index wiring."""

    def test_corpus_prospector_has_verdicts(self, small_prospector):
        assert small_prospector.verdicts is not None
        assert len(small_prospector.verdicts) > 0

    def test_verify_composes_result_jungloids(self, small_prospector):
        from repro.analysis import CastVerdict

        results = small_prospector.query("demo.ui.Viewer", "demo.ui.Item")
        assert results
        assert results[0].jungloid.downcast_count == 2
        verdict = small_prospector.verify(results[0].jungloid)
        assert verdict.verdict is CastVerdict.JUSTIFIED
        assert verdict.downcast_count == 2

    def test_results_carry_verdicts(self, small_prospector):
        results = small_prospector.query("demo.ui.Viewer", "demo.ui.Item")
        assert results
        for result in results:
            assert result.verdict is not None

    def test_verify_without_corpus_uses_relatedness_fallback(self, small_registry):
        from repro.analysis import CastVerdict
        from repro.jungloids import Jungloid, downcast

        bare = Prospector(small_registry)
        assert bare.verdicts is None
        widget = small_registry.lookup("demo.ui.Widget")
        item = small_registry.lookup("demo.ui.Item")
        verdict = bare.verify(Jungloid.of(downcast(widget, item)))
        assert verdict.verdict is CastVerdict.PLAUSIBLE

    def test_snapshot_round_trips_verdicts(self, tmp_path, small_prospector):
        path = tmp_path / "graph.psnap"
        small_prospector.save_snapshot(path)
        loaded = Prospector.from_snapshot(path)
        assert loaded.verdicts is not None
        assert set(loaded.verdicts.witnessed_pairs) == set(
            small_prospector.verdicts.witnessed_pairs
        )
        results = loaded.query("demo.ui.Viewer", "demo.ui.Item")
        assert results and results[0].verdict is not None

    def test_update_corpus_refreshes_verdicts(self, small_registry):
        from repro.corpus import load_corpus_texts

        from .conftest import SMALL_CORPUS

        live = Prospector(
            small_registry,
            load_corpus_texts(small_registry, [("handler.mj", SMALL_CORPUS)]),
        )
        assert len(live.verdicts) > 0
        live.update_corpus(removes=["handler.mj"])
        assert live.verdicts is live.pipeline.verdicts
        assert len(live.verdicts) == 0
