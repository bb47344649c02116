"""Tests for the mining stages and jungloid-graph grafting, as the staged
pipeline runs them."""

from repro.eval import chain_signature
from repro.pipeline import CorpusPipeline
from repro.search import GraphSearch


class TestMineCorpus:
    def test_pipeline_stages_exposed(self, small_prospector):
        result = small_prospector.mining
        assert result.example_count >= 2
        assert result.suffix_count >= 2
        assert len(result.generalized) == result.example_count

    def test_trimming_summary(self, small_prospector):
        result = small_prospector.mining
        summary = result.trimming_summary()
        assert summary["examples"] == result.example_count
        assert summary["mean_suffix_len"] <= summary["mean_example_len"]

    def test_empty_corpus(self, small_registry):
        result = CorpusPipeline.build(small_registry, []).mining
        assert result.example_count == 0
        assert result.trimming_summary()["examples"] == 0


class TestGrafting:
    def test_graph_answers_downcast_query(self, small_registry, small_prospector):
        # The Item(Panel) constructor gives a cheap (wrong-intent) answer,
        # so widen the window beyond m+1 to reach the mined route.
        search = GraphSearch(small_prospector.graph).with_config(extra_cost=4)
        panel = small_registry.lookup("demo.ui.Panel")
        item = small_registry.lookup("demo.ui.Item")
        results = search.solve(panel, item)
        mined = [j for j in results if j.has_downcast]
        assert mined
        assert chain_signature(mined[0]) == (
            "Panel.getViewer",
            "Viewer.getSelection",
            "cast IStructuredSelection",
            "IStructuredSelection.getFirstElement",
            "cast Item",
        )

    def test_client_members_not_in_graph(self, small_prospector):
        # The corpus class client.Handler must not be a node: client
        # methods are inlined by mining, never offered as edges.
        assert all("client.Handler" not in str(n) for n in small_prospector.graph.nodes)

    def test_typestates_present(self, small_prospector):
        assert small_prospector.graph.typestate_nodes()
