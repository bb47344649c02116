"""The engine's ranking key is the paper's key, computed once per path.

The engine renders each enumerated path once, reuses that text as the
key's tie-break, and sums the other parts from per-step memos. This
contract holds it to :func:`~repro.search.viability_rank_key` computed
from the jungloid alone, on Table 1 and on the scale benchmark's probe
queries.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.eval import TABLE1_PROBLEMS
from repro.graph import JungloidGraph
from repro.jungloids import Jungloid, downcast
from repro.search import GraphSearch, viability_rank_key
from repro.search import engine as search_engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class KeySpy:
    """Records every key the engine builds, and counts path renders."""

    def __init__(self, monkeypatch):
        self.keys = {}
        self.renders = 0
        self.paths = 0
        spy = self

        def viability(registry, jungloid, *args, **kwargs):
            key = viability_rank_key(registry, jungloid, *args, **kwargs)
            spy.keys[id(jungloid)] = key
            return key

        def enumerate_paths(*args, **kwargs):
            for path in search_engine_enumerate(*args, **kwargs):
                spy.paths += 1
                yield path

        def render(jungloid, input_expr="x"):
            spy.renders += 1
            return original_render(jungloid, input_expr)

        search_engine_enumerate = search_engine.kernel_enumerate_paths
        original_render = Jungloid.render_expression
        monkeypatch.setattr(search_engine, "viability_rank_key", viability)
        monkeypatch.setattr(search_engine, "kernel_enumerate_paths", enumerate_paths)
        monkeypatch.setattr(Jungloid, "render_expression", render)


def fresh_search(prospector):
    """A new engine over ``prospector``'s graph: empty per-step memos."""
    search = prospector.search
    return GraphSearch(search.graph, search.cost_model, search.config, verdicts=search.verdicts)


def check_query(spy, search, t_in, t_out):
    """Solve one query; every ranked key must equal the key computed
    from its jungloid alone, and each path is rendered exactly once."""
    spy.renders = spy.paths = 0
    results = search.solve_multi([t_in], t_out)
    assert spy.renders == spy.paths
    registry = search.graph.registry
    for result in results:
        jungloid = result.jungloid
        alone = viability_rank_key(registry, jungloid, search.verdicts, search.cost_model)
        assert spy.keys[id(jungloid)] == alone
    ordered = [spy.keys[id(r.jungloid)] for r in results]
    assert ordered == sorted(ordered)
    return results


@pytest.fixture(scope="module")
def scale_probe():
    """The scale-query benchmark's fixed instance and probe pairs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    registry, corpus, _, probe = workloads.scale_query_inputs()
    return workloads.scale_query_instance(registry, corpus.texts()), probe


class TestEngineKeyEqualsPaperKey:
    def test_table1(self, standard_prospector, monkeypatch):
        spy = KeySpy(monkeypatch)
        search = fresh_search(standard_prospector)
        assert search.verdicts is not None
        results = 0
        for problem in TABLE1_PROBLEMS:
            t_in = standard_prospector.type(problem.t_in)
            t_out = standard_prospector.type(problem.t_out)
            results += len(check_query(spy, search, t_in, t_out))
        assert results > 0

    def test_table1_without_verdicts(self, standard_prospector, monkeypatch):
        spy = KeySpy(monkeypatch)
        search = GraphSearch(standard_prospector.graph)
        for problem in TABLE1_PROBLEMS[:6]:
            check_query(
                spy,
                search,
                standard_prospector.type(problem.t_in),
                standard_prospector.type(problem.t_out),
            )

    def test_scale_probe(self, scale_probe, monkeypatch):
        prospector, probe = scale_probe
        spy = KeySpy(monkeypatch)
        search = fresh_search(prospector)
        paths = 0
        for t_in, t_out in probe:
            check_query(spy, search, prospector.type(t_in), prospector.type(t_out))
            paths += spy.paths
        assert paths > 0

    def test_batch_renders_at_most_once_per_path(self, standard_prospector, monkeypatch):
        spy = KeySpy(monkeypatch)
        search = fresh_search(standard_prospector)
        pairs = [
            (standard_prospector.type(p.t_in), standard_prospector.type(p.t_out))
            for p in TABLE1_PROBLEMS
        ]
        search.solve_batch(pairs + pairs)
        assert 0 < spy.renders == spy.paths


class TestVerdictsStillDemote:
    def test_set_verdicts_demotes_inviable_results(self, small_prospector, monkeypatch):
        registry = small_prospector.registry
        verdicts = small_prospector.verdicts
        viewer = registry.lookup("demo.ui.Viewer")
        item = registry.lookup("demo.ui.Item")
        # An unrelated-class downcast: the index synthesizes it INVIABLE.
        mined = list(small_prospector.mined_jungloids) + [Jungloid.of(downcast(viewer, item))]
        search = GraphSearch(JungloidGraph.build(registry, mined))
        panel = registry.lookup("demo.ui.Panel")
        spy = KeySpy(monkeypatch)
        before = check_query(spy, search, panel, item)
        search.set_verdicts(verdicts)
        after = check_query(spy, search, panel, item)
        demotions = [verdicts.demotion_rank(r.jungloid) for r in after]
        assert demotions == [0, 1]
        assert sorted(r.jungloid.render_expression("x") for r in before) == sorted(
            r.jungloid.render_expression("x") for r in after
        )
