"""API member edges build their elementary jungloids on first read.

``SignatureGraph.from_registry`` adds each member edge as its member and
flow position. Against the eager build in ``tests/graph_oracle.py`` it
must lay out the same nodes and adjacency lists, edge for edge, and the
engine must charge every edge what the cost model charges its jungloid,
without building any.
"""

import json

import pytest

from repro import Prospector
from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.graph import Edge, JungloidGraph, SignatureGraph, elementary_from_dict, graph_stats
from repro.jungloids import CostModel, ElementaryJungloid, Jungloid, downcast, instance_call
from repro.jungloids.elementary import member_jungloid
from repro.pipeline import CorpusPipeline
from repro.search.engine import GraphSearch
from repro.search.kernel import compile_graph
from repro.typesystem import NamedType

from .graph_oracle import decode_step_from_all_variants, eager_signature_graph
from .test_update_work import _corpusgen


@pytest.fixture(scope="module")
def synthetic_registry():
    return generate_synthetic_api(SyntheticApiConfig())


@pytest.fixture(params=["bundled", "synthetic"])
def registry(request, standard_registry_and_corpus, synthetic_registry):
    if request.param == "bundled":
        return standard_registry_and_corpus[0]
    return synthetic_registry


@pytest.fixture
def member_builds(monkeypatch):
    """Every elementary jungloid built for a member, as it is built."""
    built = []
    init = ElementaryJungloid.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.member is not None:
            built.append(self)

    monkeypatch.setattr(ElementaryJungloid, "__init__", counting)
    return built


GRAPH_OPTIONS = [
    dict(public_only=True),
    dict(public_only=False),
    dict(public_only=True, include_downcasts=True),
]


@pytest.mark.parametrize("options", GRAPH_OPTIONS, ids=["public", "all", "downcasts"])
def test_the_adjacency_equals_the_eager_build(registry, options):
    lazy = SignatureGraph.from_registry(registry, **options)
    eager = eager_signature_graph(registry, **options)
    assert lazy.node_order() == eager.node_order()
    assert lazy.edge_count() == eager.edge_count()
    for node in eager.node_order():
        for got, want in ((lazy.out_edges(node), eager.out_edges(node)),
                          (lazy.in_edges(node), eager.in_edges(node))):
            assert [e.elementary for e in got] == [e.elementary for e in want]
            assert [(e.source, e.target) for e in got] == [(e.source, e.target) for e in want]
            assert list(got) == list(want)


@pytest.mark.parametrize(
    "model", [CostModel(), CostModel(charge_primitive_free_variables=True)], ids=["default", "all-free"]
)
def test_the_engine_charges_each_edge_its_step_total(registry, model):
    graph = SignatureGraph.from_registry(registry, include_downcasts=True)
    search = GraphSearch(graph, cost_model=model)
    edges = list(graph.edges())
    costs = [search._edge_cost(e) for e in edges]
    assert costs == [model.step_total(e.elementary) for e in edges]
    assert {e.is_widening for e in edges} == {True, False}


def test_a_fresh_build_builds_no_member_jungloid(synthetic_registry, member_builds):
    graph = JungloidGraph.build(synthetic_registry)
    compile_graph(graph, GraphSearch(graph)._edge_cost)
    assert graph.edge_count() == 22456
    assert member_builds == []
    # Removing a mined path finds its edges by identity: no member
    # edge on the way is compared by value.
    m, sub = next(
        (m, sub)
        for decl in synthetic_registry.all_declarations()
        for m in decl.methods
        if not m.static and isinstance(m.return_type, NamedType)
        for sub in synthetic_registry.all_subtypes(m.return_type)
    )
    mined = Jungloid.of(instance_call(m)[0], downcast(m.return_type, sub))
    built = len(member_builds)
    graph.add_mined_path(mined)
    graph.remove_mined_path(mined)
    assert len(member_builds) == built


@pytest.mark.parametrize("options", GRAPH_OPTIONS, ids=["public", "all", "downcasts"])
def test_graph_stats_builds_no_member_jungloid(synthetic_registry, member_builds, options):
    stats = graph_stats(SignatureGraph.from_registry(synthetic_registry, **options))
    assert member_builds == []
    assert stats == graph_stats(eager_signature_graph(synthetic_registry, **options))


def test_a_member_edge_is_a_value_built_once(synthetic_registry, member_builds):
    graph = SignatureGraph.from_registry(synthetic_registry)
    edge = next(e for e in graph.edges() if e.member is not None)
    twin = Edge(edge.source, edge.target, member_jungloid(edge.member, edge.flow))
    assert hash(edge) == hash(twin) and len(member_builds) == 1
    assert edge == twin and twin == edge
    first = edge.elementary
    assert edge.elementary is first and first == twin.elementary
    assert len(member_builds) == 2


def _step_entries(data):
    """Every encoded elementary jungloid in a JSON document."""
    if isinstance(data, dict):
        if "kind" in data and "flow" in data:
            yield data
            return
        data = data.values()
    if isinstance(data, (list, tuple, type({}.values()))):
        for item in data:
            yield from _step_entries(item)


def test_a_saved_scale_snapshot_decodes_every_step_as_before(synthetic_registry, tmp_path):
    texts = _corpusgen().generate_corpus(synthetic_registry, files=100, seed=7).texts()
    snap = tmp_path / "g.psnap"
    Prospector(synthetic_registry, pipeline=CorpusPipeline.build(synthetic_registry, texts)).save_snapshot(snap)
    registry = Prospector.from_snapshot(snap).registry
    payload = snap.read_bytes().partition(b"\n")[2]
    decoded = 0
    for entry in _step_entries(json.loads(payload)["mined"]):
        assert elementary_from_dict(registry, entry) == decode_step_from_all_variants(
            registry, entry
        )
        decoded += 1
    assert decoded > 1000
