"""API member edges build their elementary jungloids on first read.

``SignatureGraph.from_registry`` adds each member edge as its member and
flow position. Against the eager build in ``tests/graph_oracle.py`` it
must lay out the same nodes and adjacency lists, edge for edge, and the
engine must charge every edge what the cost model charges its jungloid,
without building any. The build counts each member's free variables
once; the compile and its patches count none.
"""

import json
import sys

import pytest

from repro import Prospector
from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.graph import Edge, JungloidGraph, SignatureGraph, elementary_from_dict, graph_stats
from repro.jungloids import (
    CostModel,
    DEFAULT_COST_MODEL,
    ElementaryJungloid,
    ElementaryKind,
    Jungloid,
    NO_INPUT,
    RECEIVER,
    downcast,
    instance_call,
)
from repro.jungloids import elementary
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


@pytest.fixture
def counted(monkeypatch):
    """Every ``free_variable_counts`` result, from any module that imports it."""
    calls = []
    original = elementary.free_variable_counts

    def counting(*args):
        calls.append(original(*args))
        return calls[-1]

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "free_variable_counts", None) is original
        ):
            monkeypatch.setattr(module, "free_variable_counts", counting)
    return calls


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
    mined = _a_mined_path(synthetic_registry)
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


def test_counts_come_from_the_build_once_per_member(registry, counted):
    graph = JungloidGraph.build(registry)
    member_edges = [e for e in graph.edges() if e.member is not None]
    assert len(counted) == len({id(e.member) for e in member_edges}) < len(member_edges)
    # Members with equal counts share their two tuples.
    assert len({id(e.cost_counts) for e in member_edges}) <= 2 * len(set(counted))
    counted.clear()
    search = GraphSearch(graph)
    compiled = search._compiled_graph()
    assert counted == [] and compiled.edge_count == graph.edge_count()
    graph.add_mined_path(_a_mined_path(registry))
    assert search._compiled_graph() is compiled
    assert counted == []


def _a_mined_path(registry) -> Jungloid:
    """An instance call, then a downcast of its result."""
    m, sub = next(
        (m, sub)
        for decl in registry.all_declarations()
        for m in decl.methods
        if not m.static and isinstance(m.return_type, NamedType)
        for sub in registry.all_subtypes(m.return_type)
    )
    return Jungloid.of(instance_call(m)[0], downcast(m.return_type, sub))


def _shape(edge: Edge):
    """A member edge's kind, and where its input flows in."""
    return edge.kind, edge.flow if edge.flow < 0 else "parameter"


EVERY_MEMBER_SHAPE = {
    (ElementaryKind.FIELD_ACCESS, RECEIVER),  # instance field
    (ElementaryKind.FIELD_ACCESS, NO_INPUT),  # static field
    (ElementaryKind.INSTANCE_CALL, RECEIVER),
    (ElementaryKind.INSTANCE_CALL, "parameter"),
    (ElementaryKind.STATIC_CALL, NO_INPUT),
    (ElementaryKind.STATIC_CALL, "parameter"),
    (ElementaryKind.CONSTRUCTOR, NO_INPUT),  # no reference parameter
    (ElementaryKind.CONSTRUCTOR, "parameter"),
}


def test_the_bundled_graph_has_every_member_shape(standard_registry_and_corpus):
    graph = JungloidGraph.build(standard_registry_and_corpus[0])
    assert {_shape(e) for e in graph.edges() if e.member is not None} == EVERY_MEMBER_SHAPE


def _assert_compiled_costs(search: GraphSearch, model: CostModel) -> None:
    """Every live out-slot and in-slot of the snapshot costs what the
    model charges its edge's jungloid."""
    compiled, graph = search._compiled_graph(), search.graph
    node_id = compiled.node_id
    for u, node in enumerate(compiled.nodes):
        slots = range(compiled.out_start[u], compiled.out_end[u])
        got = [compiled.out_cost[i] for i in slots]
        assert got == [model.step_total(compiled.out_edges_ref[i].elementary) for i in slots]
        slots = range(compiled.in_start[u], compiled.in_end[u])
        got = sorted((compiled.in_source[i], compiled.in_cost[i]) for i in slots)
        want = [(node_id[e.source], model.step_total(e.elementary)) for e in graph.in_edges(node)]
        assert got == sorted(want)


@pytest.mark.parametrize(
    "model", [DEFAULT_COST_MODEL, CostModel(charge_primitive_free_variables=True)],
    ids=["default", "all-free"],
)
def test_compiled_and_patched_costs_equal_each_steps_total(registry, model):
    graph = JungloidGraph.build(registry)
    search = GraphSearch(graph, cost_model=model)
    _assert_compiled_costs(search, model)
    compiled = search._compiled_graph()
    mined = _a_mined_path(registry)
    graph.add_mined_path(mined)
    _assert_compiled_costs(search, model)
    graph.remove_mined_path(mined)
    _assert_compiled_costs(search, model)
    assert search._compiled_graph() is compiled  # patched, not compiled again
