"""Figure 6: the jungloid graph with typestate nodes.

Mined example suffixes are spliced into the signature graph with *fresh*
nodes for intermediate objects (the figure's ``Object-1``), so mined
downcasts apply only along the mined call sequence. The benchmark builds
the jungloid graph, renders the Figure-6 neighborhood, and checks the
precision property the fresh nodes buy: a plain ``Object`` still has no
cast edge to ``JavaInspectExpression``.
"""

from __future__ import annotations

from conftest import write_artifact

from repro.graph import graph_stats, path_dot
from repro.pipeline import CorpusPipeline


def _build(registry, corpus):
    return CorpusPipeline.from_program(registry, corpus).graph


def test_figure6_typestate_nodes(registry_and_corpus, out_dir, benchmark):
    registry, corpus = registry_and_corpus
    graph = benchmark(_build, registry, corpus)

    typestates = graph.typestate_nodes()
    assert typestates, "mined paths must introduce typestate nodes"
    # Figure 6's star: a fresh Object node carrying the mined cast.
    object_states = [t for t in typestates if t.tag.startswith("Object-")]
    assert object_states

    # Precision: from the REAL Object node there is no downcast edge.
    obj = registry.object_type
    assert all(not e.is_downcast for e in graph.out_edges(obj))
    # From the typestate Object node there is exactly the mined cast.
    jie_casts = [
        e
        for t in object_states
        for e in graph.out_edges(t)
        if e.is_downcast and str(e.target).endswith("JavaInspectExpression")
    ]
    assert jie_casts

    # Render the mined path containing that cast.
    target_path = next(
        path
        for path in graph.mined_paths
        if any(e.is_downcast and str(e.target).endswith("JavaInspectExpression") for e in path)
    )
    dot = path_dot(target_path, title="Figure 6: mined typestate path")
    write_artifact(out_dir, "figure6.dot", dot)
    assert "style=dashed" in dot  # typestate nodes are drawn dashed

    stats = graph_stats(graph)
    write_artifact(out_dir, "figure6_stats.txt", str(stats))
    assert stats.typestate_nodes == len(typestates)
