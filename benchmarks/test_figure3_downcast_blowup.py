"""Figure 3: adding *all* downcast edges to the signature graph.

The paper's negative result: representing downcasts as ordinary edges
floods the graph with short, inviable jungloids (casting any Object to
any class), which the length heuristic then ranks at the top. The
benchmark builds the ablated graph and quantifies the damage:

* downcast edges dominate the edge count;
* the bad short jungloid the paper calls out —
  ``(JavaInspectExpression) debugger.getViewer().getInput()`` — is
  synthesized and outranks honest results;
* the number of paths for the Figure-2 query explodes versus the mined
  jungloid graph.
"""

from __future__ import annotations

from conftest import write_artifact

from repro.graph import SignatureGraph, graph_stats, subgraph_dot
from repro.search import GraphSearch, compile_graph, kernel_enumerate_paths

def count_paths(graph, t_in, t_out, max_cost):
    """Acyclic paths within the bound (capped at the kernel's 10,000)."""
    compiled = compile_graph(graph)
    return sum(1 for _ in kernel_enumerate_paths(compiled, t_in, t_out, max_cost))


QUERY = (
    "org.eclipse.debug.ui.IDebugView",
    "org.eclipse.jdt.internal.debug.ui.display.JavaInspectExpression",
)


def test_figure3_blowup(registry_and_corpus, out_dir, benchmark):
    registry, _ = registry_and_corpus
    ablated = benchmark.pedantic(
        SignatureGraph.from_registry,
        args=(registry,),
        kwargs={"include_downcasts": True},
        rounds=3,
        iterations=1,
    )
    clean = SignatureGraph.from_registry(registry)
    ablated_stats = graph_stats(ablated)
    clean_stats = graph_stats(clean)

    # Downcast edges swamp the graph: more of them than of any honest
    # edge kind, and they outnumber every method-call edge combined.
    assert ablated_stats.downcast_edges > max(
        count
        for kind, count in ablated_stats.edges_by_kind.items()
        if kind != "cast"
    )
    assert clean_stats.downcast_edges == 0

    search = GraphSearch(ablated)
    t_in = registry.lookup(QUERY[0])
    t_out = registry.lookup(QUERY[1])
    results = search.solve(t_in, t_out)
    assert results, "the ablated graph answers the query, badly"
    # The top results are short cast-happy jungloids like the paper's
    # (JavaInspectExpression) debugger.getViewer().getInput().
    assert results[0].has_downcast
    assert results[0].length <= 3

    clean_paths = count_paths(clean, t_in, t_out, max_cost=5)
    ablated_paths = count_paths(ablated, t_in, t_out, max_cost=5)
    # The downcast edges inject a flood of additional (inviable) paths.
    assert ablated_paths > clean_paths * 3
    assert ablated_paths > 250

    report = "\n".join(
        [
            "Figure 3 ablation: signature graph with ALL downcast edges",
            f"clean graph:   {clean_stats.edges} edges ({clean_stats.downcast_edges} downcasts)",
            f"ablated graph: {ablated_stats.edges} edges ({ablated_stats.downcast_edges} downcasts)",
            f"paths for {QUERY[0].rsplit('.',1)[-1]} -> {QUERY[1].rsplit('.',1)[-1]}"
            f" within cost 5: clean={clean_paths} ablated={ablated_paths}",
            "top ablated results (inviable short jungloids):",
        ]
        + [f"  {j.render_expression('debugger')}" for j in results[:5]]
    )
    write_artifact(out_dir, "figure3_blowup.txt", report)
    write_artifact(
        out_dir,
        "figure3.dot",
        subgraph_dot(
            ablated,
            [t_out],
            radius=1,
            title="Figure 3: all downcast edges (ablation)",
            max_nodes=25,
        ),
    )
