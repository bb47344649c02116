"""Graph statistics, printed by the Section-5 performance benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..jungloids import ElementaryKind
from .nodes import TypestateNode
from .signature_graph import SignatureGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary counts for a signature or jungloid graph."""

    nodes: int
    typestate_nodes: int
    edges: int
    edges_by_kind: Dict[str, int]

    @property
    def widening_edges(self) -> int:
        return self.edges_by_kind.get(ElementaryKind.WIDENING.value, 0)

    @property
    def downcast_edges(self) -> int:
        return self.edges_by_kind.get(ElementaryKind.DOWNCAST.value, 0)

    def rows(self):
        """(label, value) rows for table-style printing."""
        rows = [
            ("nodes", self.nodes),
            ("typestate nodes", self.typestate_nodes),
            ("edges", self.edges),
        ]
        rows.extend(
            (f"edges[{kind}]", count) for kind, count in sorted(self.edges_by_kind.items())
        )
        return rows

    def __str__(self) -> str:
        return "\n".join(f"{label:>24}: {value}" for label, value in self.rows())


def graph_stats(graph: SignatureGraph) -> GraphStats:
    """Compute node/edge counts for any graph built by this package."""
    by_kind: Dict[str, int] = {}
    total = 0
    for edge in graph.edges():
        by_kind[edge.kind.value] = by_kind.get(edge.kind.value, 0) + 1
        total += 1
    typestates = sum(1 for n in graph.nodes if isinstance(n, TypestateNode))
    return GraphStats(
        nodes=graph.node_count(),
        typestate_nodes=typestates,
        edges=total,
        edges_by_kind=by_kind,
    )
