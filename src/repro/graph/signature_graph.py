"""The signature graph (Section 3.1).

Nodes are the reference types of the API (plus ``void``); edges are the
elementary jungloids derivable from declarations: field accesses, static
and instance calls, constructor invocations, and widening conversions.
Downcast edges are **excluded** by default — including them is the
Figure-3 ablation (`include_downcasts=True`), which demonstrates why:
nearly all downcast paths are inviable yet rank at the top.

Every jungloid the API supports (without downcasts) corresponds exactly
to a path in this graph, so solution jungloids for ``(t_in, t_out)`` are
paths from ``t_in`` to ``t_out``.

Every edge insertion and removal bumps the graph's revision and lands in
a bounded edge journal (:meth:`SignatureGraph.changes_since`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..jungloids import (
    ElementaryJungloid,
    Jungloid,
    constructor_call,
    downcast,
    field_access,
    instance_call,
    static_call,
    widening,
)
from ..typesystem import (
    ArrayType,
    JavaType,
    NamedType,
    TypeKind,
    TypeRegistry,
    VOID,
    is_reference,
)
from .nodes import Edge, Node, node_base_type


class SignatureGraph:
    """Directed multigraph of elementary jungloids over reference types."""

    def __init__(self, registry: TypeRegistry):
        self.registry = registry
        self._out: Dict[Node, List[Edge]] = {}
        self._in: Dict[Node, List[Edge]] = {}
        self._nodes: Set[Node] = set()
        self._revision = 0
        self._edge_count = 0
        #: Edge journal: revision ``_journal_base + i + 1`` added (flag 1)
        #: or removed (0) ``_journal_edges[i]``.
        self._journal_edges: List[Edge] = []
        self._journal_added = bytearray()
        self._journal_base = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_registry(
        cls,
        registry: TypeRegistry,
        public_only: bool = True,
        include_downcasts: bool = False,
    ) -> "SignatureGraph":
        """Build the signature graph from every declaration in ``registry``.

        ``public_only`` reproduces PROSPECTOR's restriction to public
        members (the stated cause of one Table-1 failure).
        ``include_downcasts`` adds every ``(T) x : super → sub`` edge — the
        deliberately bad configuration of Figure 3.
        """
        graph = cls(registry)
        graph.add_node(VOID)
        for decl in registry.all_declarations():
            graph.add_node(decl.type)
        for decl in registry.all_declarations():
            t = decl.type
            for f in decl.fields:
                if public_only and not f.is_public:
                    continue
                graph.add_elementary(field_access(f))
            for m in decl.methods:
                if public_only and not m.is_public:
                    continue
                variants = static_call(m) if m.static else instance_call(m)
                for e in variants:
                    graph.add_elementary(e)
            if decl.kind is TypeKind.CLASS and not decl.abstract:
                for c in decl.constructors:
                    if public_only and not c.is_public:
                        continue
                    for e in constructor_call(c):
                        graph.add_elementary(e)
        graph._add_widening_edges()
        if include_downcasts:
            graph._add_all_downcast_edges()
        return graph

    def add_node(self, node: Node) -> Node:
        if node not in self._nodes:
            self._nodes.add(node)
            self._out.setdefault(node, [])
            self._in.setdefault(node, [])
        return node

    def add_edge(self, edge: Edge) -> Edge:
        self.add_node(edge.source)
        self.add_node(edge.target)
        self._out[edge.source].append(edge)
        self._in[edge.target].append(edge)
        # An insertion grows the journal and the edge count alike, so it
        # never needs a trim; the graph build makes tens of thousands.
        self._edge_count += 1
        self._revision += 1
        self._journal_edges.append(edge)
        self._journal_added.append(1)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove one edge (first match by value); endpoints stay."""
        try:
            self._out[edge.source].remove(edge)
            self._in[edge.target].remove(edge)
        except (KeyError, ValueError):
            raise ValueError(f"edge not in graph: {edge}") from None
        self._edge_count -= 1
        self._revision += 1
        self._journal_edges.append(edge)
        self._journal_added.append(0)
        excess = len(self._journal_edges) - self._edge_count
        if excess > 0:
            # Replaying more changes than the graph has edges costs more
            # than a full compile. Dropping the older half (not just the
            # excess) keeps the trim amortized O(1) per mutation.
            drop = max(excess, len(self._journal_edges) // 2)
            del self._journal_edges[:drop]
            del self._journal_added[:drop]
            self._journal_base += drop

    def remove_node(self, node: Node) -> None:
        """Remove an isolated node (no incident edges left)."""
        if self._out.get(node) or self._in.get(node):
            raise ValueError(f"node still has incident edges: {node}")
        self._nodes.discard(node)
        self._out.pop(node, None)
        self._in.pop(node, None)

    @property
    def revision(self) -> int:
        """Mutation counter; bumps on every edge insertion or removal.

        Compiled kernel snapshots record it, and the engine replays
        :meth:`changes_since` that revision to patch a snapshot and to
        evict only the distance maps the edits can move (see
        :mod:`repro.search.kernel` and :mod:`repro.search.engine`).
        """
        return self._revision

    # ------------------------------------------------------------------
    # Edge journal
    # ------------------------------------------------------------------

    def changes_since(self, revision: int) -> Optional[List[Tuple[bool, Edge]]]:
        """Every edge change after ``revision``, oldest first.

        Each change is ``(added, edge)``. Returns ``None`` once the journal,
        which never holds more than :meth:`edge_count` entries, no longer
        reaches back to ``revision``: start over from the live graph.
        """
        start = revision - self._journal_base
        if start < 0 or revision > self._revision:
            return None
        added = map(bool, self._journal_added[start:])
        return list(zip(added, self._journal_edges[start:]))

    def node_order(self) -> Tuple[Node, ...]:
        """Every node, in insertion order.

        :attr:`nodes` is a set, so its iteration order is hash-driven;
        the search kernel interns node ids against this stable order so
        a compiled snapshot is deterministic for a given build sequence.
        """
        return tuple(self._out)

    def add_elementary(self, elementary: ElementaryJungloid) -> Optional[Edge]:
        """Add a plain edge for an elementary jungloid between type nodes.

        Edges whose endpoint types are not reference types (or ``void``
        input) are skipped — primitives are never graph nodes (footnote 4).
        """
        t_in, t_out = elementary.input_type, elementary.output_type
        if not (is_reference(t_in) or t_in == VOID):
            return None
        if not is_reference(t_out):
            return None
        if isinstance(t_in, ArrayType):
            self.add_node(t_in)
        if isinstance(t_out, ArrayType):
            self.add_node(t_out)
        return self.add_edge(Edge(t_in, t_out, elementary))

    def _add_widening_edges(self) -> None:
        for node in list(self._nodes):
            t = node_base_type(node)
            if node == VOID or isinstance(node, type(None)):
                continue
            if not is_reference(t) or not isinstance(node, (NamedType, ArrayType)):
                continue
            for sup in self.registry.widening_targets(t):
                self.add_edge(Edge(node, sup, widening(t, sup)))

    def _add_all_downcast_edges(self) -> None:
        """Figure-3 ablation: a downcast edge for every strict subtype pair."""
        for node in list(self._nodes):
            if not isinstance(node, NamedType):
                continue
            for sub in self.registry.all_subtypes(node):
                self.add_edge(Edge(node, sub, downcast(node, sub)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Set[Node]:
        return self._nodes

    def out_edges(self, node: Node) -> Tuple[Edge, ...]:
        return tuple(self._out.get(node, ()))

    def in_edges(self, node: Node) -> Tuple[Edge, ...]:
        return tuple(self._in.get(node, ()))

    def edges(self) -> Iterator[Edge]:
        for edges in self._out.values():
            yield from edges

    def edge_count(self) -> int:
        return self._edge_count

    def node_count(self) -> int:
        return len(self._nodes)

    def has_node(self, node: Node) -> bool:
        return node in self._nodes

    def downcast_edge_count(self) -> int:
        return sum(1 for e in self.edges() if e.is_downcast)

    # ------------------------------------------------------------------
    # Path → jungloid
    # ------------------------------------------------------------------

    @staticmethod
    def path_to_jungloid(path: Iterable[Edge]) -> Jungloid:
        """Convert an edge path into the jungloid it represents."""
        return Jungloid(tuple(e.elementary for e in path))
