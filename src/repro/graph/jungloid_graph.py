"""The jungloid graph: signature graph + mined example paths (Section 4.2).

Each generalized example jungloid ``λx.(U)e : T → U`` is spliced into the
graph as a fresh path from the existing node ``T`` to the existing node
``U``; all intermediate objects get **fresh typestate nodes** (Figure 6's
``Object-1``), so the mined downcast is reachable only through the mined
call sequence — casting arbitrary ``Object`` values to ``U`` remains
unrepresentable, which is exactly the precision property Section 4.1
demands.

Besides one-shot construction the graph supports **delta grafting**
(:meth:`JungloidGraph.apply_mined_delta`): the incremental pipeline
computes which mined suffixes appeared or disappeared after a corpus
update and splices/unsplices exactly those paths into the live graph.
The edge journal records each changed edge, so the search engine patches
its compiled snapshot and keeps every cached distance map those edges
cannot move instead of flushing everything downstream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..jungloids import ElementaryJungloid, Jungloid
from ..typesystem import TypeRegistry, VOID
from .nodes import Edge, Node, TypestateNode
from .signature_graph import SignatureGraph

#: Value identity of a mined suffix: its elementary step sequence.
SuffixKey = Tuple[ElementaryJungloid, ...]


@dataclass(frozen=True)
class MinedDelta:
    """What one delta application did to the live graph."""

    added: Tuple[Jungloid, ...]
    removed: Tuple[Jungloid, ...]
    edges_added: int
    edges_removed: int
    #: Nodes whose adjacency the delta changed: every endpoint of an
    #: added or removed edge.
    affected_targets: FrozenSet[Node]
    revision_before: int
    revision_after: int

    @property
    def is_noop(self) -> bool:
        return not self.added and not self.removed


class JungloidGraph(SignatureGraph):
    """Signature graph refined with mined typestate paths."""

    def __init__(self, registry: TypeRegistry):
        super().__init__(registry)
        self._typestate_counter: Dict[str, int] = {}
        self._mined_paths: List[Tuple[Edge, ...]] = []
        self._paths_by_key: Dict[SuffixKey, List[Tuple[Edge, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        registry: TypeRegistry,
        mined: Iterable[Jungloid] = (),
        public_only: bool = True,
    ) -> "JungloidGraph":
        """Build the signature graph and splice every mined jungloid in."""
        base = SignatureGraph.from_registry(registry, public_only=public_only)
        graph = cls(registry)
        for node in base.nodes:
            graph.add_node(node)
        for edge in base.edges():
            graph.add_edge(edge)
        for jungloid in mined:
            graph.add_mined_path(jungloid)
        return graph

    def _fresh_typestate(self, node_type) -> TypestateNode:
        simple = getattr(node_type, "simple", None) or str(node_type)
        count = self._typestate_counter.get(simple, 0) + 1
        self._typestate_counter[simple] = count
        return TypestateNode(base=node_type, tag=f"{simple}-{count}")

    def add_mined_path(self, jungloid: Jungloid) -> Tuple[Edge, ...]:
        """Splice one generalized example jungloid into the graph.

        The path starts at the existing node for the example's input type
        and ends at the existing node for its output type; every
        intermediate object gets a fresh typestate node.
        """
        steps = jungloid.steps
        source: Node = jungloid.input_type
        self.add_node(source)
        edges: List[Edge] = []
        for i, step in enumerate(steps):
            last = i == len(steps) - 1
            target: Node = step.output_type if last else self._fresh_typestate(step.output_type)
            self.add_node(target)
            edges.append(self.add_edge(Edge(source, target, step)))
            source = target
        path = tuple(edges)
        self._mined_paths.append(path)
        self._paths_by_key.setdefault(steps, []).append(path)
        return path

    def remove_mined_path(self, jungloid: Jungloid) -> Tuple[Edge, ...]:
        """Unsplice a previously grafted mined path (delta grafting).

        Removes the path's edges, its intermediate typestate nodes, and
        any endpoint node the path itself had introduced (a node is kept
        whenever other edges still touch it). Raises :class:`KeyError`
        when no grafted path matches the jungloid's step sequence.
        """
        paths = self._paths_by_key.get(jungloid.steps)
        if not paths:
            raise KeyError(f"no mined path grafted for {jungloid.describe()}")
        path = paths.pop()
        if not paths:
            del self._paths_by_key[jungloid.steps]
        self._mined_paths.remove(path)
        for edge in path:
            self.remove_edge(edge)
        for edge in path:
            for node in (edge.source, edge.target):
                if node == VOID or not self.has_node(node):
                    continue
                if not self._out.get(node) and not self._in.get(node):
                    self.remove_node(node)
        return path

    # ------------------------------------------------------------------
    # Delta grafting
    # ------------------------------------------------------------------

    def apply_mined_delta(
        self,
        added: Sequence[Jungloid] = (),
        removed: Sequence[Jungloid] = (),
    ) -> MinedDelta:
        """Graft ``added`` and ungraft ``removed`` as one step.

        The delta is all or nothing: every removal must name a grafted
        path (counting repeats) or :class:`KeyError` is raised before the
        graph, its revision or its edge journal change. An empty delta
        leaves the revision untouched, so no cache anywhere needs to move.
        """
        added = list(added)
        removed = list(removed)
        revision_before = self._revision
        if not added and not removed:
            return MinedDelta((), (), 0, 0, frozenset(), revision_before, revision_before)
        wanted: Counter = Counter()
        for jungloid in removed:
            wanted[jungloid.steps] += 1
            if wanted[jungloid.steps] > len(self._paths_by_key.get(jungloid.steps, ())):
                raise KeyError(f"no mined path grafted for {jungloid.describe()}")
        added_paths = [self.add_mined_path(j) for j in added]
        removed_paths = [self.remove_mined_path(j) for j in removed]
        touched = added_paths + removed_paths
        return MinedDelta(
            added=tuple(added),
            removed=tuple(removed),
            edges_added=sum(len(p) for p in added_paths),
            edges_removed=sum(len(p) for p in removed_paths),
            affected_targets=frozenset(
                node for path in touched for e in path for node in (e.source, e.target)
            ),
            revision_before=revision_before,
            revision_after=self._revision,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def mined_paths(self) -> Sequence[Tuple[Edge, ...]]:
        return tuple(self._mined_paths)

    def mined_suffix_keys(self) -> Tuple[SuffixKey, ...]:
        """Step sequences of every grafted path, in graft order."""
        return tuple(
            tuple(edge.elementary for edge in path) for path in self._mined_paths
        )

    def typestate_nodes(self) -> Tuple[TypestateNode, ...]:
        return tuple(n for n in self.nodes if isinstance(n, TypestateNode))

    def mined_path_count(self) -> int:
        return len(self._mined_paths)

    def find_typestate(self, tag: str) -> Optional[TypestateNode]:
        for n in self.nodes:
            if isinstance(n, TypestateNode) and n.tag == tag:
                return n
        return None
