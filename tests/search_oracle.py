"""The reference search: the differential oracle for the CSR kernel.

A plain backward Dijkstra and a recursive bounded DFS over the live
:class:`~repro.graph.SignatureGraph`, calling ``edge_cost`` on every
edge — the algorithm of the paper's Section 5 written the obvious way.
Nothing in ``src/`` serves queries through it; the differential tests
hold :mod:`repro.search.kernel` to it path for path, report for report.

:class:`OracleSearch` is a :class:`~repro.search.GraphSearch` whose
distance, enumeration and shortest-path calls go through this module,
so whole ranked outcomes (ladder and deadlines included) can be
compared. :data:`ORACLE` and :data:`KERNEL` put both searches behind
the same three calls, so one edge-case test class runs on each.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.apispec import ApiBuilder
from repro.graph import Edge, Node, SignatureGraph
from repro.robustness import Deadline
from repro.search import (
    EnumerationReport,
    GraphSearch,
    UNREACHABLE,
    compile_graph,
    distances_for,
    kernel_enumerate_paths,
    kernel_shortest_path,
)
from repro.search.engine import MAX_PATHS_PER_SOURCE
from repro.search.kernel import EdgeCost, unit_cost
from repro.typesystem import TypeRegistry


def distances_to(
    graph: SignatureGraph, target: Node, edge_cost: EdgeCost = unit_cost
) -> Dict[Node, int]:
    """Minimum path cost from every node to ``target`` (backward Dijkstra)."""
    dist: Dict[Node, int] = {target: 0}
    heap: List[Tuple[int, int, Node]] = [(0, 0, target)]
    counter = 0  # tie-break so heterogeneous nodes never get compared
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist.get(node, UNREACHABLE):
            continue
        for edge in graph.in_edges(node):
            nd = d + edge_cost(edge)
            if nd < dist.get(edge.source, UNREACHABLE):
                dist[edge.source] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, edge.source))
    return dist


def enumerate_paths(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    max_cost: int,
    dist: Optional[Dict[Node, int]] = None,
    max_paths: int = 10000,
    edge_cost: EdgeCost = unit_cost,
    deadline: Optional[Deadline] = None,
    report: Optional[EnumerationReport] = None,
    check_every: int = 128,
) -> Iterator[Tuple[Edge, ...]]:
    """Every acyclic ``source``→``target`` path of cost ≤ ``max_cost``,
    up to ``max_paths``, in edge insertion order; ``deadline`` is polled
    every ``check_every`` expansions."""
    if report is None:
        report = EnumerationReport()
    if not graph.has_node(source) or not graph.has_node(target):
        return
    if deadline is not None and deadline.expired():
        report.deadline_expired = True
        return
    if dist is None:
        dist = distances_to(graph, target, edge_cost)
    if dist.get(source, UNREACHABLE) > max_cost:
        return

    produced = 0
    stopped = False
    path: List[Edge] = []
    on_path = {source}

    def dfs(node: Node, cost: int) -> Iterator[Tuple[Edge, ...]]:
        nonlocal produced, stopped
        if produced >= max_paths:
            report.path_cap_hit = True
            return
        if stopped:
            return
        report.expansions += 1
        if (
            deadline is not None
            and report.expansions % check_every == 0
            and deadline.expired()
        ):
            report.deadline_expired = True
            stopped = True
            return
        if node == target and path:
            produced += 1
            report.produced = produced
            yield tuple(path)
            # Continuing past the target would need a cycle; stop here.
            return
        for edge in graph.out_edges(node):
            if produced >= max_paths:
                report.path_cap_hit = True
                return
            if stopped:
                return
            nxt = edge.target
            if nxt in on_path:
                continue
            new_cost = cost + edge_cost(edge)
            if new_cost + dist.get(nxt, UNREACHABLE) > max_cost:
                continue
            path.append(edge)
            on_path.add(nxt)
            yield from dfs(nxt, new_cost)
            on_path.discard(nxt)
            path.pop()

    yield from dfs(source, 0)


def shortest_path(
    graph: SignatureGraph,
    source: Node,
    target: Node,
    dist: Optional[Dict[Node, int]] = None,
    edge_cost: EdgeCost = unit_cost,
) -> Optional[Tuple[Edge, ...]]:
    """One cheapest path, following the first optimal edge at each node."""
    if not graph.has_node(source) or not graph.has_node(target):
        return None
    if dist is None:
        dist = distances_to(graph, target, edge_cost)
    if dist.get(source, UNREACHABLE) >= UNREACHABLE:
        return None
    node = source
    path: List[Edge] = []
    visited = {source}
    while node != target:
        here = dist.get(node, UNREACHABLE)
        for edge in graph.out_edges(node):
            if edge.target in visited:
                continue
            if edge_cost(edge) + dist.get(edge.target, UNREACHABLE) == here:
                path.append(edge)
                node = edge.target
                visited.add(node)
                break
        else:
            return None  # every optimal edge loops back
    return tuple(path) if path else None


class CompleteDistances(dict):
    """A reference distance map, marked complete as the ladder expects."""

    horizon = None


class OracleSearch(GraphSearch):
    """A :class:`GraphSearch` answering through the reference search.

    Its maps are always complete, whatever the query's sources, so the
    differentials also hold the kernel's horizon-bounded maps to them.
    """

    def _distances(
        self, target: Node, sources: Optional[Sequence[Node]] = None
    ) -> CompleteDistances:
        return CompleteDistances(
            distances_to(self.graph, target, edge_cost=self._edge_cost)
        )

    def _enumerate(self, source, t_out, bound, dist, deadline, report):
        return enumerate_paths(
            self.graph,
            source,
            t_out,
            bound,
            dist=dist,
            max_paths=MAX_PATHS_PER_SOURCE,
            edge_cost=self._edge_cost,
            deadline=deadline,
            report=report,
            check_every=self.config.deadline_check_every,
        )

    def _shortest_path(self, source, t_out, dist):
        return shortest_path(
            self.graph, source, t_out, dist=dist, edge_cost=self._edge_cost
        )


def _kernel_distances_to(graph, target, edge_cost=unit_cost):
    return distances_for(compile_graph(graph, edge_cost), target)


def _kernel_enumerate_paths(graph, source, target, max_cost, edge_cost=unit_cost, **kw):
    return kernel_enumerate_paths(compile_graph(graph, edge_cost), source, target, max_cost, **kw)


def _kernel_shortest_path(graph, source, target, dist=None, edge_cost=unit_cost):
    compiled = dist.compiled if dist is not None else compile_graph(graph, edge_cost)
    return kernel_shortest_path(compiled, source, target, dist=dist)


#: The reference search behind the three calls the edge-case tests make.
ORACLE = SimpleNamespace(
    distances_to=distances_to,
    enumerate_paths=enumerate_paths,
    shortest_path=shortest_path,
)

#: The CSR kernel behind the same calls (compiling the graph per call).
KERNEL = SimpleNamespace(
    distances_to=_kernel_distances_to,
    enumerate_paths=_kernel_enumerate_paths,
    shortest_path=_kernel_shortest_path,
)


def build_stress_graph(fan_out: int = 16) -> Tuple[TypeRegistry, SignatureGraph]:
    """A synthetic high-fanout graph: Source → Mid_i → Leaf_j → Target.

    Every mid node reaches every leaf (``fan_out²`` acyclic solution
    paths of length 3) and additionally fans out to dead-end distractor
    types that the cost bound must prune.
    """
    api = ApiBuilder()
    api.cls("stress.Source")
    api.cls("stress.Target")
    source = api.on("stress.Source")
    for i in range(fan_out):
        api.cls(f"stress.Mid{i}")
        api.cls(f"stress.Dead{i}")
        source.method(f"toMid{i}", f"stress.Mid{i}")
    for j in range(fan_out):
        api.cls(f"stress.Leaf{j}")
        api.on(f"stress.Leaf{j}").method("finish", "stress.Target")
    for i in range(fan_out):
        mid = api.on(f"stress.Mid{i}")
        for j in range(fan_out):
            mid.method(f"toLeaf{j}", f"stress.Leaf{j}")
            mid.method(f"toDead{j}", f"stress.Dead{j}")
    registry = api.registry
    return registry, SignatureGraph.from_registry(registry)
