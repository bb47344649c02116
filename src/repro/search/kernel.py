"""Bounded acyclic path search over a compiled (CSR) graph.

The paper limits search to acyclic paths (all desired solutions observed
were acyclic) and, per Section 5, constructs all paths of cost ≤ m+1,
where m is the cost of the query's cheapest path. Cost is the ranking
heuristic's size estimate: widening edges are free, ordinary elementary
jungloids cost 1, and each reference-typed free variable adds the
estimated 2 (Section 3.2's extension of the length heuristic). Using the
same estimate for the window and for ranking keeps short-but-incomplete
paths (constructor calls full of free variables) from shrinking the
window below honest solutions.

The live :class:`~repro.graph.SignatureGraph` is a dict-of-list
multigraph; searching it directly would call an edge-cost function on
every edge touched and hash full type objects at every step. Instead it
is lowered into a flat snapshot:

* every node is interned to a dense integer id (insertion order, so the
  lowering is deterministic for a given build sequence);
* out- and in-adjacency become parallel slot lists in CSR form
  (``out_start[u] .. out_end[u]`` indexes the edges leaving ``u``);
* the cost model is evaluated **once per edge slot**, so the hot loops
  compare precomputed integers.

:func:`compile_graph` lowers the whole graph; after an edit,
:meth:`CompiledGraph.patch` rewrites only the nodes it touched, keeping
each node's edges in the graph's own order, so enumeration yields the
same paths in the same order as a fresh compile.

On top of the snapshot:

* a backward shortest-path pass from the target gives ``dist(n)`` =
  minimum remaining cost from ``n`` to the target. Edge costs are small
  non-negative integers (widening is free), so it runs on a bucket (Dial)
  queue: one list per distance level, scanned in order;
* a forward depth-first expansion (explicit frame stack) from the source
  prunes any prefix whose cost plus ``dist`` exceeds the bound.

Enumeration never looks past its bound ``min(m + extra, cap)``, so a
query's map may stop at the *horizon* ``min(max m + extra, cap)`` over
its sources: nodes farther than that stay :data:`UNREACHABLE`, and every
finite entry is exact. The distance map is computed once per target and
shared by every source — this is how "running all queries at once"
(multi-source search, Section 5) costs about the same as one query.
``tests/search_oracle.py`` keeps a plain recursive version of both loops
over the live graph; the differential tests hold this module to it path
for path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..graph import Edge, Node, SignatureGraph
from ..robustness import Deadline

#: Effectively-infinite distance for unreachable nodes.
UNREACHABLE = 1 << 30

#: An edge-cost function; the default charges 1 per non-widening edge.
EdgeCost = Callable[[Edge], int]


@dataclass
class EnumerationReport:
    """How a :func:`kernel_enumerate_paths` run ended (filled in by the
    callee).

    Generators cannot return status alongside yielded values, so callers
    that need to know *why* enumeration stopped pass one of these in.
    """

    #: Paths actually yielded.
    produced: int = 0
    #: Node expansions performed by the DFS (counted whether or not a
    #: deadline is set, so perf reports are meaningful without a budget).
    expansions: int = 0
    #: True when a deadline cut the enumeration short (results partial).
    deadline_expired: bool = False
    #: True when the ``max_paths`` cap stopped the enumeration.
    path_cap_hit: bool = False

    @property
    def truncated(self) -> bool:
        return self.deadline_expired or self.path_cap_hit


def unit_cost(edge: Edge) -> int:
    """The plain length metric: widening free, everything else 1."""
    return edge.search_length


class CompiledGraph:
    """A CSR snapshot of a signature/jungloid graph, patchable in place.

    ``out_edges_ref[i]`` is the live :class:`~repro.graph.Edge` object for
    CSR slot ``i`` — paths are yielded as the graph's own edge objects,
    so jungloid conversion, ranking and rendering need no translation.
    ``edge_count`` counts live slots only.
    """

    __slots__ = (
        "revision",
        "nodes",
        "node_id",
        "out_start",
        "out_end",
        "out_target",
        "out_cost",
        "out_edges_ref",
        "in_start",
        "in_end",
        "in_source",
        "in_cost",
        "edge_count",
    )

    def __init__(
        self,
        revision: int,
        nodes: List[Node],
        node_id: Dict[Node, int],
        out_start: List[int],
        out_end: List[int],
        out_target: List[int],
        out_cost: List[int],
        out_edges_ref: List[Edge],
        in_start: List[int],
        in_end: List[int],
        in_source: List[int],
        in_cost: List[int],
    ):
        self.revision = revision
        self.nodes = nodes
        self.node_id = node_id
        self.out_start = out_start
        self.out_end = out_end
        self.out_target = out_target
        self.out_cost = out_cost
        self.out_edges_ref = out_edges_ref
        self.in_start = in_start
        self.in_end = in_end
        self.in_source = in_source
        self.in_cost = in_cost
        self.edge_count = sum(out_end[u] - out_start[u] for u in range(len(nodes)))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def stale_slots(self) -> int:
        """Out-slots no node points at any more (left behind by patches)."""
        return len(self.out_target) - self.edge_count

    def patch(
        self,
        graph: SignatureGraph,
        changes: Sequence[Tuple[bool, Edge]],
        edge_cost: EdgeCost = unit_cost,
    ) -> None:
        """Bring this snapshot to ``graph.revision`` in place, given
        ``changes = graph.changes_since(self.revision)``.

        New endpoints get the next ids; each touched node's live out- and
        in-list is copied to the slot lists' tails (a removed node keeps
        its id, with no edges). Arrays are mutated, never replaced.
        """
        node_id = self.node_id
        sources = dict.fromkeys(edge.source for _, edge in changes)
        targets = dict.fromkeys(edge.target for _, edge in changes)
        for node in (*sources, *targets):
            if node not in node_id:
                node_id[node] = len(self.nodes)
                self.nodes.append(node)
                for ends in (self.out_start, self.out_end, self.in_start, self.in_end):
                    ends.append(0)
        for node in sources:
            u = node_id[node]
            self.edge_count -= self.out_end[u] - self.out_start[u]
            self.out_start[u] = len(self.out_target)
            for edge in graph.out_edges(node):
                self.out_target.append(node_id[edge.target])
                self.out_cost.append(edge_cost(edge))
                self.out_edges_ref.append(edge)
            self.out_end[u] = len(self.out_target)
            self.edge_count += self.out_end[u] - self.out_start[u]
        for node in targets:
            v = node_id[node]
            self.in_start[v] = len(self.in_source)
            for edge in graph.in_edges(node):
                self.in_source.append(node_id[edge.source])
                self.in_cost.append(edge_cost(edge))
            self.in_end[v] = len(self.in_source)
        self.revision = graph.revision


def compile_graph(
    graph: SignatureGraph, edge_cost: EdgeCost = unit_cost
) -> CompiledGraph:
    """Lower ``graph`` into a :class:`CompiledGraph` snapshot.

    ``edge_cost`` is evaluated exactly once per edge, here; the search
    loops never call it again. The snapshot records ``graph.revision`` so
    callers can detect staleness after mined paths are grafted in.
    """
    nodes = list(graph.node_order())
    node_id = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    out_start: List[int] = [0] * (n + 1)
    out_target: List[int] = []
    out_cost: List[int] = []
    out_edges_ref: List[Edge] = []
    # Per-edge in-adjacency, bucketed then flattened to CSR.
    in_buckets: List[List[Tuple[int, int]]] = [[] for _ in range(n)]

    for uid, node in enumerate(nodes):
        for edge in graph.out_edges(node):
            vid = node_id[edge.target]
            cost = edge_cost(edge)
            out_target.append(vid)
            out_cost.append(cost)
            out_edges_ref.append(edge)
            in_buckets[vid].append((uid, cost))
        out_start[uid + 1] = len(out_target)

    in_start: List[int] = [0] * (n + 1)
    in_source: List[int] = []
    in_cost: List[int] = []
    for vid in range(n):
        for uid, cost in in_buckets[vid]:
            in_source.append(uid)
            in_cost.append(cost)
        in_start[vid + 1] = len(in_source)

    # Contiguous slots: each node's range ends where the next one's starts.
    return CompiledGraph(
        revision=graph.revision,
        nodes=nodes,
        node_id=node_id,
        out_start=out_start[:-1],
        out_end=out_start[1:],
        out_target=out_target,
        out_cost=out_cost,
        out_edges_ref=out_edges_ref,
        in_start=in_start[:-1],
        in_end=in_start[1:],
        in_source=in_source,
        in_cost=in_cost,
    )


class KernelDistances:
    """A distance map backed by the kernel's flat integer array.

    Reads like a ``Dict[Node, int]`` — ``get(node, default)`` returns
    ``default`` for unknown or unreachable nodes — while the kernel loops
    index :attr:`arr` directly. ``horizon`` is ``None`` for a complete
    map; otherwise the map holds exactly the nodes within ``horizon`` of
    the target, and a node outside it may still reach the target.
    """

    __slots__ = ("compiled", "target", "arr", "horizon")

    def __init__(
        self,
        compiled: CompiledGraph,
        target: Node,
        arr: List[int],
        horizon: Optional[int] = None,
    ):
        self.compiled = compiled
        self.target = target
        self.arr = arr
        self.horizon = horizon

    def get(self, node: Node, default=None):
        nid = self.compiled.node_id.get(node)
        if nid is None:
            return default
        value = self.arr[nid]
        return value if value < UNREACHABLE else default

    def __getitem__(self, node: Node) -> int:
        value = self.get(node)
        if value is None:
            raise KeyError(node)
        return value

    def __contains__(self, node: Node) -> bool:
        return self.get(node) is not None

    def covers(self, sources: Iterable[Node], extra_cost: int, max_cost: int) -> bool:
        """Whether this map serves the ladder for every one of ``sources``.

        A source needs every node within ``min(m + extra_cost,
        max_cost)`` of the target; one beyond the horizon has ``m`` past
        it, so it needs ``max_cost`` (where it enumerates nothing).
        """
        horizon = self.horizon
        if horizon is None:
            return True
        node_id = self.compiled.node_id
        arr = self.arr
        for source in sources:
            nid = node_id.get(source)
            if nid is None:
                continue
            m = arr[nid]
            need = max_cost if m >= UNREACHABLE else min(m + extra_cost, max_cost)
            if need > horizon:
                return False
        return True


def kernel_distances(
    compiled: CompiledGraph,
    target_id: int,
    source_ids: Optional[Iterable[int]] = None,
    extra_cost: int = 0,
    max_cost: int = UNREACHABLE,
) -> Tuple[List[int], Optional[int]]:
    """Backward shortest distances over the CSR in-adjacency, on a
    bucket queue.

    Returns ``(dist, horizon)``: ``dist[u]`` is the minimum cost from
    node ``u`` to the target, :data:`UNREACHABLE` when no path exists.
    With ``source_ids=None`` the map is complete and ``horizon`` is
    ``None``. Otherwise levels are settled until every source is settled
    (or ``max_cost`` is reached), then up to the horizon ``min(max m +
    extra_cost, max_cost)``; tentative entries beyond it are reset to
    :data:`UNREACHABLE`, so every finite entry is exact.
    """
    n = len(compiled.nodes)
    dist = [UNREACHABLE] * n
    dist[target_id] = 0
    in_start = compiled.in_start
    in_end = compiled.in_end
    in_source = compiled.in_source
    in_cost = compiled.in_cost
    if source_ids is None:
        pending = 0
        is_source = None
        limit = UNREACHABLE
    else:
        is_source = bytearray(n)
        for sid in source_ids:
            is_source[sid] = 1
        pending = sum(is_source)
        # With no source left to settle, level 0 already decides m.
        limit = max_cost if pending else min(extra_cost, max_cost)
    buckets: List[List[int]] = [[target_id]]
    level = 0
    while level < len(buckets) and level <= limit:
        # Zero-cost (widening) edges append to the bucket being scanned;
        # list iteration picks the appended nodes up.
        for node in buckets[level]:
            if dist[node] != level:
                continue  # superseded by a cheaper entry
            if pending and is_source[node]:
                pending -= 1
                if not pending:
                    limit = min(level + extra_cost, max_cost)
            for e in range(in_start[node], in_end[node]):
                nd = level + in_cost[e]
                if nd > limit:
                    continue  # past the horizon: never settled
                src = in_source[e]
                if nd < dist[src]:
                    dist[src] = nd
                    while len(buckets) <= nd:
                        buckets.append([])
                    buckets[nd].append(src)
        level += 1
    if limit >= UNREACHABLE:
        return dist, None
    return [d if d <= limit else UNREACHABLE for d in dist], limit


def distances_for(
    compiled: CompiledGraph,
    target: Node,
    sources: Optional[Iterable[Node]] = None,
    extra_cost: int = 0,
    max_cost: int = UNREACHABLE,
) -> Optional[KernelDistances]:
    """Distance map to ``target``, or ``None`` when it is not a node.

    ``sources=None`` asks for the complete map; otherwise the map stops
    at the horizon of those sources (see :func:`kernel_distances`).
    Sources that are not nodes are ignored.
    """
    tid = compiled.node_id.get(target)
    if tid is None:
        return None
    source_ids = None
    if sources is not None:
        node_id = compiled.node_id
        source_ids = [node_id[s] for s in sources if s in node_id]
    arr, horizon = kernel_distances(compiled, tid, source_ids, extra_cost, max_cost)
    return KernelDistances(compiled, target, arr, horizon)


def kernel_enumerate_paths(
    compiled: CompiledGraph,
    source: Node,
    target: Node,
    max_cost: int,
    dist: Optional[KernelDistances] = None,
    max_paths: int = 10000,
    deadline: Optional[Deadline] = None,
    report: Optional[EnumerationReport] = None,
    check_every: int = 128,
) -> Iterator[Tuple[Edge, ...]]:
    """Yield every acyclic path from ``source`` to ``target`` with cost
    ≤ ``max_cost``, up to ``max_paths``.

    Paths are produced in a deterministic order (edge insertion order at
    each node); ranking happens downstream. ``report`` counts expansions
    per node entry and flags the ``max_paths`` cap. When ``deadline`` is
    given it is polled every ``check_every`` expansions; on expiry the
    generator stops cleanly with whatever it has yielded so far and marks
    ``report.deadline_expired``.
    """
    if report is None:
        report = EnumerationReport()
    node_id = compiled.node_id
    sid = node_id.get(source)
    tid = node_id.get(target)
    if sid is None or tid is None:
        return
    if deadline is not None and deadline.expired():
        report.deadline_expired = True
        return
    if dist is None:
        dist = distances_for(compiled, target)
    arr = dist.arr
    if arr[sid] > max_cost:
        return

    out_start = compiled.out_start
    out_end = compiled.out_end
    out_target = compiled.out_target
    out_cost = compiled.out_cost
    out_edges_ref = compiled.out_edges_ref

    produced = 0
    stopped = False
    on_path = bytearray(len(compiled.nodes))
    on_path[sid] = 1
    path: List[int] = []  # CSR edge indices of the current prefix
    # A frame is [node_id, cost_so_far, next_edge_index]; -1 marks a
    # freshly pushed frame whose entry checks have not run yet.
    frames: List[List[int]] = [[sid, 0, -1]]

    def leave() -> None:
        # Return from the current frame: undo the edge that entered it
        # (the root frame was not entered through an edge).
        frame = frames.pop()
        if frames:
            on_path[frame[0]] = 0
            path.pop()

    while frames:
        frame = frames[-1]
        node = frame[0]
        ei = frame[2]
        if ei < 0:
            # Entry checks: path cap, stop flag, deadline poll, target.
            if produced >= max_paths:
                report.path_cap_hit = True
                leave()
                continue
            if stopped:
                leave()
                continue
            report.expansions += 1
            if (
                deadline is not None
                and report.expansions % check_every == 0
                and deadline.expired()
            ):
                report.deadline_expired = True
                stopped = True
                leave()
                continue
            if node == tid and path:
                produced += 1
                report.produced = produced
                yield tuple(out_edges_ref[i] for i in path)
                # Continuing past the target would need a cycle; stop.
                leave()
                continue
            frame[2] = out_start[node]
            continue
        if ei >= out_end[node]:
            leave()  # out-edge loop exhausted
            continue
        # Per-edge loop body: path cap, stop flag, cycle and bound pruning.
        if produced >= max_paths:
            report.path_cap_hit = True
            leave()
            continue
        if stopped:
            leave()
            continue
        frame[2] = ei + 1
        nxt = out_target[ei]
        if on_path[nxt]:
            continue
        new_cost = frame[1] + out_cost[ei]
        if new_cost + arr[nxt] > max_cost:
            continue
        path.append(ei)
        on_path[nxt] = 1
        frames.append([nxt, new_cost, -1])


def kernel_shortest_path(
    compiled: CompiledGraph,
    source: Node,
    target: Node,
    dist: Optional[KernelDistances] = None,
) -> Optional[Tuple[Edge, ...]]:
    """One cheapest path from ``source`` to ``target``, or ``None``.

    Reconstructed greedily from the backward distance map: at each node
    follow the first edge that lies on *some* cheapest path (its cost
    plus the remaining distance equals the node's distance). Runs in
    O(path length × out-degree) — this is the degradation ladder's
    always-affordable bottom rung.
    """
    node_id = compiled.node_id
    sid = node_id.get(source)
    tid = node_id.get(target)
    if sid is None or tid is None:
        return None
    if dist is None:
        dist = distances_for(compiled, target)
    arr = dist.arr
    if arr[sid] >= UNREACHABLE:
        return None
    out_start = compiled.out_start
    out_end = compiled.out_end
    out_target = compiled.out_target
    out_cost = compiled.out_cost
    out_edges_ref = compiled.out_edges_ref
    node = sid
    path: List[Edge] = []
    visited = bytearray(len(compiled.nodes))
    visited[sid] = 1
    while node != tid:
        here = arr[node]
        for i in range(out_start[node], out_end[node]):
            nxt = out_target[i]
            if visited[nxt]:
                continue
            if out_cost[i] + arr[nxt] == here:
                path.append(out_edges_ref[i])
                node = nxt
                visited[nxt] = 1
                break
        else:
            # Every optimal edge loops back (possible only through
            # zero-cost widening cycles); give up rather than spin.
            return None
    return tuple(path) if path else None
