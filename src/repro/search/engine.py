"""The query engine: bounded k-shortest-path search plus ranking.

Reproduces Section 5's configuration: for a query ``(t_in, t_out)`` with
shortest solution length ``m``, construct all acyclic paths of length
≤ ``m + extra_cost`` (paper: ``m+1``), convert them to jungloids, and
rank. Multi-source queries (one per visible variable, plus ``void``)
share one backward distance map, so they cost about the same as a single
query.

Interactivity (~1s answers, Section 5) is enforced by an optional
wall-clock budget: each query runs the degradation ladder — full
``m+extra`` window, then ``extra_cost=0`` window, then a single shortest
path per source — and wraps whatever it gathered in a
:class:`~repro.robustness.QueryOutcome` instead of raising or hanging.
With no budget configured the engine behaves exactly as the paper's
tool.

Serving performance comes from three layers on top of that:

* **the compiled kernel** (:mod:`repro.search.kernel`): the live graph is
  lowered into a CSR snapshot with precomputed integer edge costs, and
  both the backward bucket-queue pass and the bounded enumeration run as
  iterative integer loops. It is the only search path, and an edit
  patches it in place. A query's distance map stops at its sources'
  horizon ``min(max m + extra_cost, absolute_max_cost)``, the farthest
  the ladder looks.
* **a bounded LRU distance cache** (:mod:`repro.search.cache`): one
  distance map per recently queried target, evicted after an edit only
  if a changed edge can move it (the relevance test of dynamic shortest
  paths, Ramalingam & Reps 1996). A cached map serves a later query only if its
  horizon covers that query's sources; otherwise the wider map replaces
  it.
* **batch serving** (:meth:`GraphSearch.solve_batch`): a request batch is
  grouped by target so each distinct target pays for one distance map
  (over the union of the group's sources) no matter how many queries
  want it — the paper's multi-source trick generalized across a batch.
  It is the only serving path: a single query is a batch of one.

Each enumerated path is rendered once: the text that deduplicates it is
the text its :class:`~repro.search.ranking.RankKey` ends with, and the
key's other parts are summed from per-step parts memoized by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..graph import Node, SignatureGraph
from ..jungloids import CostModel, DEFAULT_COST_MODEL, Jungloid
from ..robustness import (
    Clock,
    Deadline,
    DegradationReason,
    QueryOutcome,
    REASON_DEADLINE,
    REASON_FAULT,
    RUNG_FULL_WINDOW,
    RUNG_SHORTEST_PATH,
    RUNG_ZERO_EXTRA,
    SYSTEM_CLOCK,
)
from ..typesystem import JavaType, VOID
from .cache import DEFAULT_MAX_CACHED_TARGETS, LRUDistanceCache
from .kernel import (
    CompiledGraph,
    EnumerationReport,
    KernelDistances,
    UNREACHABLE,
    compile_graph,
    distances_for,
    kernel_enumerate_paths,
    kernel_shortest_path,
)
from .ranking import StepRankParts, ViabilityRankKey, viability_rank_key

#: Cap on raw paths enumerated per source node.
MAX_PATHS_PER_SOURCE = 4000
#: Budget fractions reserved for the first two ladder rungs; the
#: remainder funds the (always-affordable) shortest-path rung.
LADDER_FRACTIONS = (0.7, 0.95)


@dataclass(frozen=True)
class SearchConfig:
    """Tunable search parameters (defaults = the paper's implementation)."""

    #: Window above the cheapest cost: the paper searches ``m + 1``.
    extra_cost: int = 1
    #: Hard cap on the cost of any path, guarding degenerate graphs.
    absolute_max_cost: int = 10
    #: Cap on ranked results returned to the caller.
    max_results: int = 100
    #: Wall-clock budget per query in milliseconds; ``None`` = unlimited.
    time_budget_ms: Optional[float] = None
    #: How many DFS expansions between deadline polls.
    deadline_check_every: int = 128
    #: Bound on the per-target distance maps retained between queries.
    max_cached_targets: int = DEFAULT_MAX_CACHED_TARGETS


@dataclass(frozen=True)
class SearchResult:
    """One ranked solution: the jungloid plus which source produced it."""

    jungloid: Jungloid
    source_type: JavaType

    @property
    def is_void_source(self) -> bool:
        return self.source_type == VOID


@dataclass(frozen=True)
class BatchQuery:
    """One query of a request batch: source types plus the target."""

    sources: Tuple[JavaType, ...]
    target: JavaType

    @classmethod
    def of(cls, query: "BatchQueryLike") -> "BatchQuery":
        """Coerce ``(t_in, t_out)`` / ``(sources, t_out)`` tuples."""
        if isinstance(query, BatchQuery):
            return query
        sources, target = query
        if isinstance(sources, (list, tuple)):
            return cls(sources=tuple(sources), target=target)
        return cls(sources=(sources,), target=target)


#: Anything :meth:`GraphSearch.solve_batch` accepts as one query.
BatchQueryLike = Union[
    BatchQuery,
    Tuple[JavaType, JavaType],
    Tuple[Sequence[JavaType], JavaType],
]


class GraphSearch:
    """Answers jungloid queries against a signature or jungloid graph."""

    def __init__(
        self,
        graph: SignatureGraph,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: SearchConfig = SearchConfig(),
        clock: Clock = SYSTEM_CLOCK,
        verdicts=None,
    ):
        self.graph = graph
        self.cost_model = cost_model
        self.config = config
        self.clock = clock
        #: Optional CastVerdictIndex; ranking demotes the jungloids it
        #: finds INVIABLE below all others.
        self.verdicts = verdicts
        self._dist_cache: LRUDistanceCache = LRUDistanceCache(
            max_targets=config.max_cached_targets
        )
        self._compiled: Optional[CompiledGraph] = None
        #: Counting hook: fresh distance-map runs (cache misses).
        #: Batch tests assert on this to prove distance maps are shared.
        self.distance_computes = 0
        self._count_costs: Dict[Tuple[bool, int, int], int] = {}
        # Per-step cost, crossings and generality, filled lazily.
        self._step_parts = StepRankParts(graph.registry, cost_model)

    def _edge_cost(self, edge) -> int:
        """Edge weight = the ranking heuristic's size estimate (§3.2),
        charged once per distinct ``cost_counts``: a member edge's
        jungloid is not built."""
        counts = edge.cost_counts
        try:
            return self._count_costs[counts]
        except KeyError:
            return self._count_costs.setdefault(counts, self.cost_model.total(*counts))

    # ------------------------------------------------------------------
    # Queries: every one is served by solve_batch
    # ------------------------------------------------------------------

    def solve(self, t_in: JavaType, t_out: JavaType) -> List[Jungloid]:
        """All ranked solution jungloids for the query ``(t_in, t_out)``."""
        results = self.solve_multi([t_in], t_out)
        return [r.jungloid for r in results]

    def solve_multi(
        self, sources: Sequence[JavaType], t_out: JavaType
    ) -> List[SearchResult]:
        """Ranked solutions for every source at once, best first.

        Each source gets its own ``m + extra`` window (a long-way source
        must not be cut off because another source is adjacent to the
        target), but all share the single backward distance map.
        """
        return list(self.solve_multi_outcome(sources, t_out).results)

    def solve_multi_outcome(
        self,
        sources: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline] = None,
    ) -> QueryOutcome:
        """Like :meth:`solve_multi`, but deadline-aware and fault-isolated:
        a batch of one (see :meth:`solve_batch`)."""
        return self.solve_batch([BatchQuery(tuple(sources), t_out)], deadline=deadline)[0]

    def solve_batch(
        self,
        queries: Sequence[BatchQueryLike],
        deadline: Optional[Deadline] = None,
        time_budget_ms: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Answer a whole request batch, amortizing shared work.

        Queries are grouped by target so each distinct target runs one
        backward distance pass for the entire batch (Section 5's
        multi-source amortization, generalized across requests), bounded
        by the union of the group's sources. Outcomes come back in input
        order.

        Each query runs the degradation ladder per source: the full
        ``m + extra`` window first; if the deadline cuts it short (or
        edge iteration faults), the cheaper ``extra_cost=0`` window; and
        finally one greedy shortest path, which always completes. Its
        outcome carries ``degraded`` plus a structured reason per cut. A
        fault while answering one query degrades that query's outcome
        only; the rest of the batch is unaffected.

        ``deadline``, when given, bounds the whole batch; otherwise
        ``time_budget_ms`` (argument, falling back to the configured
        value) is minted per query. The first query of a target group
        mints its deadline before the group's distance map, so a lone
        query's budget covers its map; the others mint theirs as they
        start.
        """
        if time_budget_ms is None:
            time_budget_ms = self.config.time_budget_ms

        def mint() -> Optional[Deadline]:
            if deadline is None and time_budget_ms is not None:
                return Deadline.after(time_budget_ms, self.clock)
            return deadline

        batch = [BatchQuery.of(q) for q in queries]
        outcomes: List[QueryOutcome] = [QueryOutcome()] * len(batch)
        groups: Dict[Node, List[int]] = {}
        for i, query in enumerate(batch):
            groups.setdefault(query.target, []).append(i)
        for target, indices in groups.items():
            if not self.graph.has_node(target):
                continue  # empty and not degraded
            first = mint()
            sources = [s for i in indices for s in batch[i].sources]
            try:
                dist = self._distances(target, sources)
            except Exception as exc:  # the whole target group is cut off
                for i in indices:
                    outcomes[i] = self._faulted_outcome(target, exc)
                continue
            for n, i in enumerate(indices):
                per_query = first if n == 0 else mint()
                try:
                    outcomes[i] = self._solve_with_dist(
                        batch[i].sources, target, per_query, dist
                    )
                except Exception as exc:  # isolate: one query, not the batch
                    outcomes[i] = self._faulted_outcome(target, exc)
        return outcomes

    @staticmethod
    def _faulted_outcome(target: Node, exc: Exception) -> QueryOutcome:
        return QueryOutcome(
            results=(),
            degraded=True,
            reasons=(
                DegradationReason(REASON_FAULT, RUNG_FULL_WINDOW, f"{target}: {exc}"),
            ),
        )

    # ------------------------------------------------------------------
    # The degradation ladder for one query
    # ------------------------------------------------------------------

    def _solve_with_dist(
        self,
        sources: Sequence[JavaType],
        t_out: JavaType,
        deadline: Optional[Deadline],
        dist: KernelDistances,
    ) -> QueryOutcome:
        collected: List[Tuple[ViabilityRankKey, SearchResult]] = []
        seen_texts = set()
        reasons: List[DegradationReason] = []
        rungs_used: List[str] = [RUNG_FULL_WINDOW]
        sub_full = deadline.fraction(LADDER_FRACTIONS[0]) if deadline else None
        sub_zero = deadline.fraction(LADDER_FRACTIONS[1]) if deadline else None

        def collect(source: JavaType, paths: Iterable) -> None:
            for path in paths:
                jungloid = SignatureGraph.path_to_jungloid(path)
                text = jungloid.render_expression("x")
                dedup = (source, text)
                if dedup in seen_texts:
                    continue
                seen_texts.add(dedup)
                # The paper's key behind the verdict index's demotion
                # bucket (0 with no index); ``text`` is its tie-break.
                key = viability_rank_key(
                    self.graph.registry,
                    jungloid,
                    self.verdicts,
                    self.cost_model,
                    text=text,
                    parts=self._step_parts,
                )
                collected.append((key, SearchResult(jungloid, source)))

        def use_rung(rung: str) -> None:
            if rung not in rungs_used:
                rungs_used.append(rung)

        for source in _unique(sources):
            if not self.graph.has_node(source):
                continue
            m = dist.get(source, UNREACHABLE)
            if m >= UNREACHABLE and deadline is not None and dist.horizon is not None:
                # Beyond a bounded map the source may still be reachable,
                # past the cap: a budgeted ladder would then fall to rung
                # 3, which ignores the cap, so it needs the complete map.
                try:
                    dist = self._distances(t_out)
                except Exception as exc:
                    reasons.append(
                        DegradationReason(
                            REASON_FAULT, RUNG_FULL_WINDOW, f"{source}: {exc}"
                        )
                    )
                    continue
                m = dist.get(source, UNREACHABLE)
            if m >= UNREACHABLE:
                continue
            bound = min(m + self.config.extra_cost, self.config.absolute_max_cost)
            report = EnumerationReport()
            fault: Optional[Exception] = None
            try:
                collect(
                    source,
                    self._enumerate(source, t_out, bound, dist, sub_full, report),
                )
            except Exception as exc:  # fault isolation: one source, not the query
                fault = exc
            if fault is not None:
                reasons.append(
                    DegradationReason(
                        REASON_FAULT, RUNG_FULL_WINDOW, f"{source}: {fault}"
                    )
                )
            elif not report.deadline_expired:
                continue  # source fully enumerated at the top rung
            else:
                reasons.append(
                    DegradationReason(
                        REASON_DEADLINE,
                        RUNG_FULL_WINDOW,
                        f"{source}: m+{self.config.extra_cost} window truncated",
                    )
                )

            # Rung 2: the zero-extra window (skip when it equals rung 1).
            settled = False
            if self.config.extra_cost > 0 or fault is not None:
                use_rung(RUNG_ZERO_EXTRA)
                zero_report = EnumerationReport()
                try:
                    collect(
                        source,
                        self._enumerate(
                            source,
                            t_out,
                            min(m, self.config.absolute_max_cost),
                            dist,
                            sub_zero,
                            zero_report,
                        ),
                    )
                    if zero_report.deadline_expired:
                        reasons.append(
                            DegradationReason(
                                REASON_DEADLINE,
                                RUNG_ZERO_EXTRA,
                                f"{source}: zero-extra window truncated",
                            )
                        )
                    else:
                        settled = True
                except Exception as exc:
                    reasons.append(
                        DegradationReason(
                            REASON_FAULT, RUNG_ZERO_EXTRA, f"{source}: {exc}"
                        )
                    )

            # Rung 3: one greedy shortest path — always affordable.
            if not settled:
                use_rung(RUNG_SHORTEST_PATH)
                try:
                    fallback = self._shortest_path(source, t_out, dist)
                    if fallback is not None:
                        collect(source, [fallback])
                except Exception as exc:
                    reasons.append(
                        DegradationReason(
                            REASON_FAULT, RUNG_SHORTEST_PATH, f"{source}: {exc}"
                        )
                    )

        collected.sort(key=itemgetter(0))
        return QueryOutcome(
            results=tuple(r for _, r in collected[: self.config.max_results]),
            degraded=bool(reasons),
            reasons=tuple(reasons),
            rungs=tuple(rungs_used),
            elapsed_ms=deadline.elapsed_ms() if deadline is not None else None,
        )

    # ------------------------------------------------------------------
    # Kernel calls
    # ------------------------------------------------------------------

    def _enumerate(
        self,
        source: JavaType,
        t_out: JavaType,
        bound: int,
        dist: KernelDistances,
        deadline: Optional[Deadline],
        report: EnumerationReport,
    ):
        """Bounded enumeration over the snapshot ``dist`` was computed on."""
        return kernel_enumerate_paths(
            dist.compiled,
            source,
            t_out,
            bound,
            dist=dist,
            max_paths=MAX_PATHS_PER_SOURCE,
            deadline=deadline,
            report=report,
            check_every=self.config.deadline_check_every,
        )

    def _shortest_path(self, source: JavaType, t_out: JavaType, dist: KernelDistances):
        return kernel_shortest_path(dist.compiled, source, t_out, dist=dist)

    def _compiled_graph(self) -> CompiledGraph:
        """The CSR snapshot at the graph's current revision.

        After edits the snapshot is patched from the graph's edge journal
        and keeps the maps the edits cannot move. It is compiled afresh,
        flushing the cache, on first use, when the journal no longer
        reaches back, or once stale slots outnumber live ones.
        """
        compiled = self._compiled
        if compiled is not None and compiled.revision == self.graph.revision:
            return compiled
        self._step_parts.clear()  # drop steps the graph may have lost
        changes = None if compiled is None else self.graph.changes_since(compiled.revision)
        if changes is not None:
            compiled.patch(self.graph, changes, self._edge_cost)
            if compiled.stale_slots <= compiled.edge_count:
                self._evict_moved_maps(compiled, changes)
                return compiled
        self._dist_cache.clear()
        self._compiled = compile_graph(self.graph, edge_cost=self._edge_cost)
        return self._compiled

    def _evict_moved_maps(self, compiled: CompiledGraph, changes) -> None:
        """Evict each cached map that one of ``changes`` can move.

        For a map ``D`` with horizon ``limit``, an added edge ``u → v`` of
        cost ``c`` matters only if ``D[v] + c < D[u]`` and ``D[v] + c <=
        limit``; a removed one only if it was tight (``D[u] == D[v] + c``,
        ``D[v]`` finite) and ``u`` kept no other tight edge of positive
        cost. Changes at removed nodes are skipped: a path into one
        entered by a removed edge from a live node. DESIGN.md §7 argues
        that no combination of irrelevant changes moves a map; a kept map
        forgets removed nodes and reads new ones as unreachable.
        """
        graph, node_id = self.graph, compiled.node_id
        resolved = [
            (added, node_id[e.source], node_id[e.target], self._edge_cost(e))
            for added, e in changes
            if graph.has_node(e.source)
        ]
        touched = {node for _, e in changes for node in (e.source, e.target)}
        dead = {node_id[node] for node in touched if not graph.has_node(node)}
        n = compiled.node_count
        out_end, out_target, out_cost = compiled.out_end, compiled.out_target, compiled.out_cost

        def unmoved(dist: KernelDistances) -> bool:
            arr = dist.arr
            if node_id[dist.target] in dead:
                return False
            arr.extend([UNREACHABLE] * (n - len(arr)))
            limit = UNREACHABLE if dist.horizon is None else dist.horizon
            for added, u, v, c in resolved:
                if arr[v] >= UNREACHABLE:
                    continue
                via = arr[v] + c
                if added:
                    if via < arr[u] and via <= limit:
                        return False
                elif via == arr[u] and not any(
                    out_cost[i] and arr[out_target[i]] + out_cost[i] == via
                    for i in range(compiled.out_start[u], out_end[u])
                ):
                    return False
            for u in dead:
                arr[u] = UNREACHABLE
            return True

        self._dist_cache.retain(unmoved)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def shortest_cost(self, t_in: JavaType, t_out: JavaType) -> Optional[int]:
        """Cheapest solution cost for a query, or None if unreachable.

        Reads a complete map: the cost may lie past ``absolute_max_cost``.
        """
        if not self.graph.has_node(t_out):
            return None
        m = self._distances(t_out).get(t_in, UNREACHABLE)
        return None if m >= UNREACHABLE else m

    def _distances(
        self, target: Node, sources: Optional[Sequence[Node]] = None
    ) -> KernelDistances:
        """The per-target distance map, LRU-cached and kept exact across
        graph edits (see :meth:`_compiled_graph`).

        With ``sources`` the map need only reach their horizon (see
        :func:`~repro.search.kernel.kernel_distances`); ``None`` asks for
        the complete map. A cached map is reused only if it covers every
        source; otherwise the wider map is computed and replaces it.
        ``target`` must be a node of the graph (callers check first).
        """
        compiled = self._compiled_graph()
        extra = self.config.extra_cost
        cap = self.config.absolute_max_cost
        cached = self._dist_cache.get(target)
        if cached is not None and (
            cached.horizon is None
            or (sources is not None and cached.covers(sources, extra, cap))
        ):
            return cached
        fresh = distances_for(compiled, target, sources, extra, cap)
        self.distance_computes += 1
        self._dist_cache.put(target, fresh)
        return fresh

    def set_verdicts(self, verdicts) -> None:
        """Swap the verdict index ranking demotes by; ``None`` ranks in
        the paper's order."""
        self.verdicts = verdicts


def _unique(items: Iterable[JavaType]) -> List[JavaType]:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
