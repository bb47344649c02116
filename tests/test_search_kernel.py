"""Differential tests for the compiled search kernel.

The kernel (CSR lowering + iterative loops) must be byte-identical to
the reference oracle in ``tests/search_oracle.py``: same jungloids,
same order, same degradation outcomes — including runs a deadline
truncates partway through. Every test here runs both on the same input
and compares outputs structurally.
"""

from repro.eval import TABLE1_PROBLEMS
from repro.core.query import Query
from repro.graph import JungloidGraph, SignatureGraph
from repro.jungloids import Jungloid, downcast
from repro.robustness import Deadline, ManualClock
from repro.search import (
    CompiledGraph,
    EnumerationReport,
    GraphSearch,
    KernelDistances,
    SearchConfig,
    compile_graph,
    distances_for,
    kernel_enumerate_paths,
    kernel_shortest_path,
)
from repro.typesystem import VOID, named

from .search_oracle import OracleSearch, distances_to, enumerate_paths, shortest_path


def _pair(graph, **overrides):
    """An (oracle, kernel) engine pair over the same graph."""
    config = SearchConfig(**overrides)
    return OracleSearch(graph, config=config), GraphSearch(graph, config=config)


def _texts(outcome):
    return [r.jungloid.render_expression("x") for r in outcome.results]


class TestCompiledGraph:
    def test_csr_shape_invariants(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        n = compiled.node_count
        assert n == graph.node_count()
        assert compiled.edge_count == graph.edge_count()
        for starts, ends in (
            (compiled.out_start, compiled.out_end),
            (compiled.in_start, compiled.in_end),
        ):
            assert len(starts) == len(ends) == n
            # A fresh compile is contiguous: each node's slots end where
            # the next node's begin, and no slot is stale.
            assert starts[0] == 0 and ends[-1] == compiled.edge_count
            assert all(starts[i] <= ends[i] for i in range(n))
            assert all(ends[i] == starts[i + 1] for i in range(n - 1))
        assert compiled.stale_slots == 0
        # node_id is the inverse of nodes.
        for i, node in enumerate(compiled.nodes):
            assert compiled.node_id[node] == i

    def test_out_adjacency_matches_graph(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for node in graph.nodes:
            u = compiled.node_id[node]
            lo, hi = compiled.out_start[u], compiled.out_end[u]
            csr_edges = [compiled.out_edges_ref[i] for i in range(lo, hi)]
            assert csr_edges == list(graph.out_edges(node))

    def test_records_revision(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        compiled = compile_graph(graph)
        assert compiled.revision == graph.revision


class TestKernelDistances:
    def test_matches_reference_for_every_node(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for target in graph.nodes:
            ref = distances_to(graph, target)
            ker = distances_for(compiled, target)
            for node in graph.nodes:
                assert ker.get(node, None) == ref.get(node, None), (
                    f"distance to {target} from {node} diverges"
                )

    def test_unknown_node_gets_default(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        dist = distances_for(compiled, named("demo.io.BufferedReader"))
        assert dist.get(named("no.Such"), "fallback") == "fallback"
        assert named("no.Such") not in dist


class TestEnumerationParity:
    def _both(self, graph, src, dst, bound, **kw):
        ref_report = EnumerationReport()
        ker_report = EnumerationReport()
        compiled = compile_graph(graph)
        ref = list(
            enumerate_paths(graph, src, dst, bound, report=ref_report, **kw)
        )
        ker = list(
            kernel_enumerate_paths(
                compiled, src, dst, bound, report=ker_report, **kw
            )
        )
        return ref, ker, ref_report, ker_report

    def test_same_paths_same_order(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        ref, ker, ref_rep, ker_rep = self._both(graph, src, dst, 5)
        assert ref == ker  # identical edge tuples, identical order
        assert ref
        assert ref_rep.produced == ker_rep.produced
        assert ref_rep.expansions == ker_rep.expansions

    def test_max_paths_cap_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        ref, ker, ref_rep, ker_rep = self._both(graph, src, dst, 6, max_paths=1)
        assert ref == ker
        assert len(ker) == 1
        assert ref_rep.path_cap_hit and ker_rep.path_cap_hit
        assert ref_rep.expansions == ker_rep.expansions

    def test_deadline_truncation_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        src = named("demo.io.InputStream")
        dst = named("demo.io.BufferedReader")
        # Each backend gets its own clock; both implementations read the
        # clock in the same sequence, so truncation lands identically.
        ref_rep, ker_rep = EnumerationReport(), EnumerationReport()
        compiled = compile_graph(graph)
        ref = list(
            enumerate_paths(
                graph, src, dst, 6,
                deadline=Deadline.after(25.0, ManualClock(tick=0.010)),
                report=ref_rep, check_every=1,
            )
        )
        ker = list(
            kernel_enumerate_paths(
                compiled, src, dst, 6,
                deadline=Deadline.after(25.0, ManualClock(tick=0.010)),
                report=ker_rep, check_every=1,
            )
        )
        assert ref == ker
        assert ref_rep.deadline_expired == ker_rep.deadline_expired
        assert ref_rep.expansions == ker_rep.expansions

    def test_deadline_poll_cadence_parity(self, small_registry):
        # Polling every 4th expansion: the truncation point (and so the
        # expansion count) moves if the kernel polls on a different one.
        # From void, 45 expansions reach BufferedReader; the deadline
        # expires on the fifth poll, partway through.
        graph = SignatureGraph.from_registry(small_registry)
        src = VOID
        dst = named("demo.io.BufferedReader")
        ref_rep, ker_rep = EnumerationReport(), EnumerationReport()
        ref = list(
            enumerate_paths(
                graph, src, dst, 6,
                deadline=Deadline.after(65.0, ManualClock(tick=0.010)),
                report=ref_rep, check_every=4,
            )
        )
        ker = list(
            kernel_enumerate_paths(
                compile_graph(graph), src, dst, 6,
                deadline=Deadline.after(65.0, ManualClock(tick=0.010)),
                report=ker_rep, check_every=4,
            )
        )
        assert ref_rep.deadline_expired and ker_rep.deadline_expired
        assert ref and ref == ker
        assert ref_rep.expansions == ker_rep.expansions
    def test_shortest_path_parity(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        for src_name, dst_name in [
            ("demo.io.InputStream", "demo.io.BufferedReader"),
            ("java.lang.String", "demo.io.BufferedReader"),
            ("demo.ui.Panel", "demo.ui.ISelection"),
        ]:
            src, dst = named(src_name), named(dst_name)
            assert kernel_shortest_path(compiled, src, dst) == shortest_path(
                graph, src, dst
            )

    def test_unreachable_shortest_path_is_none(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        compiled = compile_graph(graph)
        assert (
            kernel_shortest_path(
                compiled,
                named("demo.io.BufferedReader"),
                named("demo.io.InputStream"),
            )
            is None
        )


class TestEngineDispatch:
    def test_kernel_engine_serves_kernel_distances(self, small_registry):
        graph = SignatureGraph.from_registry(small_registry)
        ref, ker = _pair(graph)
        dst = named("demo.io.BufferedReader")
        assert isinstance(ker._distances(dst), KernelDistances)
        assert isinstance(ref._distances(dst), dict)

    def test_compile_patched_on_revision_bump(self, small_registry):
        graph = JungloidGraph.build(small_registry)
        search = GraphSearch(graph)
        first = search._compiled_graph()
        assert isinstance(first, CompiledGraph)
        assert search._compiled_graph() is first  # cached within a revision
        sel = small_registry.lookup("demo.ui.ISelection")
        item = small_registry.lookup("demo.ui.Item")
        graph.add_mined_path(Jungloid((downcast(sel, item),)))
        # The same snapshot, patched in place from the edge journal.
        second = search._compiled_graph()
        assert second is first
        assert second.revision == graph.revision
        for node in graph.nodes:
            u = second.node_id[node]
            slots = range(second.out_start[u], second.out_end[u])
            assert [second.out_edges_ref[i] for i in slots] == list(graph.out_edges(node))
        # ... and the kernel sees the new edge.
        assert search.shortest_cost(sel, item) is not None


class TestDifferentialTable1:
    """The acceptance gate: byte-identical ranked output on Table 1."""

    def test_every_query_identical(self, standard_prospector):
        graph = standard_prospector.search.graph
        registry = standard_prospector.registry
        ref, ker = _pair(graph)
        for problem in TABLE1_PROBLEMS:
            q = Query.of(registry, problem.t_in, problem.t_out)
            a = ref.solve_multi_outcome([q.t_in], q.t_out)
            b = ker.solve_multi_outcome([q.t_in], q.t_out)
            assert _texts(a) == _texts(b), f"problem {problem.id} diverged"
            assert [r.source_type for r in a.results] == [
                r.source_type for r in b.results
            ]
            assert a.degraded == b.degraded == False  # noqa: E712
            assert a.reasons == b.reasons

    def test_deadline_truncated_queries_identical(self, standard_prospector):
        graph = standard_prospector.search.graph
        registry = standard_prospector.registry
        ref, ker = _pair(graph, deadline_check_every=1)
        for problem in TABLE1_PROBLEMS[:6]:
            q = Query.of(registry, problem.t_in, problem.t_out)
            a = ref.solve_multi_outcome(
                [q.t_in],
                q.t_out,
                deadline=Deadline.after(0.25, ManualClock(tick=0.010)),
            )
            b = ker.solve_multi_outcome(
                [q.t_in],
                q.t_out,
                deadline=Deadline.after(0.25, ManualClock(tick=0.010)),
            )
            assert _texts(a) == _texts(b), f"problem {problem.id} diverged"
            assert a.degraded == b.degraded
            assert [(r.code, r.rung) for r in a.reasons] == [
                (r.code, r.rung) for r in b.reasons
            ]
            assert a.rungs == b.rungs
