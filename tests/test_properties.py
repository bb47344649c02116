"""Property-based tests (hypothesis) for core data structures and invariants."""

import contextlib
import functools
import string

from hypothesis import given, settings, strategies as st

from repro import Prospector
from repro.apispec import SyntheticApiConfig, generate_synthetic_api, load_api_text
from repro.data import standard_setup
from repro.graph import (
    JungloidGraph,
    SignatureGraph,
    registry_from_dict,
    registry_to_dict,
    type_from_string,
    type_to_string,
)
from repro.jungloids import (
    DEFAULT_COST_MODEL,
    Jungloid,
    downcast,
    instance_call,
    widening,
)
from repro.minijava.ast import Position
from repro.mining import ExampleJungloid, generalize_examples, widening_chain
from repro.pipeline import CorpusPipeline
from repro.search import (
    CompiledGraph,
    EnumerationReport,
    GraphSearch,
    SearchConfig,
    UNREACHABLE,
    compile_graph,
    distances_for,
    kernel_distances,
    kernel_enumerate_paths,
    package_crossings,
    rank,
    rank_key,
)
from repro.typesystem import (
    Method,
    QualifiedName,
    TypeRegistry,
    array_of,
    named,
    package_distance,
)

from .conftest import SMALL_API
from .resolution_oracle import VERSIONS, assert_matches_fresh, checked_narrowing
from .test_failed_sync import STAGES, Injected, raising_once_after
from .search_oracle import OracleSearch, distances_to, enumerate_paths

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

identifier = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
package_name = st.lists(identifier, min_size=0, max_size=4).map(".".join)
class_name = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=4)
dotted_name = st.builds(
    lambda pkg, simple: f"{pkg}.{simple}" if pkg else simple, package_name, class_name
)


@st.composite
def linear_hierarchies(draw):
    """A registry with a random linear class chain t.C0 <: t.C1 <: ..."""
    depth = draw(st.integers(min_value=2, max_value=7))
    registry = TypeRegistry()
    names = [f"t.C{i}" for i in range(depth)]
    registry.declare(names[-1])
    for i in reversed(range(depth - 1)):
        registry.declare(names[i], superclass=names[i + 1])
    return registry, names


@st.composite
def chain_jungloids(draw):
    """A well-typed jungloid over a random type chain, with widenings."""
    length = draw(st.integers(min_value=1, max_value=6))
    types = [named(f"j.T{i}") for i in range(length + 1)]
    steps = []
    for i in range(length):
        steps.append(instance_call(Method(types[i], f"m{i}", types[i + 1]))[0])
        if draw(st.booleans()):
            # Insert an identity-ish widening hop through a superclass.
            sup = named(f"j.S{i}")
            steps.append(widening(types[i + 1], sup))
            steps.append(
                instance_call(Method(sup, f"back{i}", types[i + 1]))[0]
            )
    return Jungloid.from_iterable(steps)


# ----------------------------------------------------------------------
# Names and packages
# ----------------------------------------------------------------------


class TestNameProperties:
    @given(package_name, class_name)
    def test_qualified_name_roundtrip(self, pkg, simple):
        dotted = f"{pkg}.{simple}" if pkg else simple
        qn = QualifiedName.parse(dotted)
        assert qn.dotted == dotted

    @given(package_name, package_name)
    def test_package_distance_symmetric(self, a, b):
        assert package_distance(a, b) == package_distance(b, a)

    @given(package_name, package_name)
    def test_package_distance_identity(self, a, b):
        assert (package_distance(a, b) == 0) == (a == b)

    @given(package_name, package_name, package_name)
    def test_package_distance_triangle(self, a, b, c):
        assert package_distance(a, c) <= package_distance(a, b) + package_distance(b, c)

    @given(dotted_name, dotted_name, st.integers(1, 3), st.integers(1, 3))
    def test_hash_consed_identity_is_value_equality(self, a, b, dims_a, dims_b):
        assert (named(a) is named(b)) == (a == b)
        assert (QualifiedName.parse(a) is QualifiedName.parse(b)) == (a == b)
        same_array = array_of(named(a), dims_a) is array_of(named(b), dims_b)
        assert same_array == (a == b and dims_a == dims_b)

    @given(dotted_name, dotted_name)
    def test_name_order_is_package_then_simple(self, a, b):
        x, y = QualifiedName.parse(a), QualifiedName.parse(b)
        assert (x < y) == ((x.package, x.simple) < (y.package, y.simple))
        assert (x <= y) == ((x.package, x.simple) <= (y.package, y.simple))


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------


class TestTypeStringProperties:
    @given(
        st.sampled_from(["int", "boolean", "void", "a.B", "x.y.Zed"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_type_string_roundtrip(self, base, dims):
        if base == "void" and dims:
            return
        text = base + "[]" * dims
        assert type_to_string(type_from_string(text)) == text


# ----------------------------------------------------------------------
# Hierarchy
# ----------------------------------------------------------------------


class TestHierarchyProperties:
    @given(linear_hierarchies(), st.data())
    def test_subtype_transitive_on_chain(self, rh, data):
        registry, names = rh
        i = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        sub, sup = named(names[min(i, j)]), named(names[max(i, j)])
        assert registry.is_subtype(sub, sup)

    @given(linear_hierarchies(), st.data())
    def test_widening_chain_composes(self, rh, data):
        registry, names = rh
        i = data.draw(st.integers(min_value=0, max_value=len(names) - 1))
        j = data.draw(st.integers(min_value=i, max_value=len(names) - 1))
        chain = widening_chain(registry, named(names[i]), named(names[j]))
        assert chain is not None
        assert len(chain) == j - i
        if chain:
            assert chain[0].input_type == named(names[i])
            assert chain[-1].output_type == named(names[j])
            for a, b in zip(chain, chain[1:]):
                assert a.output_type == b.input_type

    @given(linear_hierarchies())
    def test_depth_decreases_up_the_chain(self, rh):
        registry, names = rh
        depths = [registry.depth(named(n)) for n in names]
        assert depths == sorted(depths, reverse=True)


# ----------------------------------------------------------------------
# Jungloids
# ----------------------------------------------------------------------


class TestJungloidProperties:
    @given(chain_jungloids())
    def test_composition_types_line_up(self, j):
        for a, b in zip(j.steps, j.steps[1:]):
            assert a.output_type == b.input_type

    @given(chain_jungloids())
    def test_length_counts_non_widening(self, j):
        assert j.length == sum(1 for s in j.steps if not s.is_widening)
        assert j.length <= len(j)

    @given(chain_jungloids())
    def test_suffixes_are_suffixes(self, j):
        for s in j.suffixes():
            assert j.steps[-len(s):] == s.steps
            assert s.output_type == j.output_type

    @given(chain_jungloids(), chain_jungloids())
    def test_compose_cost_additive(self, a, b):
        if a.output_type != b.input_type:
            return
        combined = a.compose(b)
        assert DEFAULT_COST_MODEL.cost(combined) == DEFAULT_COST_MODEL.cost(
            a
        ) + DEFAULT_COST_MODEL.cost(b)

    @given(chain_jungloids())
    def test_crossings_nonnegative(self, j):
        assert package_crossings(j) >= 0

    @given(chain_jungloids())
    def test_render_deterministic(self, j):
        assert j.render_expression("x") == j.render_expression("x")


# ----------------------------------------------------------------------
# Generalization
# ----------------------------------------------------------------------


@st.composite
def example_sets(draw):
    """Random example jungloids over a small member/caste vocabulary."""
    obj = named("java.lang.Object")
    owners = [named(f"g.O{i}") for i in range(3)]
    methods = [
        instance_call(Method(owners[i], f"m{i}{k}", owners[(i + 1) % 3]))[0]
        for i in range(3)
        for k in range(2)
    ]
    to_obj = [instance_call(Method(owners[i], f"get{i}", obj))[0] for i in range(3)]
    casts = [downcast(obj, named(f"g.C{i}")) for i in range(2)]
    examples = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n = draw(st.integers(min_value=0, max_value=3))
        start = draw(st.integers(min_value=0, max_value=2))
        steps = []
        current = start
        for _ in range(n):
            m = draw(st.sampled_from([s for s in methods if s.input_type == owners[current]]))
            steps.append(m)
            current = (current + 1) % 3
        steps.append(to_obj[current])
        steps.append(draw(st.sampled_from(casts)))
        examples.append(
            ExampleJungloid(
                jungloid=Jungloid.from_iterable(steps),
                source="prop.mj",
                method_name="m",
                cast_position=Position(1, 1),
            )
        )
    return examples


class TestGeneralizationProperties:
    @settings(max_examples=60)
    @given(example_sets())
    def test_suffix_invariants(self, examples):
        for g in generalize_examples(examples):
            full = g.example.jungloid
            # (1) a true suffix;
            assert full.steps[-len(g.suffix):] == g.suffix.steps
            # (2) still ends with the same cast;
            assert g.suffix.steps[-1] == full.steps[-1]
            # (3) never a bare cast when a pre-step exists.
            if len(full) > 1:
                assert len(g.suffix) >= 2

    @settings(max_examples=60)
    @given(example_sets())
    def test_distinguishing_property(self, examples):
        """No retained pre-cast suffix is shared by a different cast."""
        gens = generalize_examples(examples)
        pre = [(g.suffix.steps[:-1], str(g.suffix.output_type)) for g in gens]
        full_pre = [
            (g.example.jungloid.steps[:-1], str(g.suffix.output_type)) for g in gens
        ]
        for steps, cast in pre:
            if not steps:
                continue
            for other_steps, other_cast in full_pre:
                if other_cast != cast and len(other_steps) >= len(steps):
                    if other_steps[-len(steps):] == steps:
                        # A conflicting example shares this suffix: the
                        # suffix must then be the example's full pre-cast
                        # chain (nothing shorter could distinguish).
                        matching = [
                            g
                            for g in gens
                            if g.suffix.steps[:-1] == steps
                            and str(g.suffix.output_type) == cast
                        ]
                        assert any(
                            g.suffix.steps == g.example.jungloid.steps for g in matching
                        )


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------


class TestSearchProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_search_invariants_on_synthetic_apis(self, seed):
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=3, classes_per_package=6, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        search = GraphSearch(graph)
        t_in = registry.lookup("synth.p0.C0")
        t_out = registry.lookup("synth.p2.C5")
        results = search.solve(t_in, t_out)
        m = search.shortest_cost(t_in, t_out)
        keys = [rank_key(registry, j) for j in results]
        assert keys == sorted(keys)  # ranked best-first
        for j in results:
            assert j.solves(t_in, t_out)  # Definition 4
            if m is not None:
                assert DEFAULT_COST_MODEL.cost(j) <= m + 1  # the window

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distances_lower_bound_enumeration(self, seed):
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=2, classes_per_package=5, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        t_in = registry.lookup("synth.p0.C0")
        t_out = registry.lookup("synth.p1.C4")
        dist = distances_to(graph, t_out)
        # The kernel's distance map is the oracle's, node for node.
        compiled = compile_graph(graph)
        kernel_dist = distances_for(compiled, t_out)
        for node in graph.nodes:
            assert kernel_dist.get(node) == dist.get(node)
        if t_in not in dist:
            return
        m = dist[t_in]
        paths = list(enumerate_paths(graph, t_in, t_out, max_cost=m, dist=dist, max_paths=50))
        for path in paths:
            cost = sum(0 if e.is_widening else 1 for e in path)
            assert cost >= 0
        # At least one path achieves a cost within the bound.
        assert paths
        # ... and the kernel enumerates exactly the oracle's paths.
        assert list(
            kernel_enumerate_paths(compiled, t_in, t_out, m, dist=kernel_dist, max_paths=50)
        ) == paths


@st.composite
def weighted_graphs(draw):
    """A random CSR graph with small edge costs; 0 is a widening edge."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)
            ),
            max_size=40,
        )
    )
    out_start, out_target, out_cost = [0] * (n + 1), [], []
    in_start, in_source, in_cost = [0] * (n + 1), [], []
    for u in range(n):
        for a, b, c in edges:
            if a == u:
                out_target.append(b)
                out_cost.append(c)
        out_start[u + 1] = len(out_target)
    for v in range(n):
        for a, b, c in edges:
            if b == v:
                in_source.append(a)
                in_cost.append(c)
        in_start[v + 1] = len(in_source)
    nodes = [f"n{i}" for i in range(n)]
    return CompiledGraph(
        revision=0,
        nodes=nodes,
        node_id={node: i for i, node in enumerate(nodes)},
        out_start=out_start[:n],
        out_end=out_start[1:],
        out_target=out_target,
        out_cost=out_cost,
        out_edges_ref=[None] * len(out_target),
        in_start=in_start[:n],
        in_end=in_start[1:],
        in_source=in_source,
        in_cost=in_cost,
    )


def _reference_distances(compiled, target_id):
    """Bellman-Ford over the in-adjacency: the plainest complete map."""
    n = len(compiled.nodes)
    dist = [UNREACHABLE] * n
    dist[target_id] = 0
    for _ in range(n):
        for v in range(n):
            if dist[v] >= UNREACHABLE:
                continue
            for e in range(compiled.in_start[v], compiled.in_end[v]):
                u = compiled.in_source[e]
                dist[u] = min(dist[u], dist[v] + compiled.in_cost[e])
    return dist


class TestBoundedDistanceProperties:
    """A horizon-bounded map is the complete map cut at its horizon."""

    @settings(max_examples=200, deadline=None)
    @given(
        weighted_graphs(),
        st.data(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=12),
    )
    def test_bounded_map_is_complete_map_cut_at_horizon(self, compiled, data, extra, cap):
        n = compiled.node_count
        target = data.draw(st.integers(0, n - 1), label="target")
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="sources")
        complete, none = kernel_distances(compiled, target)
        assert none is None
        assert complete == _reference_distances(compiled, target)

        bounded, horizon = kernel_distances(compiled, target, sources, extra, cap)
        m = max((complete[s] for s in sources), default=0)
        assert horizon == min(m + extra, cap)
        for u in range(n):
            if bounded[u] < UNREACHABLE:
                assert bounded[u] == complete[u]  # finite means exact
            if complete[u] <= horizon:
                assert bounded[u] == complete[u]  # nothing within is missing
            else:
                assert bounded[u] == UNREACHABLE

    @settings(max_examples=200, deadline=None)
    @given(
        weighted_graphs(),
        st.data(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=12),
    )
    def test_covering_map_enumerates_as_the_complete_map(self, compiled, data, extra, cap):
        """Whenever a bounded map covers a source, enumeration and the
        shortest path over it equal those over the complete map."""
        n = compiled.node_count
        target = data.draw(st.integers(0, n - 1), label="target")
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="sources")
        probe = data.draw(st.integers(0, n - 1), label="probe")
        name = compiled.nodes
        full = distances_for(compiled, name[target])
        bounded = distances_for(compiled, name[target], [name[s] for s in sources], extra, cap)
        if not bounded.covers([name[probe]], extra, cap):
            return
        m = full.arr[probe]
        bound = min(m + extra, cap) if m < UNREACHABLE else cap
        runs = []
        for dist in (full, bounded):
            report = EnumerationReport()
            paths = kernel_enumerate_paths(
                compiled, name[probe], name[target], bound, dist=dist, report=report
            )
            runs.append((sum(1 for _ in paths), report.expansions))
        assert runs[0] == runs[1]
        if m <= cap:
            assert bounded.arr[probe] == m

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.integers(min_value=0, max_value=17), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=6),
    )
    def test_engine_matches_oracle_with_bounded_maps(self, seed, picks, extra, cap):
        """Ranked multi-source answers over horizon-bounded, cached maps
        equal the oracle's over complete ones, query after query."""
        registry = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=3, classes_per_package=6, interfaces_per_package=1)
        )
        graph = SignatureGraph.from_registry(registry)
        config = SearchConfig(extra_cost=extra, absolute_max_cost=cap)
        search = GraphSearch(graph, config=config)
        oracle = OracleSearch(graph, config=config)
        types = sorted(graph.nodes, key=str)
        t_out = types[picks[0] % len(types)]
        for k in range(1, len(picks) + 1):
            sources = [types[p * 7 % len(types)] for p in picks[:k]]
            got = [(str(r.source_type), r.jungloid.render_expression("x"))
                   for r in search.solve_multi(sources, t_out)]
            want = [(str(r.source_type), r.jungloid.render_expression("x"))
                    for r in oracle.solve_multi(sources, t_out)]
            assert got == want


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _small_delta_pool():
    """The small API plus hand-made mined paths over its UI and IO types."""
    registry = load_api_text(SMALL_API)
    sel, ss, item, widget = (
        registry.lookup(f"demo.ui.{name}")
        for name in ("ISelection", "IStructuredSelection", "Item", "Widget")
    )
    reader, buffered, stream = (
        registry.lookup(f"demo.io.{name}") for name in ("Reader", "BufferedReader", "InputStream")
    )
    obj = named("java.lang.Object")
    first = instance_call(Method(ss, "getFirstElement", obj))[0]
    return registry, (
        Jungloid((downcast(sel, item),)),
        Jungloid((downcast(sel, ss), first, downcast(obj, item))),
        Jungloid((downcast(widget, item),)),
        Jungloid((downcast(reader, buffered),)),
        Jungloid((downcast(obj, ss), first)),
        Jungloid((downcast(obj, stream),)),
    )


@functools.lru_cache(maxsize=None)
def _delta_pool(name):
    if name == "small":
        return _small_delta_pool()
    registry, corpus = standard_setup()
    return registry, tuple(Prospector(registry, corpus).mined_jungloids)


#: One delta: ``(add, index)`` picks a pool path to graft, or a grafted
#: path to remove.
delta_ops = st.lists(st.tuples(st.booleans(), st.integers(0, 63)), min_size=1, max_size=4)


class TestPatchedSnapshotProperties:
    """After any sequence of mined-path deltas the engine's patched
    snapshot enumerates exactly what a fresh compile does, and every
    distance map it kept equals a fresh one."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["small", "bundled"]),
        st.lists(st.integers(0, 63), max_size=4),
        st.lists(delta_ops, min_size=1, max_size=5),
        st.data(),
    )
    def test_patched_snapshot_matches_fresh_compile(self, which, initial, deltas, data):
        registry, pool = _delta_pool(which)
        grafted = [pool[i % len(pool)] for i in initial]
        graph = JungloidGraph.build(registry, grafted)
        search = GraphSearch(graph)
        search._compiled_graph()
        self._fill_cache(search, graph, pool, data)
        for ops in deltas:
            added, removed, kept = [], [], list(grafted)
            for add, index in ops:
                if add or not kept:
                    added.append(pool[index % len(pool)])
                else:
                    removed.append(kept.pop(index % len(kept)))
            graph.apply_mined_delta(added, removed)
            grafted = kept + added
            self._sync_and_check(search, graph, data)
            self._fill_cache(search, graph, pool, data)
        # Churn the whole pool until stale slots outnumber live ones: the
        # engine must fall back to a full compile and stay exact.
        snapshot = search._compiled_graph()
        for _ in range(50):
            graph.apply_mined_delta(pool, [])
            graph.apply_mined_delta([], pool)
            assert graph.changes_since(snapshot.revision) is not None
            self._sync_and_check(search, graph, data)
            if search._compiled_graph() is not snapshot:
                break
            self._fill_cache(search, graph, pool, data)
        assert search._compiled_graph() is not snapshot

    @staticmethod
    def _fill_cache(search, graph, pool, data):
        """Cache a complete map and two bounded ones for drawn targets."""
        ends = sorted({j.output_type for j in pool}, key=str)
        nodes = list(graph.node_order())
        target = data.draw(st.sampled_from(ends + nodes[:40]), label="target")
        if graph.has_node(target):
            search._distances(target)
        fresh = compile_graph(graph, search._edge_cost)
        for _ in range(2):
            target = data.draw(st.sampled_from(ends + nodes[:40]), label="bounded target")
            complete = distances_for(fresh, target)
            # The nearest sources give small horizons, which edits cross.
            near = [n for n in nodes if n != target and complete.get(n) is not None]
            near = sorted(near, key=complete.get)[:4]
            if near:
                source = data.draw(st.sampled_from(near), label="source")
                search._distances(target, [source])

    @staticmethod
    def _sync_and_check(search, graph, data):
        old = search._compiled
        cost = search._edge_cost
        changes = graph.changes_since(old.revision)
        # A bounded map that every changed edge ends beyond (D[v] + c
        # past its horizon) cannot move, so it survives any patch.
        must_keep = []
        for dist in search._dist_cache._entries.values():
            if dist.horizon is None or changes is None:
                continue
            ends = [
                dist.arr[old.node_id[e.target]] + cost(e) if e.target in old.node_id else UNREACHABLE
                for _, e in changes
            ]
            if all(end > dist.horizon for end in ends):
                must_keep.append(dist)
        compiled = search._compiled_graph()
        fresh = compile_graph(graph, cost)
        kept = list(search._dist_cache._entries.values())
        if compiled is old:  # not compacted, which flushes everything
            assert all(any(d is k for k in kept) for d in must_keep)
        for dist in kept:
            assert dist.compiled is compiled
            want = distances_for(fresh, dist.target)
            for node in graph.nodes:
                expected = want.get(node)
                if expected is not None and dist.horizon is not None and expected > dist.horizon:
                    expected = None
                assert dist.get(node) == expected, (dist.target, node)
        # The same paths in the same order with the same expansions,
        # once under a small path cap.
        nodes = list(graph.node_order())
        for max_paths in (3, 10_000):
            target = data.draw(st.sampled_from(nodes), label="enumeration target")
            complete = distances_for(fresh, target)
            sources = [n for n in nodes if complete.get(n) is not None]
            source = data.draw(st.sampled_from(sources), label="enumeration source")
            m = complete[source]
            bound = data.draw(st.integers(m, m + 2), label="bound")
            runs = []
            for snapshot in (compiled, fresh):
                report = EnumerationReport()
                paths = list(
                    kernel_enumerate_paths(
                        snapshot,
                        source,
                        target,
                        bound,
                        dist=distances_for(snapshot, target),
                        max_paths=max_paths,
                        report=report,
                    )
                )
                runs.append((paths, report.expansions, report.path_cap_hit))
            assert runs[0] == runs[1]


class TestSerializationProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_registry_roundtrip_synthetic(self, seed):
        original = generate_synthetic_api(
            SyntheticApiConfig(seed=seed, packages=2, classes_per_package=4)
        )
        restored = registry_from_dict(registry_to_dict(original))
        assert restored.stats() == original.stats()
        for decl in original.all_declarations():
            other = restored.declaration_of(restored.lookup(decl.type.name.dotted))
            assert [m.descriptor() for m in decl.methods] == [
                m.descriptor() for m in other.methods
            ]


# ----------------------------------------------------------------------
# Incremental corpus resolution
# ----------------------------------------------------------------------

_EDIT_FILES = sorted(VERSIONS)
_POSITIONS = ("start", "middle", "end")

#: One corpus edit: put a version of a file in place (or insert it at a
#: position), remove a file, touch a file with a comment, or make the
#: next edit's sync raise after a stage of ``tests/test_failed_sync.STAGES``
#: (and retry it).
corpus_edits = st.one_of(
    st.tuples(
        st.just("set"),
        st.sampled_from(_EDIT_FILES),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(_POSITIONS),
    ),
    st.tuples(st.just("remove"), st.sampled_from(_EDIT_FILES)),
    st.tuples(st.just("touch"), st.sampled_from(_EDIT_FILES)),
    st.tuples(st.just("fail"), st.sampled_from(sorted(STAGES))),
)


@st.composite
def corpus_states(draw):
    """Some of the edit files, in random order and versions, untouched."""
    names = draw(st.permutations(_EDIT_FILES))
    count = draw(st.integers(min_value=2, max_value=len(names)))
    return [
        [name, draw(st.integers(min_value=0, max_value=len(VERSIONS[name]) - 1)), 0]
        for name in names[:count]
    ]


def _apply_edit(state, edit):
    """``state`` is a list of ``[name, version, touches]``; returns a new one."""
    state = [list(entry) for entry in state]
    names = [entry[0] for entry in state]
    kind, name = edit[0], edit[1]
    if kind == "remove":
        return [entry for entry in state if entry[0] != name]
    if kind == "touch":
        for entry in state:
            if entry[0] == name:
                entry[2] += 1
        return state
    version = edit[2] % len(VERSIONS[name])
    if name in names:
        state[names.index(name)][1] = version
        return state
    at = {"start": 0, "middle": len(state) // 2, "end": len(state)}[edit[3]]
    state.insert(at, [name, version, 0])
    return state


def _texts(state):
    return [
        (name, VERSIONS[name][version] + "// touched\n" * touches)
        for name, version, touches in state
    ]


class TestIncrementalResolutionProperties:
    """Random edit sequences: after every sync the pipeline's annotations,
    quarantine and ranked answers equal a fresh lenient load's. A sync
    that raised commits nothing, and its retry is checked too."""

    @settings(max_examples=40, deadline=None)
    @given(corpus_states(), st.lists(corpus_edits, min_size=1, max_size=5))
    def test_sync_matches_fresh_load(self, state, edits):
        registry = load_api_text(SMALL_API)
        pipeline = CorpusPipeline.build(registry, _texts(state))
        assert_matches_fresh(registry, pipeline, _texts(state))
        armed = None
        with checked_narrowing():
            for edit in edits:
                if edit[0] == "fail":
                    armed = edit[1]
                    continue
                state = _apply_edit(state, edit)
                annotated = set()
                if armed:
                    with raising_once_after(*STAGES[armed]) as fired:
                        with contextlib.suppress(Injected):
                            pipeline.sync(_texts(state))
                    if fired:
                        # The committed units the failed sync resolved
                        # again: the retry resolves them once more.
                        resolved = pipeline._resolve.cache.resolved
                        annotated = {u.source for u in pipeline.program.units if id(u) in resolved}
                    armed = None
                stats = pipeline.sync(_texts(state))
                loaded = {u.source for u in pipeline.program.units}
                assert annotated & loaded <= set(stats.files_reresolved)
                assert_matches_fresh(registry, pipeline, _texts(state))
