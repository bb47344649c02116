"""Per-layer tracing, installed from outside the program.

The benchmark measures each layer by wrapping the layer's public
functions where the program looks them up: the module attribute at the
import site that calls it, or the attribute on the class for methods.
Nothing inside ``src/`` changes, and with tracing off nothing is
wrapped.

Each wrapper records a span: its self time (its CPU time minus the
wrapped calls nested inside it) goes to its layer, under the operation
the workload is running (a query, a batch, an update, a snapshot save or
a restart). Hooks read work counts off arguments and results at the same
boundary. Spans outside any operation (set-up, answer checks) are not
recorded. A site that is missing when the tracer installs, or that never
fires during a traced run, is an error: a refactor must not silently
zero a layer.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import thread_time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.search import UNREACHABLE

QUERY, BATCH, UPDATE, SAVE, RESTART = "query", "batch", "update", "save", "restart"

#: The operation kinds each reporting family takes its numbers over.
FAMILIES: Dict[str, Tuple[str, ...]] = {
    "query": (QUERY, BATCH),
    "update": (UPDATE,),
    "save": (SAVE,),
    "restart": (RESTART,),
}

SPAN, GENERATOR, COUNT = "span", "generator", "count"

#: (layer, module, attribute path, wrapper kind). Every workload queries,
#: updates, saves and restarts, so every site must fire on every workload.
SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("search.distance", "repro.search.engine", "distances_for", SPAN),
    ("search.cache", "repro.search.cache", "LRUDistanceCache.get", COUNT),
    ("search.enumerate", "repro.search.engine", "kernel_enumerate_paths", GENERATOR),
    ("search.to_jungloid", "repro.graph.signature_graph", "SignatureGraph.path_to_jungloid", SPAN),
    ("search.render", "repro.jungloids.jungloid", "Jungloid.render_expression", SPAN),
    ("search.dedup", "repro.search.engine", "SearchResult.__init__", COUNT),
    ("search.rank", "repro.search.engine", "viability_rank_key", SPAN),
    ("search.compile", "repro.search.engine", "compile_graph", SPAN),
    ("core.package", "repro.core.prospector", "Prospector._package", SPAN),
    ("pipeline.sync", "repro.pipeline.pipeline", "CorpusPipeline.sync", COUNT),
    ("pipeline.fingerprint", "repro.pipeline.pipeline", "fingerprint_texts", SPAN),
    ("pipeline.fingerprint", "repro.pipeline.pipeline", "diff_fingerprints", SPAN),
    ("minijava.parse", "repro.pipeline.pipeline", "parse_minijava", SPAN),
    ("corpus.resolve", "repro.pipeline.pipeline", "resolve_and_check_lenient", SPAN),
    ("corpus.resolve.pass", "repro.corpus.loader", "resolve_program", COUNT),
    ("minijava.callgraph", "repro.pipeline.pipeline", "build_call_graph", SPAN),
    ("mining.extract", "repro.mining.extractor", "JungloidExtractor.extract_unit", SPAN),
    ("analysis.castsafety", "repro.analysis.castsafety", "CastAnalyzer.analyze_unit", SPAN),
    ("analysis.castsafety", "repro.pipeline.pipeline", "build_verdict_index", SPAN),
    ("mining.generalize", "repro.mining.generalize", "IncrementalGeneralizer.insert", SPAN),
    ("mining.generalize", "repro.mining.generalize", "IncrementalGeneralizer.remove", SPAN),
    ("mining.generalize", "repro.mining.generalize", "IncrementalGeneralizer.generalize", SPAN),
    ("graph.graft", "repro.graph.jungloid_graph", "JungloidGraph.apply_mined_delta", SPAN),
    ("graph.build", "repro.graph.jungloid_graph", "JungloidGraph.build", SPAN),
    ("store.save", "repro.store.snapshot", "SnapshotStore.save", SPAN),
    ("store.save", "repro.core.prospector", "save_stage_sidecar", SPAN),
    ("store.load", "repro.core.prospector", "load_with_recovery", SPAN),
    ("store.load", "repro.core.prospector", "try_load_stage_sidecar", SPAN),
    ("pipeline.from_artifacts", "repro.pipeline.pipeline", "CorpusPipeline.from_artifacts", SPAN),
)


class TraceError(RuntimeError):
    """A wrapped site is missing."""


class LayerTracer:
    """Installs the wrappers and accumulates spans and counters."""

    def __init__(self) -> None:
        #: The operation kind running now, or None between operations.
        self.current: Optional[str] = None
        self.ops: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: (operation kind, counter) -> value; each layer's calls are
        #: counted as ``calls:<layer>``.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.frozen: Optional[Dict[Tuple[str, str], float]] = None
        self.fired: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._fresh_maps: Dict[int, Tuple[object, int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def operation(self, kind: str, weight: int = 1) -> Iterator[None]:
        """Attribute spans to one operation of ``kind`` (a batch weighs its size)."""
        self.current = kind
        try:
            yield
        finally:
            self.current = None
            self.ops[kind] += weight
            self._fresh_maps.clear()

    def freeze_counts(self) -> None:
        """Fix the counters at the end of the seeded prefix."""
        if self.frozen is None:
            self.frozen = dict(self.counts)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.current, name)] += value

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path, kind in SITES:
            owner = importlib.import_module(module_name)
            *scope, attr = path.split(".")
            for name in scope:
                owner = getattr(owner, name, None)
            raw = None
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
            elif owner is not None:
                raw = getattr(owner, attr, None)
            if raw is None:
                raise TraceError(f"cannot wrap {module_name}.{path}: not found")
            site = f"{module_name}.{path}"
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            hook = _HOOKS.get(path)
            if kind == GENERATOR:
                wrapped = self._generator(layer, site, fn)
            elif kind == COUNT:
                wrapped = self._counter(layer, site, fn, hook)
            else:
                wrapped = self._span(layer, site, fn, hook)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def silent_sites(self) -> List[str]:
        """Wrapped sites that never fired inside an operation."""
        sites = [f"{module}.{path}" for _, module, path, _ in SITES]
        return [site for site in sites if not self.fired.get(site)]

    # -- wrappers --------------------------------------------------------

    def _enter(self, layer: str, site: str) -> None:
        self.counts[(self.current, f"calls:{layer}")] += 1
        self.fired[site] += 1

    def _time(self, op: str, layer: str, elapsed: float, child: float) -> None:
        self.self_s[(op, layer)] += elapsed - child
        self.total_s[(op, layer)] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def _span(self, layer: str, site: str, fn: Callable, hook) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.current
            if op is None:
                return fn(*args, **kwargs)
            tracer._enter(layer, site)
            tracer._stack.append(0.0)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                tracer._time(op, layer, elapsed, tracer._stack.pop())
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    def _counter(self, layer: str, site: str, fn: Callable, hook) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.current is not None:
                tracer._enter(layer, site)
                if hook is not None:
                    hook(tracer, result, args)
            return result

        return counted

    def _generator(self, layer: str, site: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current is None:
                return fn(*args, **kwargs)
            tracer._enter(layer, site)
            tracer._credit_useful(args[3], kwargs.get("dist"))
            return tracer._drive(layer, fn(*args, **kwargs), kwargs.get("report"))

        return traced

    def _drive(self, layer: str, gen, report):
        """Re-yield ``gen``'s paths, timing only the generator's own steps."""
        op = self.current
        paths = 0
        try:
            while True:
                self._stack.append(0.0)
                start = thread_time()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = thread_time() - start
                    self._time(op, layer, elapsed, self._stack.pop())
                paths += 1
                yield item
        finally:
            self.counts[(op, "search.enumerate.paths")] += paths
            if report is not None:
                self.counts[(op, "search.enumerate.expansions")] += report.expansions

    def _credit_useful(self, bound: int, dist) -> None:
        """On a distance map's first enumeration, count its settled nodes
        that lie within that query's enumeration bound."""
        entry = self._fresh_maps.pop(id(dist), None)
        if entry is None:
            return
        self.add("search.distance.credited_nodes", entry[1])
        self.add("search.distance.useful_nodes", sum(1 for d in dist.arr if d <= bound))

    # -- report ----------------------------------------------------------

    def layer_ms(self, layer: str, family: str, inclusive: bool = False) -> float:
        """Milliseconds of ``layer`` per operation of ``family``."""
        kinds = FAMILIES[family]
        table = self.total_s if inclusive else self.self_s
        seconds = sum(table.get((kind, layer), 0.0) for kind in kinds)
        ops = sum(self.ops.get(kind, 0) for kind in kinds)
        return seconds * 1000.0 / ops if ops else 0.0

    def count(self, name: str, family: str) -> float:
        """A counter over ``family``'s operations in the seeded prefix."""
        source = self.frozen if self.frozen is not None else self.counts
        return sum(source.get((kind, name), 0.0) for kind in FAMILIES[family])

    def calls(self, layer: str, family: str) -> float:
        return self.count(f"calls:{layer}", family)


def _on_distances(tracer: LayerTracer, result, args) -> None:
    if result is None:
        return
    settled = sum(1 for d in result.arr if d < UNREACHABLE)
    tracer.add("search.distance.settled_nodes", settled)
    tracer._fresh_maps[id(result)] = (result, settled)


def _on_cache_get(tracer: LayerTracer, result, args) -> None:
    tracer.add("search.cache.misses" if result is None else "search.cache.hits")


def _on_analyze(tracer: LayerTracer, result, args) -> None:
    tracer.add("analysis.castsafety.casts", len(result))


def _on_graft(tracer: LayerTracer, result, args) -> None:
    tracer.add("graph.graft.suffixes_added", len(result.added))
    tracer.add("graph.graft.suffixes_removed", len(result.removed))
    tracer.add("graph.graft.affected_targets", len(result.affected_targets))
    tracer.add("graph.graft.nodes", args[0].node_count())


def _on_sync(tracer: LayerTracer, result, args) -> None:
    tracer.add("pipeline.files_total", result.files_total)
    tracer.add("pipeline.files_reused", result.files_reused)


#: Counters read at a site, keyed by its attribute path.
_HOOKS: Dict[str, Callable] = {
    "distances_for": _on_distances,
    "LRUDistanceCache.get": _on_cache_get,
    "CastAnalyzer.analyze_unit": _on_analyze,
    "JungloidGraph.apply_mined_delta": _on_graft,
    "CorpusPipeline.sync": _on_sync,
}
