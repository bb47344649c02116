"""The staged, incremental corpus → jungloid-graph pipeline.

:class:`CorpusPipeline` is the one way a corpus becomes a graph (paper
§4: slice each cast, generalize to suffixes, splice them into the
signature graph). Each stage is one small object that owns its cached,
fingerprinted artifacts and its reverse index, takes the upstream
stage's change set and hands its own on, in this order: parse, resolve,
call graph, mine, analyze, generalize, graft. :meth:`CorpusPipeline.sync`
runs them, times each into :class:`StageTimings`, and commits each only
after every stage has run.

The pipeline's contract, enforced by the differential test suite: after
any sequence of :meth:`update` calls, ranked query answers are identical
to a from-scratch build over the same final texts. A no-op update (same
bytes) leaves the graph revision untouched, so downstream caches and the
compiled search kernel don't move at all.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..analysis.castsafety import CastAnalyzer, CastObservation, build_verdict_index
from ..analysis.verdicts import CastVerdictIndex
from ..collector import _collector_paused
from ..corpus import CorpusProgram, resolve_and_check_lenient
from ..graph import JungloidGraph
from ..jungloids import Jungloid
from ..minijava import Dependents, MiniJavaError, ResolutionCache, parse_minijava
from ..minijava.ast import CastExpr, CompilationUnit, Expr, method_expressions
from ..minijava.callgraph import CallGraph, CallSite, UnitCalls, build_call_graph
from ..mining import (
    ExtractionConfig,
    GeneralizedExample,
    IncrementalGeneralizer,
    JungloidExtractor,
    MiningResult,
    unique_suffixes,
)
from ..robustness import CorpusDiagnostics, PHASE_PARSE
from ..typesystem import ArrayType, Method, NamedType, TypeRegistry
from .artifacts import DepFingerprint, FileMineRecord, check_stage_dict, stages_to_dict
from .fingerprint import diff_fingerprints, fingerprint_texts


def _timed(timings: "StageTimings", stage: str, run: Callable, *args):
    """``run(*args)``, its CPU time stored as ``timings.<stage>_ms``."""
    # The calling thread's CPU time, as the benchmark measures: other
    # processes on a loaded host do not inflate a stage.
    t0 = time.thread_time()
    out = run(*args)
    setattr(timings, f"{stage}_ms", (time.thread_time() - t0) * 1000.0)
    return out


def _method_key(method: Method) -> str:
    """Stable textual identity of a method across registry clones."""
    params = ",".join([str(p.type) for p in method.parameters])
    tag = "#static" if method.static else ""
    return f"{method.owner}.{method.name}({params}){tag}"


class _RecordingCallGraph:
    """Call-graph proxy logging which methods a slice depended on.

    ``declaration_of`` queries mark client-body inlining points;
    ``call_sites_of`` queries mark interprocedural caller jumps. The
    pipeline fingerprints the queries of both the extractor and the
    analyzer of a file against the files involved, so a change anywhere
    in either slice's support re-slices the file.
    """

    def __init__(self, inner: CallGraph):
        self.inner = inner
        self.decl_queries: Set[Method] = set()
        self.site_queries: Set[Method] = set()

    def declaration_of(self, method: Method):
        self.decl_queries.add(method)
        return self.inner.declaration_of(method)

    def call_sites_of(self, method: Method) -> Tuple[CallSite, ...]:
        self.site_queries.add(method)
        return self.inner.call_sites_of(method)

    def call_sites_in(self, decl) -> Tuple[CallSite, ...]:
        return self.inner.call_sites_in(decl)

    def expressions_in(self, decl) -> Tuple[Expr, ...]:
        return self.inner.expressions_in(decl)

    def clear(self) -> None:
        """Forget the queries so far (before slicing the next file)."""
        self.decl_queries.clear()
        self.site_queries.clear()


def _collect_named(t, out: Set[str]) -> None:
    while isinstance(t, ArrayType):
        t = t.element
    if isinstance(t, NamedType):
        out.add(t.simple)


def _referenced_corpus_types(
    unit: CompilationUnit, registry: TypeRegistry, class_src: Dict[str, tuple]
) -> Set[str]:
    """Type names the unit references, closed over corpus supertypes.

    Subtype tests and widening chains during extraction consult the
    hierarchy that *other* corpus files declare; recording the closure's
    declaring files as dependencies makes hierarchy edits re-mine every
    unit that could observe them. Names that currently resolve outside
    the corpus are returned too — their recorded dependency is ``None``,
    which flips (and invalidates) if a later corpus file shadows the
    name with a client class.
    """
    names: Set[str] = set()
    for cls in unit.classes:
        names.add(cls.name)
        if cls.extends is not None:
            names.add(cls.extends.name)
        for ref in cls.implements:
            names.add(ref.name)
        for m in cls.methods:
            for expr in method_expressions(m):
                _collect_named(getattr(expr, "resolved_type", None), names)
                rm = getattr(expr, "resolved_method", None)
                if rm is not None:
                    _collect_named(rm.owner, names)
                    _collect_named(rm.return_type, names)
                    for p in rm.parameter_types:
                        _collect_named(p, names)
                rc = getattr(expr, "resolved_constructor", None)
                if rc is not None:
                    _collect_named(rc.owner, names)
                    for p in rc.parameter_types:
                        _collect_named(p, names)
                rf = getattr(expr, "resolved_field", None)
                if rf is not None:
                    _collect_named(rf.owner, names)
                    _collect_named(rf.type, names)
                if isinstance(expr, CastExpr):
                    _collect_named(expr.operand_type, names)
    frontier = [n for n in names if n in class_src]
    while frontier:
        name = frontier.pop()
        for t in registry.lookup_simple(name):
            try:
                decl = registry.declaration_of(t)
            except Exception:
                continue
            sups = list(decl.interfaces)
            if decl.superclass is not None:
                sups.append(decl.superclass)
            for sup in sups:
                simple = sup.simple
                if simple in class_src and simple not in names:
                    names.add(simple)
                    frontier.append(simple)
    return names


class _UnitDeps(NamedTuple):
    """What one unit adds to the dependency index; kept while its share of
    the call graph is."""

    calls: UnitCalls
    #: The unit's (source, fingerprint): its owner in the index.
    entry: Tuple[str, str]
    #: Keys of the methods whose bodies it declares.
    decls: Tuple[str, ...]
    #: Keys of its call sites' targets, one per target of each site.
    callees: Tuple[str, ...]
    #: Simple names of its classes.
    classes: Tuple[str, ...]


#: A sync's dependency keys whose value changed: decl, site, type names.
_Changed = Tuple[Set[str], Set[str], Set[str]]
#: Mine records by source, in corpus order.
_Records = Dict[str, FileMineRecord]


@dataclass
class StageTimings:
    """Milliseconds of the syncing thread's CPU time spent in each stage."""

    fingerprint_ms: float = 0.0
    parse_ms: float = 0.0
    resolve_ms: float = 0.0
    callgraph_ms: float = 0.0
    mine_ms: float = 0.0
    analyze_ms: float = 0.0
    generalize_ms: float = 0.0
    graft_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass
class PipelineUpdateStats:
    """Everything one :meth:`CorpusPipeline.sync` did, with timings."""

    files_total: int = 0
    files_added: Tuple[str, ...] = ()
    files_changed: Tuple[str, ...] = ()
    files_removed: Tuple[str, ...] = ()
    #: Loaded files whose bodies were resolved again, not reused.
    files_reresolved: Tuple[str, ...] = ()
    #: Files, other than the added, changed and removed ones, whose cached
    #: declaration record, body entry or mine record had its validity
    #: checked: a name, type or key it recorded changed, or the stage had
    #: no earlier sync to narrow from.
    files_rechecked: Tuple[str, ...] = ()
    #: Files actually re-sliced (content or dependency change).
    files_remined: Tuple[str, ...] = ()
    #: Healthy files whose cached examples were reused untouched.
    files_reused: int = 0
    #: Files whose cast observations were recomputed: the re-mined files,
    #: plus any file whose observations are not cached (after a restart).
    files_reanalyzed: Tuple[str, ...] = ()
    #: Downcast observations recomputed in this sync.
    casts_reanalyzed: int = 0
    examples_total: int = 0
    suffixes_total: int = 0
    suffixes_added: int = 0
    suffixes_removed: int = 0
    #: Graph nodes whose adjacency the graft changed (every node on the
    #: initial build).
    affected_targets: int = 0
    revision_before: int = 0
    revision_after: int = 0
    #: True when the sync changed nothing (identical fingerprints).
    noop: bool = False
    initial: bool = False
    timings: StageTimings = field(default_factory=StageTimings)


#: Parse-cache entry: (fingerprint, parsed unit or None, parse fault or None).
_ParseEntry = Tuple[str, Optional[CompilationUnit], Optional[Exception]]


class _ParseStage:
    """Fingerprint and parse: SHA-256 every corpus file the last sync did
    not commit as the same string and diff against the last sync
    (identical content means identical downstream artifacts), then parse.
    Owns the committed texts, their fingerprints and the per-file parse
    cache keyed by fingerprint, so only touched files are re-parsed; parse
    failures are quarantined exactly like
    :func:`repro.corpus.load_corpus_texts` does (strict mode raises the
    first quarantined file's error after the resolve stage). Takes the
    new texts; hands on their fingerprints, then their units and parse
    faults."""

    def __init__(self) -> None:
        self.texts: List[Tuple[str, str]] = []
        self.fps: Dict[str, str] = {}
        self.cache: Dict[str, _ParseEntry] = {}

    def fingerprint(self, texts: List[Tuple[str, str]], stats: PipelineUpdateStats):
        fps = fingerprint_texts(texts, {s: (t, self.fps[s]) for s, t in self.texts})
        diff = diff_fingerprints(self.fps, fps)
        stats.files_added, stats.files_changed = diff.added, diff.changed
        stats.files_removed = diff.removed
        return fps, diff

    def run(self, texts: List[Tuple[str, str]], fps: Dict[str, str]):
        cache: Dict[str, _ParseEntry] = {}
        units: List[CompilationUnit] = []
        faults: List[Tuple[str, Exception]] = []
        for source, text in texts:
            entry = self.cache.get(source)
            if entry is None or entry[0] != fps[source]:
                try:
                    entry = (fps[source], parse_minijava(text, source), None)
                except MiniJavaError as exc:
                    entry = (fps[source], None, exc)
            cache[source] = entry
            if entry[1] is not None:
                units.append(entry[1])
            else:
                faults.append((source, entry[2]))
        self._next = (texts, fps, cache)
        return units, faults

    def commit(self) -> None:
        self.texts, self.fps, self.cache = self._next


class _ResolveStage:
    """Resolve and check. Every attempt declares the names of all live
    units into a copy-on-write registry clone. A unit resolves its
    supertypes and members again only when its declaration record went
    stale (a name they probed binds differently, or a new AST), and its
    bodies only when its body entry went stale: a name the bodies probed
    binds differently, or a corpus type they read changed its
    declaration (new AST, shadowing class, new overload, edited
    supertype). Only the records of units that probed a changed name or
    read a changed type are checked; the cache's reverse indexes find
    them. A unit's check issues are cached on the same entry, and a file
    quarantined for lookups that found nothing stays out of the joint
    attempt while they still find nothing (the quarantine memo). Lenient
    quarantine semantics are shared with the corpus loader via
    :func:`repro.corpus.resolve_and_check_lenient`.

    Owns the :class:`~repro.minijava.ResolutionCache` (those records and
    indexes); takes the parsed units, hands on the program, and leaves
    the units whose bodies ran in ``cache.resolved`` and those whose
    records were checked in ``cache.checked``."""

    def __init__(self, api_registry: TypeRegistry, lenient: bool, check: bool):
        self.api_registry, self.lenient, self.check = api_registry, lenient, check
        self.cache = ResolutionCache()

    def run(self, texts, units, faults, stats: PipelineUpdateStats) -> CorpusProgram:
        self.cache.retain(units)
        diagnostics = CorpusDiagnostics()
        for source, exc in faults:
            diagnostics.record(source, PHASE_PARSE, exc)
        registry, loaded, corpus_types, report = resolve_and_check_lenient(
            self.api_registry, units, diagnostics, self.check, self.cache
        )
        if not self.lenient:
            diagnostics.raise_first()
        diagnostics.loaded = [u.source for u in loaded]
        stats.files_reresolved = tuple(u.source for u in loaded if id(u) in self.cache.resolved)
        return CorpusProgram(
            units=loaded,
            registry=registry,
            corpus_types=corpus_types,
            check_report=report,
            diagnostics=diagnostics if self.lenient else None,
            texts=list(texts),
        )


class _CallGraphStage:
    """Call graph and dependency index. The graph is patched from the
    previous one: only re-resolved units are walked again, CHA targets
    are recomputed only above a class that changed, only a changed
    unit's entries are replaced, and only the caller lists of targets a
    changed unit names are rebuilt.

    Owns the graph the next build patches and the index a mine record is
    checked against: a :class:`~repro.minijava.Dependents` whose owner is
    each unit's (source, fingerprint) entry, with one table each for the
    method keys whose bodies it declares, the keys its call sites name
    (once per target of each site) and its class simple names. Takes the
    program and the units resolved again; leaves the graph in ``graph``
    and hands on the keys whose value changed, or ``None`` when any may
    have."""

    def __init__(self) -> None:
        #: The graph of the last run; ``None`` after a sync raised, whose
        #: resolution may have annotated its units since it was built.
        self.graph: Optional[CallGraph] = None
        #: Per unit id of the last committed graph: its keys in the index.
        self.keys: Dict[int, _UnitDeps] = {}
        #: Patched in place, so ``None`` after a sync raised.
        self.index: Optional[Dependents] = None
        #: Each loaded source's place in corpus order.
        self.place: Dict[str, int] = {}
        #: Files whose unchanged text was resolved again in this sync:
        #: their annotations, which a slice reads, may differ from when a
        #: value naming them was recorded.
        self.rewritten: FrozenSet[str] = frozenset()

    def decl(self, key: str) -> DepFingerprint:
        """The unit declaring method ``key``'s body (a loaded corpus
        declares each class once, so each key once)."""
        owners = self.index.tables[0].get(key)
        return owners[-1] if owners else None

    def sites(self, key: str) -> Tuple[Tuple[str, str], ...]:
        """The unit of every call site naming method ``key``, sorted."""
        return tuple(sorted(self.index.tables[1].get(key, ())))

    def declarer(self, name: str) -> DepFingerprint:
        """The last unit, in corpus order, declaring a class ``name``."""
        owners = self.index.tables[2].get(name)
        return max(owners, key=lambda entry: self.place[entry[0]]) if owners else None

    def record_calls(self, record: FileMineRecord, recorder: _RecordingCallGraph) -> None:
        """Add the call-graph queries ``recorder`` saw to ``record``'s deps."""
        for key in map(_method_key, recorder.decl_queries):
            record.decl_deps[key] = self.decl(key)
        for key in map(_method_key, recorder.site_queries):
            record.site_deps[key] = self.sites(key)

    def _values(self, keys: _Changed) -> Tuple[dict, ...]:
        decls, sites, names = keys
        return (
            {k: self.decl(k) for k in decls},
            {k: self.sites(k) for k in sites},
            {n: self.declarer(n) for n in names},
        )

    def run(
        self, program: CorpusProgram, fps: Dict[str, str], resolved: Set[int]
    ) -> Optional[_Changed]:
        """The index is patched for the units whose share of the call graph
        was rebuilt and the units that are gone; a unit's keys are computed
        again only when its share was rebuilt. With no index, or when kept
        units moved relative to each other, it is built afresh."""
        units = program.units
        graph = self.graph = build_call_graph(program.registry, units, self.graph, resolved)
        old = self.keys
        self.rewritten = frozenset(u.source for u in units if id(u) in resolved and id(u) in old)
        keys: Dict[int, _UnitDeps] = {}
        fresh: List[_UnitDeps] = []
        for unit in units:
            calls = graph.units[id(unit)]
            unit_keys = old.get(id(unit))
            if unit_keys is None or unit_keys.calls is not calls:
                unit_keys = _UnitDeps(
                    calls,
                    (unit.source, fps[unit.source]),
                    tuple(_method_key(method) for method, _ in calls.methods),
                    tuple(
                        _method_key(target)
                        for _, _, sites in calls.bodies
                        for site in sites
                        for target in site.targets
                    ),
                    tuple(cls.name for cls in unit.classes),
                )
                fresh.append(unit_keys)
            keys[id(unit)] = unit_keys
        self._next = keys
        place = {unit.source: i for i, unit in enumerate(units)}
        if self.index is None or [k for k in old if k in keys] != [k for k in keys if k in old]:
            self.index, self.place = Dependents(3), place
            for unit_keys in keys.values():
                self.index.add(unit_keys.entry, *unit_keys[2:])
            return None
        gone = [unit_keys for k, unit_keys in old.items() if keys.get(k) is not unit_keys]
        touched: _Changed = (set(), set(), set())
        for unit_keys in gone + fresh:
            for table, owned in zip(touched, unit_keys[2:]):
                table.update(owned)
        before = self._values(touched)
        # A site's owners hold one entry per occurrence, so a unit's share
        # of a site list is every occurrence of its entry.
        for unit_keys in gone:
            self.index.remove(unit_keys.entry, *unit_keys[2:])
        for unit_keys in fresh:
            self.index.add(unit_keys.entry, *unit_keys[2:])
        self.place = place
        changed = tuple(
            {k for k, value in was.items() if now[k] != value}
            for was, now in zip(before, self._values(touched))
        )
        for unit_keys in fresh:
            if unit_keys.entry[0] in self.rewritten:
                for table, owned in zip(changed, unit_keys[2:]):
                    table.update(owned)
        return changed

    def commit(self) -> None:
        self.keys = self._next


class _MineStage:
    """Mine. A file's examples are cached per fingerprint plus its
    recorded slicing dependencies (inlined client bodies and CHA caller
    sets queried by either interpretation, referenced corpus-type
    hierarchy); only the records of files that recorded a changed key are
    checked, and only files whose content *or* dependencies changed are
    re-sliced. Owns each file's :class:`FileMineRecord` and a
    :class:`~repro.minijava.Dependents` from every decl, site and
    type-name key a record recorded to the sources whose records did.
    Takes the changed keys; hands on the records and the re-mined files."""

    def __init__(self, extraction: ExtractionConfig, deps: _CallGraphStage):
        self.extraction, self.deps = extraction, deps
        self.records: _Records = {}
        self.users = Dependents(3)

    def run(
        self,
        program: CorpusProgram,
        fps: Dict[str, str],
        changed: Optional[_Changed],
        checked: Set[int],
        stats: PipelineUpdateStats,
    ) -> Tuple[_Records, Set[str]]:
        # An unchanged file's record is checked only when it recorded a
        # key whose value changed (or there is no change set).
        suspects = self.users.of(*changed) | self.deps.rewritten if changed is not None else None
        rechecked = {u.source for u in program.units if id(u) in checked}
        records: _Records = {}
        remined: List[str] = []
        for unit in program.units:
            source, fp = unit.source, fps[unit.source]
            old = self.records.get(source)
            if old is not None and old.fingerprint == fp:
                if self.record_unaffected(old, fp, suspects):
                    records[source] = old
                    continue
                rechecked.add(source)
                if self.record_valid(old, fp, self.deps):
                    records[source] = old
                    continue
            records[source] = self.mine_unit(unit, program, fp)
            remined.append(source)
        stats.files_remined = tuple(remined)
        stats.files_reused = len(records) - len(remined)
        stats.files_rechecked = tuple(u.source for u in program.units if u.source in rechecked)
        return records, set(remined)

    @staticmethod
    def record_unaffected(record: FileMineRecord, fp: str, suspects: Optional[Set[str]]) -> bool:
        """Is ``record`` the last sync's record of an unchanged file that
        recorded no key whose value changed? It was valid against the last
        sync's index, so :meth:`record_valid` would pass it."""
        return suspects is not None and record.fingerprint == fp and record.source not in suspects

    @staticmethod
    def record_valid(record: FileMineRecord, fp: str, deps: _CallGraphStage) -> bool:
        """Is a cached record still exact for the current corpus state?

        Its file and every file a recorded value names must be unchanged,
        and none of them resolved again (a file is resolved again when a
        name it probed binds differently or a type it read changed, and
        its annotations with it)."""
        if (
            record.fingerprint != fp
            or record.source in deps.rewritten
            or any(deps.decl(key) != want for key, want in record.decl_deps.items())
            or any(deps.sites(key) != want for key, want in record.site_deps.items())
            or any(deps.declarer(name) != want for name, want in record.type_deps.items())
        ):
            return False
        if deps.rewritten:
            named = [e for e in record.decl_deps.values() if e]
            named += [e for entries in record.site_deps.values() for e in entries]
            named += [e for e in record.type_deps.values() if e]
            return not any(source in deps.rewritten for source, _ in named)
        return True

    def mine_unit(self, unit: CompilationUnit, program: CorpusProgram, fp: str) -> FileMineRecord:
        """Slice one unit, recording its dependency fingerprints."""
        deps = self.deps
        recorder = _RecordingCallGraph(deps.graph)
        extractor = JungloidExtractor(
            program.registry, program.units, program.corpus_types, recorder, self.extraction
        )
        record = FileMineRecord(unit.source, fp, extractor.extract_unit(unit))
        record.faults = list(extractor.faults)
        names = _referenced_corpus_types(unit, program.registry, deps.index.tables[2])
        record.type_deps = {name: deps.declarer(name) for name in names}
        deps.record_calls(record, recorder)
        return record

    def commit(self, records: _Records, reanalyzed: Set[str]) -> None:
        """Adopt ``records``, re-indexing the new ones and the re-analyzed
        ones, whose call deps the analyzer extended."""
        for source, old in self.records.items():
            if records.get(source) is not old or source in reanalyzed:
                self.users.remove(source, old.decl_deps, old.site_deps, old.type_deps)
        for source, record in records.items():
            if self.records.get(source) is not record or source in reanalyzed:
                self.users.add(source, record.decl_deps, record.site_deps, record.type_deps)
        self.records = records


class _AnalyzeStage:
    """Analyze. Owns each file's cast observations and the verdict index
    over them; takes the records and the re-mined files, recomputes their
    observations and classifies again only the cast pairs whose
    observations changed; hands on the re-analyzed files."""

    def __init__(self, extraction: ExtractionConfig, deps: _CallGraphStage):
        self.extraction, self.deps = extraction, deps
        self.observations: Dict[str, Tuple[CastObservation, ...]] = {}
        self.verdicts: Optional[CastVerdictIndex] = None

    def run(
        self,
        program: CorpusProgram,
        records: _Records,
        remined: Set[str],
        stats: PipelineUpdateStats,
    ) -> Set[str]:
        # Re-mined files are re-analyzed, and the analyzer's call-graph
        # queries join their recorded dependencies: its join reads every
        # flow, where the extractor stops at its example cap or a fault.
        observations: Dict[str, Tuple[CastObservation, ...]] = {}
        reanalyzed: List[str] = []
        recorder = _RecordingCallGraph(self.deps.graph)
        analyzer = CastAnalyzer(
            program.registry, program.units, program.corpus_types, recorder, self.extraction
        )
        for unit in program.units:
            source = unit.source
            cached = self.observations.get(source)
            if cached is not None and source not in remined:
                observations[source] = cached
                continue
            recorder.clear()
            observations[source] = tuple(analyzer.analyze_unit(unit))
            reanalyzed.append(source)
            self.deps.record_calls(records[source], recorder)
        merged = [obs for unit in program.units for obs in observations[unit.source]]
        self._next = (observations, build_verdict_index(program.registry, merged, self.verdicts))
        stats.files_reanalyzed = tuple(reanalyzed)
        stats.casts_reanalyzed = sum(len(observations[s]) for s in reanalyzed)
        return set(reanalyzed)

    def commit(self) -> None:
        self.observations, self.verdicts = self._next


class _GeneralizeStage:
    """Generalize. Owns the incremental reference-counted cast trie
    (:class:`repro.mining.IncrementalGeneralizer`), each file's
    generalized examples (in its record's order) and the mining result.
    Takes the records the trie holds and the new ones: re-mined files'
    examples are removed/inserted, never the whole structure rebuilt,
    and only they and the examples under a trie key those edits touched
    get a new suffix. Hands on the suffixes whose use count rose from
    zero and fell to zero."""

    def __init__(self) -> None:
        #: ``None`` after a sync raised with the trie perhaps half edited.
        self.generalizer: Optional[IncrementalGeneralizer] = IncrementalGeneralizer()
        self.generalized: Dict[str, List[GeneralizedExample]] = {}
        self.mining: Optional[MiningResult] = None

    def run(
        self, inserted: _Records, records: _Records, stats: PipelineUpdateStats
    ) -> Tuple[List[Jungloid], Tuple[Jungloid, ...], Tuple[Jungloid, ...]]:
        # Files whose record is not the one whose examples the trie holds
        # lose their examples' results and get new ones; a kept file's
        # results change only where the generalizer moved one.
        if self.generalizer is None:
            self.generalizer, inserted = IncrementalGeneralizer(), {}
        trie, order = self.generalizer, list(records)
        for source, old in inserted.items():
            if records.get(source) is old:
                continue
            for example in old.examples:
                trie.remove(example)
        fresh = [s for s in order if inserted.get(s) is not records[s]]
        for source in fresh:
            for example in records[source].examples:
                trie.insert(example)
        results = trie.generalize([e for s in fresh for e in records[s].examples])
        generalized_by = {s: self.generalized.get(s, []) for s in order}
        for source in fresh:
            generalized_by[source] = []
        for result in results:
            generalized_by[result.example.source].append(result)
        moved = {id(g.example): g for g in trie.moved}
        for source in {g.example.source for g in trie.moved}:
            generalized_by[source] = [moved.get(id(g.example), g) for g in generalized_by[source]]
        generalized = [g for s in order for g in generalized_by[s]]
        suffixes = unique_suffixes(generalized)
        mining = MiningResult(
            examples=[e for s in order for e in records[s].examples],
            generalized=generalized,
            suffixes=suffixes,
            faults=[f for s in order for f in records[s].faults],
        )
        stats.examples_total, stats.suffixes_total = len(mining.examples), len(suffixes)
        self._next = (generalized_by, mining)
        # Suffixes are canonical objects: the ones whose use count rose
        # from zero are new (grafted in the new list's order), the ones
        # that fell to zero gone (in the old order).
        born = {id(j) for j in trie.added}
        died = {id(j) for j in trie.removed}
        old = self.mining.suffixes if self.mining is not None else ()
        added = tuple(j for j in suffixes if id(j) in born) if born else ()
        removed = tuple(j for j in old if id(j) in died) if died else ()
        return suffixes, added, removed

    def commit(self) -> None:
        self.generalized, self.mining = self._next


class _GraftStage:
    """Graft. Owns the live :class:`~repro.graph.JungloidGraph`, edited in
    place; takes the suffix delta and splices it in / out. The graph's
    edge journal lets a search engine patch its compiled graph and keep
    the distance maps the delta cannot move."""

    def __init__(self, api_registry: TypeRegistry, public_only: bool):
        self.api_registry, self.public_only = api_registry, public_only
        self.graph: Optional[JungloidGraph] = None
        #: ``graph`` was adopted, not built here (see
        #: :meth:`CorpusPipeline.from_artifacts`), or a sync raised after
        #: perhaps editing it: the next graft diffs against its splices.
        self.adopted = False

    def run(
        self,
        suffixes: List[Jungloid],
        added: Tuple[Jungloid, ...],
        removed: Tuple[Jungloid, ...],
        stats: PipelineUpdateStats,
    ) -> None:
        if self.graph is None:
            self.graph = JungloidGraph.build(
                self.api_registry, suffixes, public_only=self.public_only
            )
            stats.suffixes_added = len(suffixes)
            stats.affected_targets = self.graph.node_count()
            stats.revision_after = self.graph.revision
            return
        if self.adopted:
            # Diff against the adopted graph's splices, in its order.
            live = dict.fromkeys(self.graph.mined_suffix_keys())
            new = {j.steps for j in suffixes}
            added = tuple(j for j in suffixes if j.steps not in live)
            removed = tuple(Jungloid(key) for key in live if key not in new)
        applied = self.graph.apply_mined_delta(added, removed)
        stats.suffixes_added = len(added)
        stats.suffixes_removed = len(removed)
        stats.affected_targets = len(applied.affected_targets)
        stats.revision_before = applied.revision_before
        stats.revision_after = applied.revision_after

    def commit(self) -> None:
        self.adopted = False


class CorpusPipeline:
    """Staged corpus → graph build with incremental re-sync.

    The pipeline owns the live :class:`~repro.graph.JungloidGraph` (the
    object identity is stable across updates, so long-lived search
    engines observe deltas through the graph's revision counter) and the
    current :class:`~repro.corpus.CorpusProgram` / mining artifacts.
    """

    def __init__(
        self,
        api_registry: TypeRegistry,
        extraction: ExtractionConfig = ExtractionConfig(),
        lenient: bool = True,
        check: bool = True,
        public_only: bool = True,
    ):
        self.api_registry = api_registry
        self.extraction = extraction
        self.lenient = bool(lenient)
        self.check = bool(check)
        self.public_only = bool(public_only)

        self._parse = _ParseStage()
        self._resolve = _ResolveStage(api_registry, self.lenient, self.check)
        self._calls = _CallGraphStage()
        self._mine = _MineStage(extraction, self._calls)
        self._analyze = _AnalyzeStage(extraction, self._calls)
        self._generalize = _GeneralizeStage()
        self._graft = _GraftStage(api_registry, self.public_only)
        #: The last sync committed, or raised before changing anything.
        self._settled = True

        self.program: Optional[CorpusProgram] = None
        self.call_graph: Optional[CallGraph] = None
        self.last_stats: Optional[PipelineUpdateStats] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        api_registry: TypeRegistry,
        texts: Iterable[Tuple[str, str]],
        **kwargs,
    ) -> "CorpusPipeline":
        """Full staged build from ``(source, text)`` corpus files."""
        pipeline = cls(api_registry, **kwargs)
        with _collector_paused():
            pipeline.sync(texts)
        return pipeline

    @classmethod
    def from_program(
        cls,
        api_registry: TypeRegistry,
        program: CorpusProgram,
        extraction: ExtractionConfig = ExtractionConfig(),
        public_only: bool = True,
        check: Optional[bool] = None,
    ) -> "CorpusPipeline":
        """Build from an already-loaded corpus program (must carry its texts).

        Load discipline is inferred from the program: a quarantine
        report means it was loaded leniently, a check report means
        checking was on (``check`` overrides that, so an unchecked load
        can seed a checking pipeline). The program must have been loaded
        against ``api_registry``. The first pipeline built from a program
        adopts its parsed units (quarantined ones too), parse faults and
        :class:`~repro.minijava.ResolutionCache` (and clears
        ``program.resolution_cache``), so its initial sync parses and
        re-resolves nothing the loader did; a later one parses and
        resolves afresh, because later syncs re-resolve adopted units in
        place. An empty program (no units, no texts) yields an empty
        pipeline that later updates can fill.
        """
        if program.units and not program.texts:
            raise ValueError("program has no retained texts; cannot build a pipeline")
        pipeline = cls(
            api_registry,
            extraction=extraction,
            lenient=program.diagnostics is not None,
            check=program.check_report is not None if check is None else check,
            public_only=public_only,
        )
        cache = program.resolution_cache
        if cache is not None:
            # Seed the parse and resolution caches with the program's so
            # the initial sync only re-declares and mines.
            program.resolution_cache = None
            pipeline._resolve.cache = cache
            fps = fingerprint_texts(program.texts)
            parsed = [(u.source, u, None) for u in [*program.units, *program.quarantined_units]]
            parsed += [(source, None, exc) for source, exc in program.parse_faults]
            pipeline._parse.cache = {s: (fps[s], u, exc) for s, u, exc in parsed if s in fps}
        with _collector_paused():
            pipeline.sync(program.texts)
        return pipeline

    @classmethod
    def from_artifacts(
        cls,
        api_registry: TypeRegistry,
        data: dict,
        graph: Optional[JungloidGraph] = None,
        extraction: ExtractionConfig = ExtractionConfig(),
        public_only: bool = True,
    ) -> "CorpusPipeline":
        """Rebuild a pipeline from a persisted stage file: its texts and
        load discipline, mined afresh under ``extraction``.

        ``graph`` (typically from a snapshot load) is adopted as the
        live graph; the initial sync then applies a suffix delta against
        it — empty when the snapshot holds what these texts mine,
        corrective when it does not.
        """
        data = check_stage_dict(data)
        pipeline = cls(
            api_registry,
            extraction=extraction,
            lenient=bool(data.get("lenient", True)),
            check=bool(data.get("check", True)),
            public_only=public_only,
        )
        if graph is not None:
            pipeline._graft.graph, pipeline._graft.adopted = graph, True
        pipeline.sync([(str(s), t) for s, t in data["texts"]])
        return pipeline

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def texts(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._parse.texts)

    @property
    def graph(self) -> Optional[JungloidGraph]:
        return self._graft.graph

    @property
    def mining(self) -> Optional[MiningResult]:
        return self._generalize.mining

    @property
    def verdicts(self) -> Optional[CastVerdictIndex]:
        """The cast-verdict index for the current corpus state."""
        return self._analyze.verdicts

    @property
    def suffixes(self) -> Tuple[Jungloid, ...]:
        return tuple(self.mining.suffixes) if self.mining is not None else ()

    @property
    def records(self) -> _Records:
        return dict(self._mine.records)

    def to_stage_dict(self) -> dict:
        """The persistable pipeline inputs (see :mod:`.artifacts`)."""
        return stages_to_dict(self._parse.texts, self.lenient, self.check)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @property
    def settled(self) -> bool:
        """No sync raised since the last commit, so the program's ASTs
        carry its annotations (the next sync after a raise resolves again)."""
        return self._settled

    def update(
        self,
        upserts: Iterable[Tuple[str, str]] = (),
        removes: Iterable[str] = (),
    ) -> PipelineUpdateStats:
        """Apply file-level edits: replace/add ``upserts``, drop ``removes``.

        Replaced files keep their position in corpus order; new files
        append, in the order they are first named. A source named twice
        takes its last text. Equivalent to a full :meth:`sync` of the
        edited text list, which is exactly what the differential suite
        checks.
        """
        pending = {str(s): t for s, t in upserts}
        removed = {str(s) for s in removes}
        texts = [(s, pending.pop(s, t)) for s, t in self._parse.texts if s not in removed]
        texts += [(s, t) for s, t in pending.items() if s not in removed]
        return self.sync(texts)

    def sync(self, texts: Iterable[Tuple[str, str]]) -> PipelineUpdateStats:
        """Make the pipeline's outputs match ``texts``, incrementally.

        A sync that raises leaves no trace: the pipeline keeps its
        previous outputs, and the next sync undoes what the failed one
        wrote in place (see :meth:`_forget_attempt`) instead of taking
        the no-op path. A strict (``lenient=False``) sync runs the
        lenient stages and raises the first quarantined file's error
        before anything is committed.
        """
        texts = [(str(s), t) for s, t in texts]
        stats = PipelineUpdateStats(initial=self.graph is None, files_total=len(texts))
        timed = functools.partial(_timed, stats.timings)
        fps, diff = timed("fingerprint", self._parse.fingerprint, texts, stats)
        same_order = [s for s, _ in texts] == [s for s, _ in self._parse.texts]
        if diff.is_empty and self._settled and self.graph is not None and same_order:
            stats.noop, stats.files_reused = True, len(self._mine.records)
            stats.examples_total = len(self.mining.examples) if self.mining else 0
            stats.suffixes_total = len(self.suffixes)
            stats.revision_before = stats.revision_after = self.graph.revision
            self.last_stats = stats
            return stats
        if not self._settled:
            self._forget_attempt()
        self._settled = False

        units, faults = timed("parse", self._parse.run, texts, fps)
        program = timed("resolve", self._resolve.run, texts, units, faults, stats)
        changed = timed("callgraph", self._calls.run, program, fps, self._resolve.cache.resolved)
        records, remined = timed(
            "mine", self._mine.run, program, fps, changed, self._resolve.cache.checked, stats
        )
        reanalyzed = timed("analyze", self._analyze.run, program, records, remined, stats)
        suffixes, added, removed = timed(
            "generalize", self._generalize.run, self._mine.records, records, stats
        )
        timed("graft", self._graft.run, suffixes, added, removed, stats)

        # Every stage ran: commit them.
        for stage in (self._parse, self._calls, self._analyze, self._generalize, self._graft):
            stage.commit()
        self._mine.commit(records, reanalyzed)
        self._settled = True
        self.program = program
        self.call_graph = self._calls.graph
        self.last_stats = stats
        return stats

    def _forget_attempt(self) -> None:
        """Undo what the last sync wrote in place before it raised.

        Its resolution annotated cached ASTs, so every unit it resolved
        is resolved again and the call graph is built afresh; its
        call-graph stage may have patched the dependency index, so the
        index is built afresh and every mine record checked, as after a
        restart; its generalize and graft may have edited the trie and
        the live graph, so the trie is built afresh and the graph diffed
        against its own splices, as an adopted one is.
        """
        cache = self._resolve.cache
        for key in cache.resolved:
            cache.drop(key)
            cache.drop_declared(key)
        self._calls.graph = self._calls.index = None
        self._generalize.generalizer = None
        self._graft.adopted = self.graph is not None

