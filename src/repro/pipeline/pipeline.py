"""The staged, incremental corpus → jungloid-graph pipeline.

:class:`CorpusPipeline` is the one way a corpus becomes a graph (paper
§4: slice each cast, generalize to suffixes, splice them into the
signature graph), as explicit stages with cached, fingerprinted
artifacts:

1. **fingerprint** — SHA-256 every corpus file the last sync did not
   commit as the same string; diff against the last sync. Identical
   content means identical downstream artifacts.
2. **parse** — per-file parse cache keyed by fingerprint; only touched
   files are re-parsed, and parse failures are quarantined exactly like
   :func:`repro.corpus.load_corpus_texts` does (strict mode raises the
   first quarantined file's error after stage 3).
3. **resolve/check** — every attempt declares the names of all live
   units into a copy-on-write registry clone. A unit resolves its
   supertypes and members again only when its
   :class:`~repro.minijava.ResolutionCache` declaration record went
   stale (a name they probed binds differently, or a new AST), and its
   bodies only when its body entry went stale: a name the bodies probed
   binds differently, or a corpus type they read changed its
   declaration (new AST, shadowing class, new overload, edited
   supertype). Only the records of units that probed a changed name or
   read a changed type are checked; the cache's reverse indexes find
   them. A unit's check issues are cached on the same entry, and
   a file quarantined for lookups that found nothing stays out of the
   joint attempt while they still find nothing (the quarantine memo).
   Lenient quarantine semantics are shared with the corpus loader via
   :func:`repro.corpus.resolve_and_check_lenient`.
4. **call graph + mine + analyze** — the call graph is an index patched
   from the previous one: only re-resolved units are walked again, CHA
   targets are recomputed only above a class that changed, only a
   changed unit's entries are replaced, and only the caller lists of
   targets a changed unit names are rebuilt. Per-file
   example extraction and cast observations are cached per fingerprint
   plus the file's recorded slicing dependencies (inlined client bodies
   and CHA caller sets queried by either interpretation, referenced
   corpus-type hierarchy). The dependency maps are patched for the
   changed units, and only the records of files that recorded a key
   whose value changed are checked (a reverse index finds them); only
   files whose content *or* dependencies changed are re-sliced. Only
   cast pairs whose observations changed are classified again.
5. **generalize** — an incremental reference-counted cast trie
   (:class:`repro.mining.IncrementalGeneralizer`); re-mined files'
   examples are removed/inserted, never the whole structure rebuilt,
   and only they and the examples under a trie key those edits touched
   get a new suffix.
6. **graft** — the suffixes whose use count rose from or fell to zero
   are spliced into / out of the live
   :class:`~repro.graph.JungloidGraph`, whose edge journal lets a search
   engine patch its compiled graph and keep the distance maps the
   delta cannot move.

The pipeline's contract, enforced by the differential test suite: after
any sequence of :meth:`update` calls, ranked query answers are identical
to a from-scratch build over the same final texts. A no-op update (same
bytes) leaves the graph revision untouched, so downstream caches and the
compiled search kernel don't move at all.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..analysis.castsafety import CastAnalyzer, CastObservation, build_verdict_index
from ..analysis.verdicts import CastVerdictIndex
from ..corpus import CorpusProgram, resolve_and_check_lenient
from ..graph import JungloidGraph
from ..graph.jungloid_graph import MinedDelta
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
from .artifacts import (
    DepFingerprint,
    FileMineRecord,
    StageFormatError,
    check_stage_dict,
    stages_to_dict,
)
from .fingerprint import diff_fingerprints, fingerprint_texts


def _now_ms() -> float:
    # The calling thread's CPU time, as the benchmark measures: other
    # processes on a loaded host do not inflate a stage.
    return time.thread_time() * 1000.0


def _method_key(method: Method) -> str:
    """Stable textual identity of a method across registry clones."""
    params = ",".join(str(t) for t in method.parameter_types)
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
    unit: CompilationUnit, registry: TypeRegistry, class_src: Dict[str, DepFingerprint]
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
    """What one unit adds to the dependency maps; kept while its share of
    the call graph is."""

    calls: UnitCalls
    #: The unit's (source, fingerprint).
    entry: Tuple[str, str]
    #: Keys of the methods whose bodies it declares.
    decls: Tuple[str, ...]
    #: Keys of its call sites' targets, one per target of each site.
    callees: Tuple[str, ...]
    #: Simple names of its classes.
    classes: Tuple[str, ...]


class _DepMaps(NamedTuple):
    """The current dependency fingerprints a mine record is checked against."""

    #: Method key -> (source, fingerprint) of the unit declaring its body.
    decl: Dict[str, Tuple[str, str]]
    #: Method key -> (source, fingerprint) of every call site naming it, sorted.
    site: Dict[str, Tuple[Tuple[str, str], ...]]
    #: Simple class name -> (source, fingerprint) of the last unit, in
    #: corpus order, declaring a class of that name.
    types: Dict[str, Tuple[str, str]]
    #: Simple class name -> ids of the units declaring it.
    declarers: Dict[str, Tuple[int, ...]]
    #: Files whose unchanged text was resolved again in this sync: their
    #: annotations, which a slice reads, may differ from when a value
    #: naming them was recorded.
    rewritten: FrozenSet[str] = frozenset()


#: A sync's dependency keys whose value changed: decl, site, type names.
_Changed = Tuple[Set[str], Set[str], Set[str]]


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
        return (
            self.fingerprint_ms
            + self.parse_ms
            + self.resolve_ms
            + self.callgraph_ms
            + self.mine_ms
            + self.analyze_ms
            + self.generalize_ms
            + self.graft_ms
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        data["total_ms"] = self.total_ms
        return data


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

    def to_dict(self) -> dict:
        return {
            "files_total": self.files_total,
            "files_added": list(self.files_added),
            "files_changed": list(self.files_changed),
            "files_removed": list(self.files_removed),
            "files_reresolved": list(self.files_reresolved),
            "files_rechecked": list(self.files_rechecked),
            "files_remined": list(self.files_remined),
            "files_reused": self.files_reused,
            "files_reanalyzed": list(self.files_reanalyzed),
            "casts_reanalyzed": self.casts_reanalyzed,
            "examples_total": self.examples_total,
            "suffixes_total": self.suffixes_total,
            "suffixes_added": self.suffixes_added,
            "suffixes_removed": self.suffixes_removed,
            "affected_targets": self.affected_targets,
            "revision_before": self.revision_before,
            "revision_after": self.revision_after,
            "noop": self.noop,
            "initial": self.initial,
            "timings": self.timings.to_dict(),
        }


#: Parse-cache entry: (fingerprint, parsed unit or None, parse fault or None).
_ParseEntry = Tuple[str, Optional[CompilationUnit], Optional[Exception]]


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
        min_precast_steps: int = 1,
        lenient: bool = True,
        check: bool = True,
        public_only: bool = True,
    ):
        self.api_registry = api_registry
        self.extraction = extraction
        self.min_precast_steps = int(min_precast_steps)
        self.lenient = bool(lenient)
        self.check = bool(check)
        self.public_only = bool(public_only)

        self._texts: List[Tuple[str, str]] = []
        self._fingerprints: Dict[str, str] = {}
        self._parse_cache: Dict[str, _ParseEntry] = {}
        #: Body-resolution records of the parsed units (see stage 3).
        self._resolution_cache = ResolutionCache()
        self._records: Dict[str, FileMineRecord] = {}
        #: ``graph`` was adopted, not built here: the first sync diffs
        #: against its splices (see :meth:`from_artifacts`).
        self._adopted = False
        #: The last sync committed, or raised before changing anything.
        self._settled = True
        self._pending_record_dicts: Dict[str, dict] = {}
        #: ``None`` after a sync raised with the trie perhaps half edited.
        self._generalizer: Optional[IncrementalGeneralizer] = IncrementalGeneralizer(
            self.min_precast_steps
        )
        #: Each file's generalized examples, in its record's order.
        self._generalized: Dict[str, List[GeneralizedExample]] = {}
        #: Per unit id: what it adds to the dependency maps.
        self._dep_keys: Dict[int, _UnitDeps] = {}
        #: The dependency maps of the last sync, and the sources whose
        #: records recorded each decl, site and type-name key.
        self._deps: Optional[_DepMaps] = None
        self._users = Dependents(3)
        #: ``call_graph`` was built after its units' last resolution, so
        #: the next build can start from it.
        self._call_graph_current = False
        #: Per-file cast observations; invalidated with files_remined.
        self._analysis_obs: Dict[str, Tuple[CastObservation, ...]] = {}

        self.program: Optional[CorpusProgram] = None
        self.call_graph: Optional[CallGraph] = None
        self.mining: Optional[MiningResult] = None
        self.graph: Optional[JungloidGraph] = None
        #: The cast-verdict index for the current corpus state.
        self.verdicts: Optional[CastVerdictIndex] = None
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
        pipeline.sync(texts)
        return pipeline

    @classmethod
    def from_program(
        cls,
        api_registry: TypeRegistry,
        program: CorpusProgram,
        extraction: ExtractionConfig = ExtractionConfig(),
        min_precast_steps: int = 1,
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
            min_precast_steps=min_precast_steps,
            lenient=program.diagnostics is not None,
            check=program.check_report is not None if check is None else check,
            public_only=public_only,
        )
        cache = program.resolution_cache
        if cache is not None:
            # Seed the parse and resolution caches with the program's so
            # the initial sync only re-declares and mines.
            program.resolution_cache = None
            pipeline._resolution_cache = cache
            fps = fingerprint_texts(program.texts)
            for unit in [*program.units, *program.quarantined_units]:
                if unit.source in fps:
                    pipeline._parse_cache[unit.source] = (fps[unit.source], unit, None)
            for source, exc in program.parse_faults:
                if source in fps:
                    pipeline._parse_cache[source] = (fps[source], None, exc)
        pipeline.sync(program.texts)
        return pipeline

    @classmethod
    def from_artifacts(
        cls,
        api_registry: TypeRegistry,
        data: dict,
        graph: Optional[JungloidGraph] = None,
        extraction: Optional[ExtractionConfig] = None,
        public_only: bool = True,
    ) -> "CorpusPipeline":
        """Rebuild a pipeline from persisted stage artifacts.

        ``graph`` (typically from a snapshot load) is adopted as the
        live graph; the initial sync then applies a suffix delta against
        it — empty when the artifacts and snapshot agree, corrective
        when they drifted. Cached mined examples are revalidated against
        their recorded dependency fingerprints before reuse, so a
        tampered or stale stage file degrades to re-mining, never to wrong
        answers. Passing ``extraction`` different from the persisted
        config discards the cached examples (they were mined under other
        budgets).
        """
        data = check_stage_dict(data)
        try:
            stored = ExtractionConfig(**data["extraction_config"])
        except TypeError as exc:
            raise StageFormatError(f"unknown extraction config fields: {exc}") from exc
        config = extraction if extraction is not None else stored
        pipeline = cls(
            api_registry,
            extraction=config,
            min_precast_steps=int(data["min_precast_steps"]),
            lenient=bool(data.get("lenient", True)),
            check=bool(data.get("check", True)),
            public_only=public_only,
        )
        if config == stored:
            pipeline._pending_record_dicts = {
                r["source"]: r for r in data["records"]
            }
        if graph is not None:
            pipeline.graph = graph
            pipeline._adopted = True
        texts = [(str(s), t) for s, t in data["texts"]]
        pipeline.sync(texts)
        return pipeline

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def texts(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._texts)

    @property
    def suffixes(self) -> Tuple[Jungloid, ...]:
        return tuple(self.mining.suffixes) if self.mining is not None else ()

    @property
    def records(self) -> Dict[str, FileMineRecord]:
        return dict(self._records)

    def to_stage_dict(self) -> dict:
        """The persistable stage artifacts (see :mod:`.artifacts`)."""
        return stages_to_dict(
            self._texts,
            self._records,
            asdict(self.extraction),
            self.min_precast_steps,
            self.lenient,
            self.check,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(
        self,
        upserts: Iterable[Tuple[str, str]] = (),
        removes: Iterable[str] = (),
    ) -> PipelineUpdateStats:
        """Apply file-level edits: replace/add ``upserts``, drop ``removes``.

        Replaced files keep their position in corpus order; new files
        append. Equivalent to a full :meth:`sync` of the edited text
        list, which is exactly what the differential suite checks.
        """
        upserts = [(str(s), t) for s, t in upserts]
        removed = {str(s) for s in removes}
        pending = dict(upserts)
        texts: List[Tuple[str, str]] = []
        for source, text in self._texts:
            if source in removed:
                continue
            if source in pending:
                texts.append((source, pending.pop(source)))
            else:
                texts.append((source, text))
        for source, text in upserts:
            if source in pending and source not in removed:
                texts.append((source, text))
                pending.pop(source)
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
        stats = PipelineUpdateStats(initial=self.graph is None)
        timings = stats.timings

        # -- Stage 1: fingerprint ---------------------------------------
        t0 = _now_ms()
        new_fps = fingerprint_texts(
            texts, {s: (t, self._fingerprints[s]) for s, t in self._texts}
        )
        diff = diff_fingerprints(self._fingerprints, new_fps)
        timings.fingerprint_ms = _now_ms() - t0
        stats.files_total = len(texts)
        stats.files_added = diff.added
        stats.files_changed = diff.changed
        stats.files_removed = diff.removed
        if (
            diff.is_empty
            and self._settled
            and self.graph is not None
            and [s for s, _ in texts] == [s for s, _ in self._texts]
        ):
            stats.noop = True
            stats.files_reused = len(self._records)
            stats.examples_total = len(self.mining.examples) if self.mining else 0
            stats.suffixes_total = len(self.suffixes)
            stats.revision_before = stats.revision_after = self.graph.revision
            self.last_stats = stats
            return stats
        if not self._settled:
            self._forget_attempt()
        self._settled = False

        # -- Stage 2: parse (per-file cache) ----------------------------
        t0 = _now_ms()
        new_parse: Dict[str, _ParseEntry] = {}
        units_all: List[CompilationUnit] = []
        parse_faults: List[Tuple[str, Exception]] = []
        for source, text in texts:
            fp = new_fps[source]
            cached = self._parse_cache.get(source)
            if cached is not None and cached[0] == fp:
                new_parse[source] = cached
                if cached[1] is not None:
                    units_all.append(cached[1])
                elif cached[2] is not None:
                    parse_faults.append((source, cached[2]))
                continue
            try:
                unit = parse_minijava(text, source)
            except MiniJavaError as exc:
                new_parse[source] = (fp, None, exc)
                parse_faults.append((source, exc))
                continue
            new_parse[source] = (fp, unit, None)
            units_all.append(unit)
        timings.parse_ms = _now_ms() - t0

        # -- Stage 3: resolve + check (bodies only where lookups changed) -
        t0 = _now_ms()
        cache = self._resolution_cache
        cache.retain(units_all)
        previous_graph = self.call_graph if self._call_graph_current else None
        self._call_graph_current = False
        diagnostics = CorpusDiagnostics()
        for source, exc in parse_faults:
            diagnostics.record(source, PHASE_PARSE, exc)
        registry, units, corpus_types, report = resolve_and_check_lenient(
            self.api_registry, units_all, diagnostics, self.check, cache
        )
        if not self.lenient:
            diagnostics.raise_first()
        diagnostics.loaded = [u.source for u in units]
        program = CorpusProgram(
            units=units,
            registry=registry,
            corpus_types=corpus_types,
            check_report=report,
            diagnostics=diagnostics if self.lenient else None,
            texts=list(texts),
        )
        timings.resolve_ms = _now_ms() - t0
        stats.files_reresolved = tuple(
            u.source for u in units if id(u) in cache.resolved
        )

        # -- Stage 4a: call graph + dependency fingerprint maps ---------
        t0 = _now_ms()
        call_graph = build_call_graph(registry, units, previous_graph, cache.resolved)
        rewritten = frozenset(
            u.source for u in units if id(u) in cache.resolved and id(u) in self._dep_keys
        )
        deps, dep_keys, changed = self._dep_maps(call_graph, units, new_fps, rewritten)
        timings.callgraph_ms = _now_ms() - t0

        # -- Stage 4b: mine (per-file cache + dependency validation) ----
        # An unchanged file's record is checked only when it recorded a
        # key whose value changed (or there is no change set).
        t0 = _now_ms()
        suspects = self._users.of(*changed) | rewritten if changed is not None else None
        rechecked = {u.source for u in units if id(u) in cache.checked}
        new_records: Dict[str, FileMineRecord] = {}
        remined: List[str] = []
        for unit in units:
            source = unit.source
            fp = new_fps[source]
            old = self._records.get(source)
            if old is not None:
                if old.fingerprint != fp:
                    old = None  # the file changed
                elif self._record_unaffected(old, fp, suspects):
                    new_records[source] = old
                    continue
                else:
                    rechecked.add(source)
            elif source in self._pending_record_dicts:
                try:
                    old = FileMineRecord.from_dict(
                        registry, self._pending_record_dicts[source]
                    )
                except Exception:
                    old = None  # damaged artifact entry: degrade to re-mining
            if old is not None and self._record_valid(old, fp, deps):
                new_records[source] = old
                continue
            new_records[source] = self._mine_unit(
                unit, registry, units, corpus_types, call_graph, deps, fp
            )
            remined.append(source)
        timings.mine_ms = _now_ms() - t0
        stats.files_remined = tuple(remined)
        stats.files_reused = len(new_records) - len(remined)
        stats.files_rechecked = tuple(u.source for u in units if u.source in rechecked)

        # -- Stage 4c: analyze (cast observations, per-file cache) ------
        # Re-mined files are re-analyzed, and the analyzer's call-graph
        # queries join their recorded dependencies: its join reads every
        # flow, where the extractor stops at its example cap or a fault.
        t0 = _now_ms()
        new_obs: Dict[str, Tuple[CastObservation, ...]] = {}
        reanalyzed: List[str] = []
        remined_set = set(remined)
        recorder = _RecordingCallGraph(call_graph)
        analyzer = CastAnalyzer(registry, units, corpus_types, recorder, self.extraction)
        for unit in units:
            source = unit.source
            cached_obs = self._analysis_obs.get(source)
            if cached_obs is not None and source not in remined_set:
                new_obs[source] = cached_obs
                continue
            recorder.clear()
            new_obs[source] = tuple(analyzer.analyze_unit(unit))
            reanalyzed.append(source)
            _record_call_deps(new_records[source], recorder, deps)
        verdicts = build_verdict_index(
            registry,
            [obs for unit in units for obs in new_obs[unit.source]],
            self.verdicts,
        )
        timings.analyze_ms = _now_ms() - t0
        stats.files_reanalyzed = tuple(reanalyzed)
        stats.casts_reanalyzed = sum(len(new_obs[s]) for s in reanalyzed)

        # -- Stage 5: generalize (incremental trie) ---------------------
        # Files whose record is not the last sync's lose their examples'
        # results and get new ones; a kept file's results change only
        # where the generalizer moved one.
        t0 = _now_ms()
        inserted = self._records  # the records whose examples the trie holds
        if self._generalizer is None:
            self._generalizer, inserted = IncrementalGeneralizer(self.min_precast_steps), {}
        for source, old in inserted.items():
            if new_records.get(source) is old:
                continue
            for example in old.examples:
                try:
                    self._generalizer.remove(example)
                except KeyError:
                    pass
            # A rehydrated-but-valid record was never in the trie; the
            # insert loop below covers it because identity differs.
        order = [s for s, _ in texts if s in new_records]
        fresh = [s for s in order if inserted.get(s) is not new_records[s]]
        for source in fresh:
            for example in new_records[source].examples:
                self._generalizer.insert(example)
        results = self._generalizer.generalize(
            [e for s in fresh for e in new_records[s].examples]
        )
        generalized_by = {s: self._generalized.get(s, []) for s in order}
        for source in fresh:
            generalized_by[source] = []
        for result in results:
            generalized_by[result.example.source].append(result)
        moved = {id(g.example): g for g in self._generalizer.moved}
        for source in {g.example.source for g in self._generalizer.moved}:
            generalized_by[source] = [
                moved.get(id(g.example), g) for g in generalized_by[source]
            ]
        generalized = [g for s in order for g in generalized_by[s]]
        suffixes = unique_suffixes(generalized)
        mining = MiningResult(
            examples=[e for s in order for e in new_records[s].examples],
            generalized=generalized,
            suffixes=suffixes,
            faults=[f for s in order for f in new_records[s].faults],
        )
        timings.generalize_ms = _now_ms() - t0
        stats.examples_total = len(mining.examples)
        stats.suffixes_total = len(suffixes)

        # -- Stage 6: graft the suffix delta ----------------------------
        t0 = _now_ms()
        if self.graph is None:
            self.graph = JungloidGraph.build(
                self.api_registry, suffixes, public_only=self.public_only
            )
            stats.suffixes_added = len(suffixes)
            stats.affected_targets = self.graph.node_count()
            stats.revision_before = 0
            stats.revision_after = self.graph.revision
        else:
            if self._adopted:
                # Diff against the adopted graph's splices, in its order.
                live = dict.fromkeys(self.graph.mined_suffix_keys())
                new = {j.steps for j in suffixes}
                added = tuple(j for j in suffixes if j.steps not in live)
                removed = tuple(Jungloid(key) for key in live if key not in new)
            else:
                # Suffixes are canonical objects: the ones whose use count
                # rose from zero are new (grafted in the new list's order),
                # the ones that fell to zero gone (in the old order).
                born = {id(j) for j in self._generalizer.added}
                died = {id(j) for j in self._generalizer.removed}
                added = tuple(j for j in suffixes if id(j) in born) if born else ()
                removed = tuple(j for j in self.suffixes if id(j) in died) if died else ()
            applied: MinedDelta = self.graph.apply_mined_delta(added, removed)
            stats.suffixes_added = len(added)
            stats.suffixes_removed = len(removed)
            stats.affected_targets = len(applied.affected_targets)
            stats.revision_before = applied.revision_before
            stats.revision_after = applied.revision_after
        timings.graft_ms = _now_ms() - t0

        # -- Commit ------------------------------------------------------
        reanalyzed_set = set(reanalyzed)
        for source, old in self._records.items():
            if new_records.get(source) is not old or source in reanalyzed_set:
                self._users.remove(source, old.decl_deps, old.site_deps, old.type_deps)
        for source, record in new_records.items():
            if self._records.get(source) is not record or source in reanalyzed_set:
                self._users.add(source, record.decl_deps, record.site_deps, record.type_deps)
        self._texts = texts
        self._fingerprints = new_fps
        self._parse_cache = new_parse
        self._records = new_records
        self._generalized = generalized_by
        self._adopted = False
        self._dep_keys = dep_keys
        self._deps = deps
        self._call_graph_current = True
        self._settled = True
        self._pending_record_dicts = {}
        self._analysis_obs = new_obs
        self.program = program
        self.call_graph = call_graph
        self.mining = mining
        self.verdicts = verdicts
        self.last_stats = stats
        return stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _forget_attempt(self) -> None:
        """Undo what the last sync wrote in place before it raised.

        Its resolution annotated cached ASTs, so every unit it resolved
        is resolved again; its generalize and graft may have edited the
        trie and the live graph, so the trie is built afresh and the
        graph diffed against its own splices, as an adopted one is.
        """
        cache = self._resolution_cache
        for key in cache.resolved:
            cache.drop(key)
            cache.drop_declared(key)
        self._generalizer = None
        self._adopted = self.graph is not None

    def _dep_maps(
        self,
        call_graph: CallGraph,
        units: Sequence[CompilationUnit],
        fps: Dict[str, str],
        rewritten: FrozenSet[str],
    ) -> Tuple[_DepMaps, Dict[int, _UnitDeps], Optional[_Changed]]:
        """The dependency fingerprints of every corpus method and type, and
        the keys whose value changed since the last sync, or names a
        ``rewritten`` file.

        The last sync's maps are patched for the units whose share of the
        call graph was rebuilt and the units that are gone; a unit's keys
        are computed again only when its share was rebuilt. With no last
        sync, or when kept units moved relative to each other, the maps
        are built afresh and the changed keys are ``None``: everything
        may have changed.
        """
        old_keys = self._dep_keys
        dep_keys: Dict[int, _UnitDeps] = {}
        fresh: List[_UnitDeps] = []
        for unit in units:
            calls = call_graph.units[id(unit)]
            keys = old_keys.get(id(unit))
            if keys is None or keys.calls is not calls:
                keys = _UnitDeps(
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
                fresh.append(keys)
            dep_keys[id(unit)] = keys
        old = self._deps
        if old is not None and [k for k in old_keys if k in dep_keys] == [
            k for k in dep_keys if k in old_keys
        ]:
            maps = _DepMaps(
                dict(old.decl), dict(old.site), dict(old.types), dict(old.declarers), rewritten
            )
            gone = [keys for k, keys in old_keys.items() if dep_keys.get(k) is not keys]
        else:
            old = None
            maps = _DepMaps({}, {}, {}, {}, rewritten)
            gone = []
            fresh = list(dep_keys.values())
        decl, site, types, declarers, _ = maps
        touched_decls: Set[str] = set()
        touched_sites: Set[str] = set()
        touched_names: Set[str] = set()
        # A site entry names one file's version, so a unit's share of a
        # site list is every occurrence of its entry.
        for keys in gone:
            uid = id(keys.calls.unit)
            for key in keys.decls:
                decl.pop(key, None)
                touched_decls.add(key)
            for key in set(keys.callees):
                site[key] = tuple(e for e in site[key] if e != keys.entry)
                touched_sites.add(key)
            for name in keys.classes:
                declarers[name] = tuple(k for k in declarers[name] if k != uid)
                touched_names.add(name)
        for keys in fresh:
            uid = id(keys.calls.unit)
            for key in keys.decls:
                decl[key] = keys.entry
                touched_decls.add(key)
            for key in keys.callees:
                site[key] = site.get(key, ()) + (keys.entry,)
                touched_sites.add(key)
            for name in keys.classes:
                declarers[name] = declarers.get(name, ()) + (uid,)
                touched_names.add(name)
        for key in touched_sites:
            if site[key]:
                site[key] = tuple(sorted(site[key]))
            else:
                del site[key]
        if touched_names:
            place = {k: i for i, k in enumerate(dep_keys)}
            for name in touched_names:
                if declarers[name]:
                    types[name] = dep_keys[max(declarers[name], key=place.__getitem__)].entry
                else:
                    del declarers[name]
                    types.pop(name, None)
        if old is None:
            return maps, dep_keys, None
        changed = (
            {k for k in touched_decls if decl.get(k) != old.decl.get(k)},
            {k for k in touched_sites if site.get(k, ()) != old.site.get(k, ())},
            {n for n in touched_names if types.get(n) != old.types.get(n)},
        )
        for keys in fresh:
            if keys.entry[0] in rewritten:
                for table, owned in zip(changed, (keys.decls, keys.callees, keys.classes)):
                    table.update(owned)
        return maps, dep_keys, changed

    @staticmethod
    def _record_unaffected(
        record: FileMineRecord, fp: str, suspects: Optional[Set[str]]
    ) -> bool:
        """Is ``record`` the last sync's record of an unchanged file that
        recorded no key whose value changed? It was valid against the last
        sync's maps, so :meth:`_record_valid` would pass it."""
        return suspects is not None and record.fingerprint == fp and record.source not in suspects

    @staticmethod
    def _record_valid(record: FileMineRecord, fp: str, deps: _DepMaps) -> bool:
        """Is a cached record still exact for the current corpus state?

        Its file and every file a recorded value names must be unchanged,
        and none of them resolved again (a file is resolved again when a
        name it probed binds differently or a type it read changed, and
        its annotations with it)."""
        if record.fingerprint != fp or record.source in deps.rewritten:
            return False
        for key, want in record.decl_deps.items():
            if deps.decl.get(key) != want:
                return False
        for key, want in record.site_deps.items():
            if deps.site.get(key, ()) != want:
                return False
        for name, want in record.type_deps.items():
            if deps.types.get(name) != want:
                return False
        if deps.rewritten:
            named = [e for e in record.decl_deps.values() if e]
            named += [e for entries in record.site_deps.values() for e in entries]
            named += [e for e in record.type_deps.values() if e]
            return not any(source in deps.rewritten for source, _ in named)
        return True

    def _mine_unit(
        self,
        unit: CompilationUnit,
        registry: TypeRegistry,
        units: Sequence[CompilationUnit],
        corpus_types: Sequence[NamedType],
        call_graph: CallGraph,
        deps: _DepMaps,
        fp: str,
    ) -> FileMineRecord:
        """Slice one unit, recording its dependency fingerprints."""
        recorder = _RecordingCallGraph(call_graph)
        extractor = JungloidExtractor(
            registry, units, corpus_types, recorder, self.extraction
        )
        examples = extractor.extract_unit(unit)
        record = FileMineRecord(
            source=unit.source,
            fingerprint=fp,
            examples=examples,
            faults=list(extractor.faults),
            type_deps={
                name: deps.types.get(name)
                for name in _referenced_corpus_types(unit, registry, deps.types)
            },
        )
        _record_call_deps(record, recorder, deps)
        return record


def _record_call_deps(
    record: FileMineRecord, recorder: _RecordingCallGraph, deps: _DepMaps
) -> None:
    """Add the call-graph queries ``recorder`` saw to ``record``'s deps."""
    for m in recorder.decl_queries:
        record.decl_deps[_method_key(m)] = deps.decl.get(_method_key(m))
    for m in recorder.site_queries:
        record.site_deps[_method_key(m)] = deps.site.get(_method_key(m), ())
